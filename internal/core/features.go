// Package core implements the paper's primary contribution: the Zoomer
// model — focal selection (§V-B), focal-biased ROI sampling (§V-C, via
// package sampling), and the ROI-based multi-level attention network
// (§V-D) with its feature-projection, edge-reweighing and
// semantic-combination levels — plus the twin-tower CTR head, the shared
// model interface every baseline implements, and the training/evaluation
// loop.
package core

import (
	"fmt"

	"zoomer/internal/ad"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/nn"
	"zoomer/internal/rng"
)

// FeatureEmbedder owns the per-feature-space embedding tables of Table I
// and assembles a node's feature latent matrix H (one row per feature
// slot). All models share this structure so comparisons isolate the
// aggregation strategy, not the feature treatment.
type FeatureEmbedder struct {
	Dim int

	UserID, Gender, Member        *nn.EmbeddingTable
	ItemID, Category, Brand, Shop *nn.EmbeddingTable
	Term                          *nn.EmbeddingTable
}

// Feature-slot counts per node type (title terms collapse to one slot).
const (
	userSlots  = 3 // id, gender, membership
	querySlots = 2 // category, terms
	itemSlots  = 5 // id, category, brand, shop, terms
)

// NewFeatureEmbedder allocates tables sized by the world's vocabulary.
func NewFeatureEmbedder(v loggen.Vocab, dim int, r *rng.RNG) *FeatureEmbedder {
	return &FeatureEmbedder{
		Dim:      dim,
		UserID:   nn.NewEmbeddingTable("user_id", v.Users, dim, r.Split()),
		Gender:   nn.NewEmbeddingTable("gender", v.Genders, dim, r.Split()),
		Member:   nn.NewEmbeddingTable("membership", v.Memberships, dim, r.Split()),
		ItemID:   nn.NewEmbeddingTable("item_id", v.Items, dim, r.Split()),
		Category: nn.NewEmbeddingTable("category", v.Categories, dim, r.Split()),
		Brand:    nn.NewEmbeddingTable("brand", v.Brands, dim, r.Split()),
		Shop:     nn.NewEmbeddingTable("shop", v.Shops, dim, r.Split()),
		Term:     nn.NewEmbeddingTable("term", v.Terms, dim, r.Split()),
	}
}

// Tables returns every embedding table for optimizer registration.
func (fe *FeatureEmbedder) Tables() []*nn.EmbeddingTable {
	return []*nn.EmbeddingTable{
		fe.UserID, fe.Gender, fe.Member,
		fe.ItemID, fe.Category, fe.Brand, fe.Shop, fe.Term,
	}
}

// FeatureMatrix gathers node id's feature latent vectors as a
// slot-count x Dim node H — the input of the feature-projection level
// (eq. 6). Term slots average the node's title-term embeddings.
func (fe *FeatureEmbedder) FeatureMatrix(t *ad.Tape, g GraphView, id graph.NodeID) *ad.Node {
	feats := g.Features(id)
	switch g.Type(id) {
	case graph.User:
		return t.ConcatRows(
			fe.UserID.LookupOne(t, feats[0]),
			fe.Gender.LookupOne(t, feats[1]),
			fe.Member.LookupOne(t, feats[2]),
		)
	case graph.Query:
		// feats = [category, terms...]
		return t.ConcatRows(
			fe.Category.LookupOne(t, feats[0]),
			t.MeanRows(fe.Term.Lookup(t, feats[1:])),
		)
	case graph.Item:
		// feats = [id, category, brand, shop, terms...]
		return t.ConcatRows(
			fe.ItemID.LookupOne(t, feats[0]),
			fe.Category.LookupOne(t, feats[1]),
			fe.Brand.LookupOne(t, feats[2]),
			fe.Shop.LookupOne(t, feats[3]),
			t.MeanRows(fe.Term.Lookup(t, feats[4:])),
		)
	default:
		panic(fmt.Sprintf("core: unknown node type %v", g.Type(id)))
	}
}
