// Package core implements the paper's primary contribution: the Zoomer
// model — focal selection (§V-B), focal-biased ROI sampling (§V-C, via
// package sampling), and the ROI-based multi-level attention network
// (§V-D) with its feature-projection, edge-reweighing and
// semantic-combination levels — plus the chassis every model is built
// on, the shared model interface, and the training/evaluation loop.
//
// A model is a region spec plus a request tower (Spec) on the one
// Chassis, which owns the feature embedder, the twin towers, the
// LogitScale·cosine head and the batched pass that reads a step's
// regions out of the graph. Zoomer and the nine baselines of package
// baselines differ only in their specs.
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

// tables returns every embedding table for optimizer registration.
func (fe *FeatureEmbedder) tables() []*nn.EmbeddingTable {
	return []*nn.EmbeddingTable{
		fe.UserID, fe.Gender, fe.Member,
		fe.ItemID, fe.Category, fe.Brand, fe.Shop, fe.Term,
	}
}

// featureMatrix gathers node id's feature latent vectors as a
// slot-count x Dim node H — the input of the feature-projection level
// (eq. 6) — in one op.
func (fe *FeatureEmbedder) featureMatrix(t *ad.Tape, g GraphView, id graph.NodeID) *ad.Node {
	s, n := fe.slots(g, id)
	return t.GatherSlots(s[:n]...)
}

// slots returns node id's Table I feature slots in s[:n], one per
// feature space of its type; the title terms collapse to one slot, the
// mean of their rows. The array keeps a per-node read off the heap.
func (fe *FeatureEmbedder) slots(g GraphView, id graph.NodeID) (s [5]ad.Slot, n int) {
	f := g.Features(id)
	switch g.Type(id) {
	case graph.User: // [id, gender, membership]
		return [5]ad.Slot{fe.UserID.Slot(f[:1], false), fe.Gender.Slot(f[1:2], false), fe.Member.Slot(f[2:3], false)}, 3
	case graph.Query: // [category, terms...]
		return [5]ad.Slot{fe.Category.Slot(f[:1], false), fe.Term.Slot(f[1:], true)}, 2
	case graph.Item: // [id, category, brand, shop, terms...]
		return [5]ad.Slot{fe.ItemID.Slot(f[:1], false), fe.Category.Slot(f[1:2], false),
			fe.Brand.Slot(f[2:3], false), fe.Shop.Slot(f[3:4], false), fe.Term.Slot(f[4:], true)}, 5
	default:
		panic(fmt.Sprintf("core: unknown node type %v", g.Type(id)))
	}
}
