// Package graphbuild is the graph generator of the paper's pipeline
// (§VI): it turns raw behavior logs into the heterogeneous retrieval
// graph of §II. Two edge families are constructed:
//
//   - Interaction edges. For each click sequence (i1..im) under user u's
//     query q: u—q click edges, q—ik click edges, and ik—ik+1 session
//     edges for adjacent clicks. Repeated interactions accumulate weight.
//   - Similarity edges. MinHash-estimated Jaccard similarities over title
//     terms link similar queries and items; users are linked by the
//     Jaccard of their clicked-item sets. Candidate pairs come from LSH
//     banding so construction stays near-linear, as a production graph
//     generator requires.
package graphbuild

import (
	"sort"

	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/minhash"
)

// Config tunes similarity-edge construction.
type Config struct {
	// MinHashK is the signature length; Bands must divide it.
	MinHashK int
	Bands    int
	// SimThreshold drops candidate pairs with estimated Jaccard below it.
	SimThreshold float64
	// MaxSimEdgesPerNode caps similarity degree, keeping the graph sparse.
	MaxSimEdgesPerNode int
	// UserUserEdges enables behavioral user—user similarity edges (the
	// dominant edge family in the paper's larger graphs).
	UserUserEdges bool
	Seed          uint64
}

// DefaultConfig returns the settings used by the experiment harnesses.
func DefaultConfig() Config {
	return Config{
		MinHashK:           32,
		Bands:              8,
		SimThreshold:       0.25,
		MaxSimEdgesPerNode: 10,
		UserUserEdges:      true,
		Seed:               1,
	}
}

// Mapping locates each world-local index inside the graph's node id space.
type Mapping struct {
	Users, Queries, Items int
}

// UserNode returns the graph node id of user u.
func (m Mapping) UserNode(u int) graph.NodeID { return graph.NodeID(u) }

// QueryNode returns the graph node id of query q.
func (m Mapping) QueryNode(q int) graph.NodeID { return graph.NodeID(m.Users + q) }

// ItemNode returns the graph node id of item i.
func (m Mapping) ItemNode(i int) graph.NodeID { return graph.NodeID(m.Users + m.Queries + i) }

// NumNodes returns the total node count of the built graph.
func (m Mapping) NumNodes() int { return m.Users + m.Queries + m.Items }

// Type derives a node's type from the builder's id layout (users first,
// then queries, then items). Engine shards carry no per-node type data,
// so remote views recover types through this arithmetic instead of a
// graph lookup.
func (m Mapping) Type(id graph.NodeID) graph.NodeType {
	switch {
	case int(id) < m.Users:
		return graph.User
	case int(id) < m.Users+m.Queries:
		return graph.Query
	default:
		return graph.Item
	}
}

// NodesOfType enumerates all node ids of type t, in id order.
func (m Mapping) NodesOfType(t graph.NodeType) []graph.NodeID {
	var lo, n int
	switch t {
	case graph.User:
		lo, n = 0, m.Users
	case graph.Query:
		lo, n = m.Users, m.Queries
	case graph.Item:
		lo, n = m.Users+m.Queries, m.Items
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(lo + i)
	}
	return out
}

// Result bundles the built graph with its id mapping.
type Result struct {
	Graph   *graph.Graph
	Mapping Mapping
}

// Build constructs the retrieval graph from logs.
func Build(l *loggen.Logs, cfg Config) *Result {
	b := graph.NewBuilder()
	m := Mapping{Users: len(l.Users), Queries: len(l.Queries), Items: len(l.Items)}

	// Node features follow Table I; title-term ids are appended after the
	// fixed categorical slots so models can embed them (query features =
	// [category, terms...]; item features = [id, category, brand, shop,
	// terms...]).
	withTerms := func(fixed []int32, terms []uint64) []int32 {
		out := make([]int32, 0, len(fixed)+len(terms))
		out = append(out, fixed...)
		for _, t := range terms {
			out = append(out, int32(t))
		}
		return out
	}
	for _, u := range l.Users {
		b.AddNode(graph.User, u.FeatureIDs, u.Content)
	}
	for _, q := range l.Queries {
		b.AddNode(graph.Query, withTerms(q.FeatureIDs, q.TitleTerms), q.Content)
	}
	for _, it := range l.Items {
		b.AddNode(graph.Item, withTerms(it.FeatureIDs, it.TitleTerms), it.Content)
	}

	// Interaction edges.
	clickedBy := make([][]uint64, len(l.Users)) // item-id sets per user
	for _, s := range l.Sessions {
		un := m.UserNode(s.User)
		for _, ev := range s.Events {
			qn := m.QueryNode(ev.Query)
			b.AddUndirected(un, qn, graph.Click, 1)
			for ci, c := range ev.Clicks {
				in := m.ItemNode(c.Item)
				b.AddUndirected(qn, in, graph.Click, 1)
				if ci > 0 {
					prev := m.ItemNode(ev.Clicks[ci-1].Item)
					if prev != in {
						b.AddUndirected(prev, in, graph.Session, 1)
					}
				}
				clickedBy[s.User] = append(clickedBy[s.User], uint64(c.Item))
			}
		}
	}

	// Similarity edges over title terms (queries and items share the term
	// space, so query—item similarity edges arise naturally — the paper
	// computes Jaccard "between queries and items").
	hasher := minhash.NewHasher(cfg.MinHashK, cfg.Seed)
	sigs := make([]minhash.Signature, 0, len(l.Queries)+len(l.Items))
	ids := make([]graph.NodeID, 0, len(l.Queries)+len(l.Items))
	for q, meta := range l.Queries {
		sigs = append(sigs, hasher.SignIDs(meta.TitleTerms))
		ids = append(ids, m.QueryNode(q))
	}
	for i, meta := range l.Items {
		sigs = append(sigs, hasher.SignIDs(meta.TitleTerms))
		ids = append(ids, m.ItemNode(i))
	}
	addSimilarityEdges(b, sigs, ids, cfg)

	if cfg.UserUserEdges {
		usigs := make([]minhash.Signature, 0, len(l.Users))
		uids := make([]graph.NodeID, 0, len(l.Users))
		for u, items := range clickedBy {
			if len(items) == 0 {
				continue
			}
			usigs = append(usigs, hasher.SignIDs(items))
			uids = append(uids, m.UserNode(u))
		}
		addSimilarityEdges(b, usigs, uids, cfg)
	}

	return &Result{Graph: b.Build(), Mapping: m}
}

// addSimilarityEdges links candidate pairs found by LSH banding whose
// estimated Jaccard clears the threshold, keeping at most
// MaxSimEdgesPerNode strongest edges per node.
func addSimilarityEdges(b *graph.Builder, sigs []minhash.Signature, ids []graph.NodeID, cfg Config) {
	if len(sigs) == 0 {
		return
	}
	rowsPerBand := cfg.MinHashK / cfg.Bands
	type pair struct {
		a, c graph.NodeID
		sim  float64
	}
	seen := make(map[uint64]bool)
	candidates := make([]pair, 0, len(sigs)*2)

	for band := 0; band < cfg.Bands; band++ {
		buckets := make(map[uint64][]int)
		lo := band * rowsPerBand
		for i, sig := range sigs {
			var h uint64 = 1469598103934665603
			for _, v := range sig[lo : lo+rowsPerBand] {
				h ^= v
				h *= 1099511628211
			}
			buckets[h] = append(buckets[h], i)
		}
		for _, bucket := range buckets {
			if len(bucket) < 2 {
				continue
			}
			// Cap quadratic blowup inside a hot bucket.
			lim := bucket
			if len(lim) > 50 {
				lim = lim[:50]
			}
			for x := 0; x < len(lim); x++ {
				for y := x + 1; y < len(lim); y++ {
					i, j := lim[x], lim[y]
					a, c := ids[i], ids[j]
					if a == c {
						continue
					}
					if a > c {
						a, c = c, a
					}
					key := uint64(a)<<32 | uint64(uint32(c))
					if seen[key] {
						continue
					}
					seen[key] = true
					sim := minhash.Similarity(sigs[i], sigs[j])
					if sim >= cfg.SimThreshold {
						candidates = append(candidates, pair{a, c, sim})
					}
				}
			}
		}
	}

	// Strongest-first with a per-node degree cap. MinHash similarities
	// are heavily tied and the cap is first-come, so the order must be
	// total: the candidate set does not depend on the bucket map's
	// iteration order (seen dedups it), but its slice order does.
	sort.Slice(candidates, func(i, j int) bool {
		p, q := candidates[i], candidates[j]
		if p.sim != q.sim {
			return p.sim > q.sim
		}
		if p.a != q.a {
			return p.a < q.a
		}
		return p.c < q.c
	})
	degree := make(map[graph.NodeID]int)
	for _, p := range candidates {
		if degree[p.a] >= cfg.MaxSimEdgesPerNode || degree[p.c] >= cfg.MaxSimEdgesPerNode {
			continue
		}
		b.AddUndirected(p.a, p.c, graph.Similarity, float32(p.sim))
		degree[p.a]++
		degree[p.c]++
	}
}
