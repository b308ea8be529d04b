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
//
// The signatures are signed and the bands bucketed on every core, with
// sorts in place of maps, and graph.Builder freezes the edges in O(E + N),
// so the whole build is near-linear. Its output does not depend on the
// core count.
package graphbuild

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/minhash"
)

// Config tunes similarity-edge construction.
type Config struct {
	// MinHashK is the signature length; Bands must divide it, or Build
	// panics.
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

// Build constructs the retrieval graph from logs. It panics if
// cfg.Bands does not divide cfg.MinHashK.
func Build(l *loggen.Logs, cfg Config) *Result {
	switch {
	case cfg.Bands <= 0:
		panic(fmt.Sprintf("graphbuild: Bands must be positive, got %d", cfg.Bands))
	case cfg.MinHashK%cfg.Bands != 0:
		panic(fmt.Sprintf("graphbuild: Bands (%d) must divide MinHashK (%d)", cfg.Bands, cfg.MinHashK))
	}
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

	// Interaction edges, and each user's clicked items in click order,
	// user u's at clicked[clickStart[u]:clickStart[u+1]].
	clickStart := make([]int, len(l.Users)+1)
	for _, s := range l.Sessions {
		for _, ev := range s.Events {
			clickStart[s.User+1] += len(ev.Clicks)
		}
	}
	for u := range l.Users {
		clickStart[u+1] += clickStart[u]
	}
	clicked := make([]uint64, clickStart[len(l.Users)])
	next := slices.Clone(clickStart)
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
				clicked[next[s.User]] = uint64(c.Item)
				next[s.User]++
			}
		}
	}

	// Similarity edges over title terms (queries and items share the term
	// space, so query—item similarity edges arise naturally — the paper
	// computes Jaccard "between queries and items").
	hasher := minhash.NewHasher(cfg.MinHashK, cfg.Seed)
	sets := make([][]uint64, 0, len(l.Queries)+len(l.Items))
	ids := make([]graph.NodeID, 0, len(l.Queries)+len(l.Items))
	for q, meta := range l.Queries {
		sets = append(sets, meta.TitleTerms)
		ids = append(ids, m.QueryNode(q))
	}
	for i, meta := range l.Items {
		sets = append(sets, meta.TitleTerms)
		ids = append(ids, m.ItemNode(i))
	}
	addSimilarityEdges(b, hasher, sets, ids, cfg)

	if cfg.UserUserEdges {
		sets, ids = sets[:0], ids[:0]
		for u := range l.Users {
			if clickStart[u] < clickStart[u+1] {
				sets = append(sets, clicked[clickStart[u]:clickStart[u+1]])
				ids = append(ids, m.UserNode(u))
			}
		}
		addSimilarityEdges(b, hasher, sets, ids, cfg)
	}

	return &Result{Graph: b.Build(), Mapping: m}
}

// addSimilarityEdges links nodes ids[i] and ids[j] whose id sets sets[i]
// and sets[j] are similar: candidate pairs found by LSH banding whose
// estimated Jaccard clears the threshold, keeping at most
// MaxSimEdgesPerNode strongest edges per node.
func addSimilarityEdges(b *graph.Builder, hasher *minhash.Hasher, sets [][]uint64, ids []graph.NodeID, cfg Config) {
	n, k := len(sets), hasher.K()
	if n == 0 {
		return
	}
	sigs := make([]uint64, n*k)
	parallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(sigs[i*k:], hasher.SignIDs(sets[i]))
		}
	})
	sig := func(i int32) minhash.Signature { return sigs[int(i)*k : int(i+1)*k] }

	// Each band buckets the nodes by sorting (hash, index) pairs, so a
	// bucket lists its members in index order; every pair inside a bucket
	// is a candidate, packed as i<<32|j with indices i < j.
	rows := k / cfg.Bands
	type member struct {
		hash uint64
		i    int32
	}
	bands := make([][]uint64, cfg.Bands)
	parallelFor(cfg.Bands, func(lo, hi int) {
		bucket := make([]member, n)
		for band := lo; band < hi; band++ {
			for i := range bucket {
				var h uint64 = 1469598103934665603
				for _, v := range sig(int32(i))[band*rows : (band+1)*rows] {
					h ^= v
					h *= 1099511628211
				}
				bucket[i] = member{h, int32(i)}
			}
			slices.SortFunc(bucket, func(x, y member) int {
				if c := cmp.Compare(x.hash, y.hash); c != 0 {
					return c
				}
				return cmp.Compare(x.i, y.i)
			})
			var keys []uint64
			for first := 0; first < n; {
				end := first + 1
				for end < n && bucket[end].hash == bucket[first].hash {
					end++
				}
				// Cap quadratic blowup inside a hot bucket.
				run := bucket[first:min(end, first+50)]
				for x, p := range run {
					for _, q := range run[x+1:] {
						keys = append(keys, uint64(p.i)<<32|uint64(q.i))
					}
				}
				first = end
			}
			bands[band] = keys
		}
	})
	keys := slices.Concat(bands...)
	slices.Sort(keys)
	keys = slices.Compact(keys)

	type pair struct {
		a, c graph.NodeID
		sim  float64
	}
	candidates := make([]pair, len(keys))
	parallelFor(len(keys), func(lo, hi int) {
		for x := lo; x < hi; x++ {
			i, j := int32(keys[x]>>32), int32(uint32(keys[x]))
			a, c := ids[i], ids[j]
			if a > c {
				a, c = c, a
			}
			candidates[x] = pair{a, c, minhash.Similarity(sig(i), sig(j))}
		}
	})
	candidates = slices.DeleteFunc(candidates, func(p pair) bool { return p.sim < cfg.SimThreshold })

	// Strongest-first with a per-node degree cap. MinHash similarities
	// are heavily tied and the cap is first-come, so the order must be
	// total.
	slices.SortFunc(candidates, func(p, q pair) int {
		if p.sim != q.sim {
			return cmp.Compare(q.sim, p.sim)
		}
		if p.a != q.a {
			return cmp.Compare(p.a, q.a)
		}
		return cmp.Compare(p.c, q.c)
	})
	degree := make([]int, b.NumNodes())
	for _, p := range candidates {
		if degree[p.a] >= cfg.MaxSimEdgesPerNode || degree[p.c] >= cfg.MaxSimEdgesPerNode {
			continue
		}
		b.AddUndirected(p.a, p.c, graph.Similarity, float32(p.sim))
		degree[p.a]++
		degree[p.c]++
	}
}

// parallelFor runs f over [0, n) in one contiguous chunk per core and
// waits for every chunk.
func parallelFor(n int, f func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() { defer wg.Done(); f(w*n/workers, (w+1)*n/workers) }()
	}
	wg.Wait()
}
