// Package sampling implements Stage 1 of the Zoomer pipeline — the
// focal-biased graph sampler that constructs the Region of Interest
// (§V-C) — together with the downscaling samplers of every baseline the
// paper compares against (GraphSAGE uniform sampling, PinSage importance
// walks, Pixie biased walks, PinnerSage cluster importance) and the plain
// weighted sampling a production graph engine provides.
//
// All samplers answer the same question: given an ego node, an optional
// focal vector, and a budget k, which neighbors enter the sampled
// subgraph? Multi-hop ROI construction is layered on top by BuildTree.
//
// Every sampler threads a caller-owned *Scratch (see scratch.go) through
// its hot path, so the steady state allocates nothing; the scratch is
// required. Top-k selection is a bounded min-heap (O(d log k)) rather
// than a full sort, and the walk samplers count visits in a slice
// indexed by node id rather than a map.
package sampling

import (
	"sort"

	"zoomer/internal/alias"
	"zoomer/internal/graph"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// GraphView is the read surface the samplers traverse. Both the
// in-memory *graph.Graph and the partitioned engine's routing layer
// (engine.Engine, whose shard stores sit behind its ShardBackend seam)
// satisfy it, so ROI construction runs identically over a local graph
// and over a sharded store — the property the cross-shard equivalence
// tests pin down.
//
// ReadNodes is the bulk form of the single-node reads: the requested
// attributes of every listed node in one call, which a sharded store
// serves with one overlapped visit per owning shard instead of one round
// trip per node. It is part of the interface — not an optional facet —
// so a decorator that embeds a GraphView forwards it.
type GraphView interface {
	NumNodes() int
	ContentDim() int
	Neighbors(id graph.NodeID) []graph.Edge
	Content(id graph.NodeID) tensor.Vec
	ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock)
}

// Sampler selects up to k neighbors of ego. focal is the summed focal
// vector of the request (nil for focal-agnostic samplers). sc supplies
// the reusable buffers and is required; the returned slice is backed by
// it and is valid only until the sampler's next call with the same
// scratch — callers that retain edges must copy them.
//
// NeighborReads reports which attributes of the ego's neighbors Sample
// reads beyond the adjacency list itself (the content vectors a
// relevance score needs, or the adjacency lists a walk steps through),
// so BuildTree can fetch them for a whole frontier in one bulk read
// instead of leaving each Sample call to its own.
type Sampler interface {
	Name() string
	NeighborReads() graph.ReadFields
	Sample(g GraphView, ego graph.NodeID, focal tensor.Vec, k int, r *rng.RNG, sc *Scratch) []graph.Edge
}

// candidates applies the per-hop budget every sampler shares. With
// done it returns the sample itself: nothing for k <= 0 or an isolated
// ego, and every neighbor, in adjacency order, when there are at most k.
// Otherwise it returns the ego's adjacency list to choose k from.
func candidates(g GraphView, ego graph.NodeID, k int, sc *Scratch) (nbrs []graph.Edge, done bool) {
	if k <= 0 {
		return nil, true
	}
	nbrs = g.Neighbors(ego)
	if len(nbrs) == 0 {
		return nil, true
	}
	if len(nbrs) <= k {
		return append(sc.outBuf(len(nbrs)), nbrs...), true
	}
	return nbrs, false
}

// RelevanceFunc scores a neighbor's content against the focal vector.
type RelevanceFunc func(focal, neighbor tensor.Vec) float32

// FocalBiased is Zoomer's sampler: it scores every neighbor's content
// vector against the focal vector and keeps the top-k, deterministically
// preserving the neighbors most relevant to the request's focal interest.
// A nil Relevance selects the paper's eq. (5) score through a fused
// kernel that hoists the focal norm out of the neighbor loop.
type FocalBiased struct {
	Relevance RelevanceFunc
}

// NewFocalBiased returns the sampler with the paper's eq. (5) relevance.
func NewFocalBiased() *FocalBiased { return &FocalBiased{} }

// Name implements Sampler.
func (s *FocalBiased) Name() string { return "focal-biased" }

// NeighborReads implements Sampler: every neighbor's content is scored.
func (s *FocalBiased) NeighborReads() graph.ReadFields { return graph.ReadContent }

// Sample implements Sampler. With a nil focal it degrades to weight-ranked
// selection (relevance indistinguishable), keeping behavior total.
func (s *FocalBiased) Sample(g GraphView, ego graph.NodeID, focal tensor.Vec, k int, r *rng.RNG, sc *Scratch) []graph.Edge {
	nbrs, done := candidates(g, ego, k, sc)
	if done {
		return nbrs
	}
	ss := sc.scoredBuf(len(nbrs))
	if focal == nil {
		for i, e := range nbrs {
			ss[i] = scoredEdge{e, e.Weight}
		}
	} else if content := sc.neighborContent(g, nbrs); s.Relevance == nil {
		fsq := tensor.SqNorm(focal)
		for i, e := range nbrs {
			ss[i] = scoredEdge{e, tensor.TanimotoWithSqNorm(focal, fsq, content[i])}
		}
	} else {
		for i, e := range nbrs {
			ss[i] = scoredEdge{e, s.Relevance(focal, content[i])}
		}
	}
	return sc.topEdges(ss, k)
}

// Uniform is GraphSAGE's sampler: k neighbors uniformly without
// replacement (all neighbors when degree <= k).
type Uniform struct{}

// Name implements Sampler.
func (Uniform) Name() string { return "uniform" }

// NeighborReads implements Sampler: the adjacency list is all it reads.
func (Uniform) NeighborReads() graph.ReadFields { return 0 }

// Sample implements Sampler.
func (Uniform) Sample(g GraphView, ego graph.NodeID, _ tensor.Vec, k int, r *rng.RNG, sc *Scratch) []graph.Edge {
	nbrs, done := candidates(g, ego, k, sc)
	if done {
		return nbrs
	}
	// Partial Fisher-Yates over an index view.
	idx := sc.idxBuf(len(nbrs))
	for i := range idx {
		idx[i] = int32(i)
	}
	out := sc.outBuf(k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out = append(out, nbrs[idx[i]])
	}
	return out
}

// Weighted samples k neighbors with replacement proportionally to edge
// weight using an alias table, the O(1)-per-draw scheme of the paper's
// graph engine. Duplicates are collapsed, so fewer than k distinct
// neighbors may return.
type Weighted struct{}

// Name implements Sampler.
func (Weighted) Name() string { return "weighted" }

// NeighborReads implements Sampler: the adjacency list is all it reads.
func (Weighted) NeighborReads() graph.ReadFields { return 0 }

// Sample implements Sampler.
func (Weighted) Sample(g GraphView, ego graph.NodeID, _ tensor.Vec, k int, r *rng.RNG, sc *Scratch) []graph.Edge {
	nbrs, done := candidates(g, ego, k, sc)
	if done {
		return nbrs
	}
	weights, prob, aliasIx, stack := sc.aliasBufs(len(nbrs))
	for i, e := range nbrs {
		weights[i] = float64(e.Weight)
	}
	if err := alias.BuildInto(prob, aliasIx, weights, stack); err != nil {
		return Uniform{}.Sample(g, ego, nil, k, r, sc)
	}
	seen := sc.seenBuf(len(nbrs))
	out := sc.outBuf(k)
	for tries := 0; len(out) < k && tries < 4*k; tries++ {
		i := alias.SampleFrom(prob, aliasIx, r)
		if !seen[i] {
			seen[i] = true
			out = append(out, nbrs[i])
		}
	}
	return out
}

// ImportanceWalk is PinSage's sampler: short random walks from the ego
// estimate visit importance; the k most-visited neighbors are kept with
// their visit counts as weights.
type ImportanceWalk struct {
	Walks, Length int
}

// NewImportanceWalk returns the sampler with PinSage-like defaults.
func NewImportanceWalk() *ImportanceWalk { return &ImportanceWalk{Walks: 30, Length: 3} }

// Name implements Sampler.
func (s *ImportanceWalk) Name() string { return "importance-walk" }

// NeighborReads implements Sampler: a walk's second step reads the
// adjacency list of the neighbor its first step picked. Which ones the
// RNG picks no frontier read can anticipate, so all of them are read in
// bulk; lists deeper in the walks are read as the walks reach them.
func (s *ImportanceWalk) NeighborReads() graph.ReadFields { return graph.ReadNeighbors }

// Sample implements Sampler.
func (s *ImportanceWalk) Sample(g GraphView, ego graph.NodeID, _ tensor.Vec, k int, r *rng.RNG, sc *Scratch) []graph.Edge {
	nbrs, done := candidates(g, ego, k, sc)
	if done {
		return nbrs
	}
	sc.visitsFor(g.NumNodes())
	for w := 0; w < s.Walks; w++ {
		cur := ego
		for step := 0; step < s.Length; step++ {
			cn := g.Neighbors(cur)
			if len(cn) == 0 {
				break
			}
			cur = cn[r.Intn(len(cn))].To
			sc.visit(cur)
		}
	}
	return sc.topVisited(nbrs, k)
}

// BiasedWalk is Pixie's sampler: random walks whose edge choices are
// biased toward endpoints similar to the user's content vector, with
// per-walk early stopping.
type BiasedWalk struct {
	Walks, Length int
	Bias          float32 // mixing weight of the content bias in [0,1]
}

// NewBiasedWalk returns the sampler with Pixie-like defaults.
func NewBiasedWalk() *BiasedWalk { return &BiasedWalk{Walks: 30, Length: 4, Bias: 0.7} }

// Name implements Sampler.
func (s *BiasedWalk) Name() string { return "biased-walk" }

// NeighborReads implements Sampler: like ImportanceWalk's, the walks'
// second steps read the neighbors' adjacency lists. The content the
// biased steps compare is read as the walks reach it.
func (s *BiasedWalk) NeighborReads() graph.ReadFields { return graph.ReadNeighbors }

// Sample implements Sampler.
func (s *BiasedWalk) Sample(g GraphView, ego graph.NodeID, focal tensor.Vec, k int, r *rng.RNG, sc *Scratch) []graph.Edge {
	nbrs, done := candidates(g, ego, k, sc)
	if done {
		return nbrs
	}
	sc.visitsFor(g.NumNodes())
	for w := 0; w < s.Walks; w++ {
		cur := ego
		steps := 1 + r.Intn(s.Length) // early stopping
		for step := 0; step < steps; step++ {
			cn := g.Neighbors(cur)
			if len(cn) == 0 {
				break
			}
			// Pick two candidates; keep the one more similar to the focal
			// with probability Bias (cheap biased selection).
			a := cn[r.Intn(len(cn))]
			pick := a
			if focal != nil && r.Float32() < s.Bias {
				b := cn[r.Intn(len(cn))]
				if tensor.Cosine(focal, g.Content(b.To)) > tensor.Cosine(focal, g.Content(a.To)) {
					pick = b
				}
			}
			cur = pick.To
			sc.visit(cur)
		}
	}
	return sc.topVisited(nbrs, k)
}

// ClusterImportance is PinnerSage's sampler: neighbors are greedily
// clustered by content similarity; clusters are ranked by total edge
// weight (importance) and representatives are taken round-robin from the
// most important clusters, preserving multi-modal interests.
type ClusterImportance struct {
	// SimThreshold controls when a neighbor joins an existing cluster.
	SimThreshold float32
}

// NewClusterImportance returns the sampler with PinnerSage-like defaults.
func NewClusterImportance() *ClusterImportance { return &ClusterImportance{SimThreshold: 0.6} }

// Name implements Sampler.
func (s *ClusterImportance) Name() string { return "cluster-importance" }

// NeighborReads implements Sampler: every neighbor's content is clustered.
func (s *ClusterImportance) NeighborReads() graph.ReadFields { return graph.ReadContent }

// Sample implements Sampler. Clustering is inherently allocation-heavy
// (centroids are materialized per call); this sampler is an offline
// baseline, not a serving-path component, so it only borrows the
// scratch's output buffer.
func (s *ClusterImportance) Sample(g GraphView, ego graph.NodeID, _ tensor.Vec, k int, r *rng.RNG, sc *Scratch) []graph.Edge {
	nbrs, done := candidates(g, ego, k, sc)
	if done {
		return nbrs
	}
	type cluster struct {
		centroid tensor.Vec
		members  []graph.Edge
		weight   float64
	}
	var clusters []*cluster
	content := sc.neighborContent(g, nbrs)
	for i, e := range nbrs {
		c := content[i]
		if c == nil {
			c = tensor.NewVec(g.ContentDim())
		}
		var best *cluster
		var bestSim float32 = -2
		for _, cl := range clusters {
			if sim := tensor.Cosine(cl.centroid, c); sim > bestSim {
				bestSim, best = sim, cl
			}
		}
		if best == nil || bestSim < s.SimThreshold {
			clusters = append(clusters, &cluster{
				centroid: tensor.Copy(c),
				members:  []graph.Edge{e},
				weight:   float64(e.Weight),
			})
			continue
		}
		// Online centroid update.
		n := float32(len(best.members))
		for i := range best.centroid {
			best.centroid[i] = (best.centroid[i]*n + c[i]) / (n + 1)
		}
		best.members = append(best.members, e)
		best.weight += float64(e.Weight)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].weight > clusters[j].weight })
	// Heaviest members first within each cluster.
	for _, cl := range clusters {
		sort.Slice(cl.members, func(i, j int) bool { return cl.members[i].Weight > cl.members[j].Weight })
	}
	out := sc.outBuf(k)
	for round := 0; len(out) < k; round++ {
		advanced := false
		for _, cl := range clusters {
			if round < len(cl.members) {
				out = append(out, cl.members[round])
				advanced = true
				if len(out) == k {
					break
				}
			}
		}
		if !advanced {
			break
		}
	}
	return out
}

// Tree is a sampled multi-hop neighborhood rooted at an ego node: the ROI
// subgraph (for the focal-biased sampler) or a baseline's sampled
// neighborhood. Children[i] is the subtree hanging off Edges[i].
type Tree struct {
	Node     graph.NodeID
	Edges    []graph.Edge
	Children []*Tree
}

// AppendNodes appends every node of the tree (with multiplicity, parents
// before children) to ids.
func (t *Tree) AppendNodes(ids []graph.NodeID) []graph.NodeID {
	ids = append(ids, t.Node)
	for _, c := range t.Children {
		ids = c.AppendNodes(ids)
	}
	return ids
}

// BuildTree expands hops levels from ego with the given sampler and
// per-hop budget k. Focal biasing (when the sampler uses it) applies at
// every hop, matching the paper's ROI construction where relevance to the
// focal governs the whole sampled region.
//
// The tree is carved out of the caller's scratch arena, which is
// required: steady-state construction allocates nothing, and the tree
// stays valid until sc.Reset().
//
// Over a *ReadSet the expansion reads one level ahead: once a node's
// edges are sampled, everything its children's Sample calls will read is
// fetched in bulk before the first child is visited. The depth-first
// Sample order — and with it the RNG stream — is the same over any view.
func BuildTree(g GraphView, ego graph.NodeID, focal tensor.Vec, hops, k int, s Sampler, r *rng.RNG, sc *Scratch) *Tree {
	rs, _ := g.(*ReadSet)
	return buildTree(g, rs, ego, focal, hops, k, s, r, sc)
}

func buildTree(g GraphView, rs *ReadSet, ego graph.NodeID, focal tensor.Vec, hops, k int, s Sampler, r *rng.RNG, sc *Scratch) *Tree {
	t := sc.newTree(ego)
	if hops == 0 {
		return t
	}
	// The sampler's result lives in scratch buffers that the recursive
	// calls below will clobber; move it into the arena first.
	t.Edges = sc.cloneEdges(s.Sample(g, ego, focal, k, r, sc))
	t.Children = sc.kidSlice(len(t.Edges))
	if rs != nil && hops > 1 {
		rs.Expand(sc.edgeTargets(t.Edges), s.NeighborReads())
	}
	for i, e := range t.Edges {
		t.Children[i] = buildTree(g, rs, e.To, focal, hops-1, k, s, r, sc)
	}
	return t
}
