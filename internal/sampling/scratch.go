package sampling

import (
	"zoomer/internal/graph"
	"zoomer/internal/tensor"
)

// scoredEdge pairs an adjacency edge with its selection score. Walk
// samplers store visit counts in the score (float32 is exact for counts
// below 2^24, far beyond any walk budget).
type scoredEdge struct {
	e     graph.Edge
	score float32
}

// branch is a tree node to sample, with its region's focal vector.
type branch struct {
	t     *Tree
	focal tensor.Vec
}

// Scratch holds every reusable buffer the samplers and BuildForest need, so
// steady-state ROI construction performs no heap allocation: scoring and
// selection buffers, slice-backed visit counters for the walk samplers,
// alias-construction workspace, and an arena for the sampled trees.
//
// A Scratch is not safe for concurrent use; give each worker its own,
// exactly like *rng.RNG. Slices returned by Sample are backed by the
// Scratch and remain valid only until its next Sample call; trees
// returned by BuildForest are backed by the arena and remain valid until
// Reset. The scratch is required: every call takes one the caller owns,
// and a nil *Scratch panics at first use.
type Scratch struct {
	scored []scoredEdge
	out    []graph.Edge
	idx    []int32
	seen   []bool

	// Slice-backed visit counters (len = graph.NumNodes()). Entries are
	// zero between calls; touched lists the ids to reset.
	visits  []int32
	touched []graph.NodeID

	// Bulk-read staging: the ids of an adjacency list and the block their
	// attributes land in.
	ids []graph.NodeID
	blk graph.NodeBlock

	// Weighted-sampler alias workspace.
	weights []float64
	prob    []float64
	aliasIx []int32
	stack   []int32

	// Tree arena: node pool plus edge and child backing storage, recycled
	// by Reset.
	trees     []*Tree
	treesUsed int
	edgeArena []graph.Edge
	kidArena  []*Tree

	// BuildForest's level being sampled and the one it fills.
	level, next []branch
}

// NewScratch returns an empty scratch; buffers are grown on first use and
// reused afterwards.
func NewScratch() *Scratch { return &Scratch{} }

// Reset recycles the tree arena. All trees previously returned from
// BuildForest with this scratch are invalidated; per-sampler buffers need
// no reset and are excluded.
func (sc *Scratch) Reset() {
	sc.treesUsed = 0
	sc.edgeArena = sc.edgeArena[:0]
	sc.kidArena = sc.kidArena[:0]
}

func (sc *Scratch) scoredBuf(n int) []scoredEdge {
	if cap(sc.scored) < n {
		sc.scored = make([]scoredEdge, n)
	}
	sc.scored = sc.scored[:n]
	return sc.scored
}

func (sc *Scratch) outBuf(n int) []graph.Edge {
	if cap(sc.out) < n {
		sc.out = make([]graph.Edge, 0, n)
	}
	return sc.out[:0]
}

func (sc *Scratch) idxBuf(n int) []int32 {
	if cap(sc.idx) < n {
		sc.idx = make([]int32, n)
	}
	sc.idx = sc.idx[:n]
	return sc.idx
}

func (sc *Scratch) seenBuf(n int) []bool {
	if cap(sc.seen) < n {
		sc.seen = make([]bool, n)
	}
	s := sc.seen[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// neighborContent reads the content vector of every neighbor in one bulk
// read; entry i belongs to nbrs[i]. Valid until the next call.
func (sc *Scratch) neighborContent(g GraphView, nbrs []graph.Edge) []tensor.Vec {
	sc.ids = sc.ids[:0]
	for _, e := range nbrs {
		sc.ids = append(sc.ids, e.To)
	}
	sc.blk.Reset()
	g.ReadNodes(sc.ids, graph.ReadContent, &sc.blk)
	return sc.blk.Content
}

// visitsFor sizes the zeroed visit counters for an n-node graph. A walk
// bumps them via visit and hands them to topVisited, which zeroes them
// again before the sampler returns.
func (sc *Scratch) visitsFor(n int) {
	if cap(sc.visits) < n {
		sc.visits = make([]int32, n)
	}
	sc.visits = sc.visits[:n]
	sc.touched = sc.touched[:0]
}

func (sc *Scratch) visit(id graph.NodeID) {
	if sc.visits[id] == 0 {
		sc.touched = append(sc.touched, id)
	}
	sc.visits[id]++
}

// topVisited returns the k most-visited of nbrs (len(nbrs) > k), best
// first, and resets every counter the walk touched.
func (sc *Scratch) topVisited(nbrs []graph.Edge, k int) []graph.Edge {
	ss := sc.scoredBuf(len(nbrs))
	for i, e := range nbrs {
		ss[i] = scoredEdge{e, float32(sc.visits[e.To])}
	}
	for _, id := range sc.touched {
		sc.visits[id] = 0
	}
	sc.touched = sc.touched[:0]
	return sc.topEdges(ss, k)
}

// topEdges selects the k highest-scoring entries of ss and returns their
// edges, best first, in the output buffer.
func (sc *Scratch) topEdges(ss []scoredEdge, k int) []graph.Edge {
	topKScored(ss, k)
	out := sc.outBuf(k)
	for i := 0; i < k; i++ {
		out = append(out, ss[i].e)
	}
	return out
}

func (sc *Scratch) aliasBufs(n int) (weights, prob []float64, aliasIx, stack []int32) {
	if cap(sc.weights) < n {
		sc.weights = make([]float64, n)
		sc.prob = make([]float64, n)
		sc.aliasIx = make([]int32, n)
		sc.stack = make([]int32, n)
	}
	return sc.weights[:n], sc.prob[:n], sc.aliasIx[:n], sc.stack[:n]
}

// newTree hands out a pooled tree node. Pointers stay valid across pool
// growth; Reset recycles them. The pool grows a slab at a time — a batch
// of trees that all stay live until Reset costs a handful of
// allocations, not one per node.
func (sc *Scratch) newTree(id graph.NodeID) *Tree {
	if sc.treesUsed == len(sc.trees) {
		slab := make([]Tree, max(16, len(sc.trees)))
		for i := range slab {
			sc.trees = append(sc.trees, &slab[i])
		}
	}
	t := sc.trees[sc.treesUsed]
	sc.treesUsed++
	*t = Tree{Node: id}
	return t
}

// cloneEdges copies a sampler's scratch-backed result into the arena so
// the next Sample call cannot clobber it. The returned slice is capped,
// so appends by callers cannot bleed into later arena regions.
func (sc *Scratch) cloneEdges(es []graph.Edge) []graph.Edge {
	if len(es) == 0 {
		return nil
	}
	n := len(sc.edgeArena)
	sc.edgeArena = append(sc.edgeArena, es...)
	return sc.edgeArena[n : n+len(es) : n+len(es)]
}

// kidSlice carves a child-pointer slice out of the arena.
func (sc *Scratch) kidSlice(n int) []*Tree {
	if n == 0 {
		return nil
	}
	m := len(sc.kidArena)
	for i := 0; i < n; i++ {
		sc.kidArena = append(sc.kidArena, nil)
	}
	return sc.kidArena[m : m+n : m+n]
}

// topKScored partially selects the k highest-scoring entries of ss into
// ss[:k], best first (ties broken by edge weight), in O(len(ss)·log k): a
// bounded min-heap over the current best k replaces the full sort.Slice
// the samplers used to pay for.
func topKScored(ss []scoredEdge, k int) {
	if k >= len(ss) {
		k = len(ss)
	}
	if k <= 0 {
		return
	}
	h := ss[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for i := k; i < len(ss); i++ {
		if scoredLess(h[0], ss[i]) {
			h[0] = ss[i]
			siftDown(h, 0)
		}
	}
	// Heap-sort the winners: popping the min to the back leaves ss[:k]
	// ordered best first.
	for n := k - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDown(h[:n], 0)
	}
}

// scoredLess reports whether a ranks strictly below b.
func scoredLess(a, b scoredEdge) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.e.Weight < b.e.Weight
}

func siftDown(h []scoredEdge, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && scoredLess(h[r], h[l]) {
			m = r
		}
		if !scoredLess(h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
