package graph

import "zoomer/internal/tensor"

// ReadFields selects which per-node attributes a bulk read returns.
type ReadFields uint8

// The attributes a node store serves: the adjacency list, the sparse
// categorical features and the dense content vector.
const (
	ReadNeighbors ReadFields = 1 << iota
	ReadFeatures
	ReadContent

	ReadAll = ReadNeighbors | ReadFeatures | ReadContent
)

// NodeBlock receives one bulk node read: entry i of each requested
// column belongs to the i-th requested id. An in-memory store fills the
// columns with views of its own immutable arrays; a store that has to
// copy (a decoded RPC response) carves the copies out of the block's
// arenas. Either way the slices stay valid until Reset — a new read into
// the same block replaces the columns but never moves data handed out
// earlier, because a full arena chunk is abandoned to its slices rather
// than regrown in place.
//
// Not safe for concurrent use.
type NodeBlock struct {
	Neighbors [][]Edge
	Features  [][]int32
	Content   []tensor.Vec

	edges  []Edge
	ints   []int32
	floats []float32
}

// Resize sizes the requested columns for n nodes and empties the others.
// Entries are not cleared: the read that follows overwrites every one.
func (b *NodeBlock) Resize(n int, fields ReadFields) {
	b.Neighbors = column(b.Neighbors, n, fields&ReadNeighbors != 0)
	b.Features = column(b.Features, n, fields&ReadFeatures != 0)
	b.Content = column(b.Content, n, fields&ReadContent != 0)
}

func column[T any](col []T, n int, want bool) []T {
	if !want {
		return col[:0]
	}
	if cap(col) < n {
		return make([]T, n)
	}
	return col[:n]
}

// Reset recycles the arenas. Every slice a read into this block handed
// out is invalidated.
func (b *NodeBlock) Reset() {
	b.edges, b.ints, b.floats = b.edges[:0], b.ints[:0], b.floats[:0]
}

// CarveEdges returns n fresh edges of arena storage.
func (b *NodeBlock) CarveEdges(n int) []Edge { return carve(&b.edges, n) }

// CarveInts returns n fresh int32s of arena storage.
func (b *NodeBlock) CarveInts(n int) []int32 { return carve(&b.ints, n) }

// CarveFloats returns n fresh float32s of arena storage.
func (b *NodeBlock) CarveFloats(n int) []float32 { return carve(&b.floats, n) }

// carve takes n elements off the arena's tail. A chunk too small for the
// request is left to the slices already carved from it and replaced by
// one at least twice its size, so a block reused across reads settles on
// a single chunk that fits a whole read and stops allocating.
func carve[T any](arena *[]T, n int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(n, 2*cap(a)))
	}
	lo := len(a)
	a = a[:lo+n]
	*arena = a
	return a[lo : lo+n : lo+n]
}

// ReadNodes fills into with the requested attributes of ids: zero-copy
// views of the graph's own arrays.
func (g *Graph) ReadNodes(ids []NodeID, fields ReadFields, into *NodeBlock) {
	into.Resize(len(ids), fields)
	if fields&ReadNeighbors != 0 {
		for i, id := range ids {
			into.Neighbors[i] = g.edges[g.offsets[id]:g.offsets[id+1]]
		}
	}
	if fields&ReadFeatures != 0 {
		for i, id := range ids {
			into.Features[i] = g.features[id]
		}
	}
	if fields&ReadContent != 0 {
		for i, id := range ids {
			into.Content[i] = g.content[id]
		}
	}
}
