package sampling

import (
	"zoomer/internal/graph"
	"zoomer/internal/tensor"
)

// ReadSet is a GraphView that remembers what it has read: every
// attribute of every node is fetched from the underlying view at most
// once, so the reads one forward pass repeats — a hub's content scored
// under a dozen egos, a tree node embedded after it was sampled — cost a
// slice index, and the reads it can foresee (Prefetch, and BuildForest's
// per-level expand) arrive in bulk. It is scoped to one training or
// inference step over a graph that does not change underneath it:
// nothing is evicted or invalidated until Reset empties the whole set for
// the next step.
//
// Remembered slices are the underlying view's own (an in-memory graph's
// arrays, or one decoded copy per remote read); the set never copies.
// Not safe for concurrent use.
type ReadSet struct {
	g      GraphView
	typeOf func(graph.NodeID) graph.NodeType

	slot  []int32 // node id -> 1 + index into nodes; 0 = nothing read yet
	nodes []nodeAttrs

	// blk receives every bulk fetch. Only Reset recycles its arenas,
	// which is what keeps the slices copied out of it valid until then.
	blk  graph.NodeBlock
	miss []graph.NodeID
	ids  []graph.NodeID // expand's staging
}

// nodeAttrs is what the set holds for one node; have marks which of the
// attributes are present (an absent content vector is a present nil).
type nodeAttrs struct {
	id       graph.NodeID
	have     graph.ReadFields
	nbrs     []graph.Edge
	features []int32
	content  tensor.Vec
}

// NewReadSet returns an empty read set over g. typeOf answers Type —
// node types are arithmetic on the id, not a stored attribute, so they
// pass through — and may be nil when Type is never called.
func NewReadSet(g GraphView, typeOf func(graph.NodeID) graph.NodeType) *ReadSet {
	return &ReadSet{g: g, typeOf: typeOf, slot: make([]int32, g.NumNodes())}
}

// at returns id's entry, creating it on first touch. The pointer is
// valid until the next at call for an untouched id.
func (rs *ReadSet) at(id graph.NodeID) *nodeAttrs {
	if s := rs.slot[id]; s != 0 {
		return &rs.nodes[s-1]
	}
	rs.nodes = append(rs.nodes, nodeAttrs{id: id})
	rs.slot[id] = int32(len(rs.nodes))
	return &rs.nodes[len(rs.nodes)-1]
}

// Reset empties the set for the next step while keeping its storage:
// only the slots of nodes read since the last Reset are cleared, and the
// fetch block's arenas are recycled. Every slice the set handed out is
// invalidated.
func (rs *ReadSet) Reset() {
	for i := range rs.nodes {
		rs.slot[rs.nodes[i].id] = 0
	}
	rs.nodes = rs.nodes[:0]
	rs.blk.Reset()
}

// NumNodes implements GraphView.
func (rs *ReadSet) NumNodes() int { return len(rs.slot) }

// ContentDim implements GraphView.
func (rs *ReadSet) ContentDim() int { return rs.g.ContentDim() }

// Type returns the node's type.
func (rs *ReadSet) Type(id graph.NodeID) graph.NodeType { return rs.typeOf(id) }

// Neighbors implements GraphView.
func (rs *ReadSet) Neighbors(id graph.NodeID) []graph.Edge {
	n := rs.at(id)
	if n.have&graph.ReadNeighbors == 0 {
		n.nbrs = rs.g.Neighbors(id)
		n.have |= graph.ReadNeighbors
	}
	return n.nbrs
}

// Content implements GraphView.
func (rs *ReadSet) Content(id graph.NodeID) tensor.Vec {
	n := rs.at(id)
	if n.have&graph.ReadContent == 0 {
		n.content = rs.g.Content(id)
		n.have |= graph.ReadContent
	}
	return n.content
}

// Features returns the node's categorical feature ids.
func (rs *ReadSet) Features(id graph.NodeID) []int32 {
	if rs.at(id).have&graph.ReadFeatures == 0 {
		rs.Prefetch([]graph.NodeID{id}, graph.ReadFeatures)
	}
	return rs.at(id).features
}

// ReadNodes implements GraphView: whatever is missing is fetched in one
// bulk read, then the block is filled from the set.
func (rs *ReadSet) ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) {
	rs.Prefetch(ids, fields)
	into.Resize(len(ids), fields)
	for i, id := range ids {
		n := &rs.nodes[rs.slot[id]-1]
		if fields&graph.ReadNeighbors != 0 {
			into.Neighbors[i] = n.nbrs
		}
		if fields&graph.ReadFeatures != 0 {
			into.Features[i] = n.features
		}
		if fields&graph.ReadContent != 0 {
			into.Content[i] = n.content
		}
	}
}

// Prefetch reads fields of every listed node the set does not hold them
// for yet, in one bulk read of the underlying view. Duplicate ids and
// ids already read cost nothing.
func (rs *ReadSet) Prefetch(ids []graph.NodeID, fields graph.ReadFields) {
	rs.miss = rs.miss[:0]
	for _, id := range ids {
		if n := rs.at(id); n.have&fields != fields {
			n.have |= fields // claims the id: a duplicate later in ids is skipped
			rs.miss = append(rs.miss, id)
		}
	}
	if len(rs.miss) == 0 {
		return
	}
	rs.g.ReadNodes(rs.miss, fields, &rs.blk)
	for i, id := range rs.miss {
		n := &rs.nodes[rs.slot[id]-1]
		if fields&graph.ReadNeighbors != 0 {
			n.nbrs = rs.blk.Neighbors[i]
		}
		if fields&graph.ReadFeatures != 0 {
			n.features = rs.blk.Features[i]
		}
		if fields&graph.ReadContent != 0 {
			n.content = rs.blk.Content[i]
		}
	}
}

// expand readies the set for sampling every node of a level: their
// adjacency lists in one bulk read, then — when the sampler scores
// neighbors by nbrFields (Sampler.neighborReads) — those attributes of
// every listed neighbor in a second.
func (rs *ReadSet) expand(level []branch, nbrFields graph.ReadFields) {
	rs.ids = rs.ids[:0]
	for _, b := range level {
		rs.ids = append(rs.ids, b.t.Node)
	}
	rs.Prefetch(rs.ids, graph.ReadNeighbors)
	if nbrFields == 0 {
		return
	}
	rs.ids = rs.ids[:0]
	for _, b := range level {
		for _, e := range rs.nodes[rs.slot[b.t.Node]-1].nbrs {
			rs.ids = append(rs.ids, e.To)
		}
	}
	rs.Prefetch(rs.ids, nbrFields)
}
