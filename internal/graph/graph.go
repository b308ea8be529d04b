// Package graph implements the heterogeneous retrieval graph of the paper
// (§II): typed nodes (user, query, item), typed weighted edges
// (interaction edges from clicks and sessions, similarity edges from
// MinHash Jaccard), per-node sparse categorical features for embedding
// lookups, and a dense content vector used by the focal-biased sampler's
// relevance score (eq. 5).
//
// Storage is CSR (compressed sparse row) built once by a Builder and
// immutable afterwards, which is what allows the engine package to shard
// and replicate it freely.
package graph

import (
	"fmt"
	"slices"

	"zoomer/internal/tensor"
)

// NodeType identifies the class of a node in the heterogeneous graph.
type NodeType uint8

// The node types of the Taobao retrieval graph. MovieLens-mode graphs
// reuse them as User/Tag(Query)/Movie(Item).
const (
	User NodeType = iota
	Query
	Item
	numNodeTypes
)

// NumNodeTypes is the count of distinct node types.
const NumNodeTypes = int(numNodeTypes)

// String returns the lowercase name of the node type.
func (t NodeType) String() string {
	switch t {
	case User:
		return "user"
	case Query:
		return "query"
	case Item:
		return "item"
	default:
		return fmt.Sprintf("nodetype(%d)", uint8(t))
	}
}

// EdgeType identifies the relation an edge encodes.
type EdgeType uint8

// Edge types per the paper's graph-construction rules: Click links a user
// to a query/item it interacted with and clicked items to their query;
// Session links adjacently clicked items; Similarity links content-similar
// nodes with Jaccard weights.
const (
	Click EdgeType = iota
	Session
	Similarity
	numEdgeTypes
)

// NumEdgeTypes is the count of distinct edge types.
const NumEdgeTypes = int(numEdgeTypes)

// String returns the lowercase name of the edge type.
func (t EdgeType) String() string {
	switch t {
	case Click:
		return "click"
	case Session:
		return "session"
	case Similarity:
		return "similarity"
	default:
		return fmt.Sprintf("edgetype(%d)", uint8(t))
	}
}

// NodeID is a graph-global node identifier.
type NodeID = int32

// Edge is one adjacency entry: the neighbor, the relation type and a
// non-negative weight (click counts or similarity scores).
type Edge struct {
	To     NodeID
	Type   EdgeType
	Weight float32
}

// Graph is an immutable heterogeneous graph in CSR form.
type Graph struct {
	types    []NodeType
	offsets  []int32 // len = numNodes+1
	edges    []Edge
	features [][]int32    // sparse categorical feature ids per node
	content  []tensor.Vec // dense content vector per node (may be nil rows)

	countByType [NumNodeTypes]int
	localIndex  []int32 // index of node within its type (0-based)
	contentDim  int
	edgesByType [NumEdgeTypes]int
}

// NumNodes returns the total node count.
func (g *Graph) NumNodes() int { return len(g.types) }

// NumEdges returns the total directed edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Type returns the node type of id.
func (g *Graph) Type(id NodeID) NodeType { return g.types[id] }

// LocalIndex returns the 0-based index of id among nodes of its type;
// embedding tables are per-type, so this is the embedding row.
func (g *Graph) LocalIndex(id NodeID) int32 { return g.localIndex[id] }

// Degree returns the out-degree of id.
func (g *Graph) Degree(id NodeID) int {
	return int(g.offsets[id+1] - g.offsets[id])
}

// Neighbors returns a read-only view of id's adjacency list.
func (g *Graph) Neighbors(id NodeID) []Edge {
	return g.edges[g.offsets[id]:g.offsets[id+1]]
}

// Features returns the sparse categorical feature ids of id.
func (g *Graph) Features(id NodeID) []int32 { return g.features[id] }

// Content returns the dense content vector of id (nil if absent).
func (g *Graph) Content(id NodeID) tensor.Vec { return g.content[id] }

// ContentDim returns the dimensionality of content vectors.
func (g *Graph) ContentDim() int { return g.contentDim }

// NodesOfType returns all node ids of the given type, in id order.
func (g *Graph) NodesOfType(t NodeType) []NodeID {
	out := make([]NodeID, 0, g.countByType[t])
	for id, nt := range g.types {
		if nt == t {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Stats summarizes the graph for logging and the graphgen tool.
type Stats struct {
	Nodes       int
	Edges       int
	NodesByType [NumNodeTypes]int
	EdgesByType [NumEdgeTypes]int
	MaxDegree   int
	MeanDegree  float64
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	for t := 0; t < NumNodeTypes; t++ {
		s.NodesByType[t] = g.countByType[t]
	}
	for t := 0; t < NumEdgeTypes; t++ {
		s.EdgesByType[t] = g.edgesByType[t]
	}
	for id := 0; id < g.NumNodes(); id++ {
		d := g.Degree(NodeID(id))
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	if g.NumNodes() > 0 {
		s.MeanDegree = float64(g.NumEdges()) / float64(g.NumNodes())
	}
	return s
}

// Builder accumulates nodes and edges and freezes them into a Graph.
// It is not safe for concurrent use.
type Builder struct {
	types      []NodeType
	features   [][]int32
	content    []tensor.Vec
	pairs      [][]stagedPair // full blocks of stageBlock pairs, then the open one
	frozen     bool
	contentDim int
}

// Edges are staged in fixed-size blocks, so a growing builder never
// copies what it already holds.
const stageBlock = 1 << 14

// stagedPair is one undirected edge as added, before Build splits it into
// its two directed edges, a→c then c→a.
type stagedPair struct {
	a, c   NodeID
	t      EdgeType
	weight float32
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// AddNode appends a node and returns its id. features are sparse
// categorical ids (embedding rows are resolved per type elsewhere);
// content is the dense content vector used for relevance scoring and may
// be nil.
func (b *Builder) AddNode(t NodeType, features []int32, content tensor.Vec) NodeID {
	if b.frozen {
		panic("graph: AddNode after Build")
	}
	id := NodeID(len(b.types))
	b.types = append(b.types, t)
	b.features = append(b.features, features)
	b.content = append(b.content, content)
	if len(content) > 0 {
		if b.contentDim == 0 {
			b.contentDim = len(content)
		} else if b.contentDim != len(content) {
			panic(fmt.Sprintf("graph: content dim %d != %d", len(content), b.contentDim))
		}
	}
	return id
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.types) }

// AddUndirected appends the edge in both directions. Weight must be
// non-negative.
func (b *Builder) AddUndirected(a, c NodeID, t EdgeType, weight float32) {
	if b.frozen {
		panic("graph: AddUndirected after Build")
	}
	if weight < 0 {
		panic("graph: negative edge weight")
	}
	if n := NodeID(len(b.types)); a >= n || c >= n || a < 0 || c < 0 {
		panic(fmt.Sprintf("graph: edge (%d,%d) references unknown node (have %d)", a, c, n))
	}
	if k := len(b.pairs); k == 0 || len(b.pairs[k-1]) == stageBlock {
		b.pairs = append(b.pairs, make([]stagedPair, 0, stageBlock))
	}
	block := &b.pairs[len(b.pairs)-1]
	*block = append(*block, stagedPair{a, c, t, weight})
}

// Build freezes the builder into an immutable CSR graph in O(E + N).
// Parallel edges between the same pair with the same type are merged by
// summing weights (repeated clicks accumulate, matching the paper's
// click-count weights), in the order the edges were added. Each node's
// adjacency is ordered by (To, Type).
func (b *Builder) Build() *Graph {
	if b.frozen {
		panic("graph: Build called twice")
	}
	b.frozen = true
	n := len(b.types)
	g := &Graph{
		types:      b.types,
		features:   b.features,
		content:    b.content,
		contentDim: b.contentDim,
	}

	// Two stable counting passes order the directed edges by (from, To,
	// Type). The first scatters them by (To, Type), keeping only each
	// edge's source and weight, since the position implies the key.
	numKeys := n * NumEdgeTypes
	key := func(to NodeID, t EdgeType) int { return int(to)*NumEdgeTypes + int(t) }
	keyStart := make([]int32, numKeys+1)
	for _, block := range b.pairs {
		for _, p := range block {
			keyStart[key(p.c, p.t)+1]++
			keyStart[key(p.a, p.t)+1]++
		}
	}
	for k := range numKeys {
		keyStart[k+1] += keyStart[k]
	}
	type half struct {
		from   NodeID
		weight float32
	}
	byKey := make([]half, keyStart[numKeys])
	next := slices.Clone(keyStart)
	for _, block := range b.pairs {
		for _, p := range block {
			k := key(p.c, p.t)
			byKey[next[k]] = half{p.a, p.weight}
			next[k]++
			k = key(p.a, p.t)
			byKey[next[k]] = half{p.c, p.weight}
			next[k]++
		}
	}
	b.pairs = nil

	// The second pass scatters by source into CSR rows, merging as it
	// goes: a node's row fills in key order, so a duplicate always lands
	// right after the edge it merges into. Each row is sized first, one
	// edge per distinct key among the node's edges; counted[from] holds
	// the last key (plus one) that counted from.
	offsets := make([]int32, n+1)
	counted := make([]int32, n)
	for k := range numKeys {
		for _, h := range byKey[keyStart[k]:keyStart[k+1]] {
			if counted[h.from] != int32(k+1) {
				counted[h.from] = int32(k + 1)
				offsets[h.from+1]++
			}
		}
	}
	for id := range n {
		offsets[id+1] += offsets[id]
	}
	next = next[:n]
	copy(next, offsets)
	edges := make([]Edge, offsets[n])
	for k := range numKeys {
		e := Edge{To: NodeID(k / NumEdgeTypes), Type: EdgeType(k % NumEdgeTypes)}
		for _, h := range byKey[keyStart[k]:keyStart[k+1]] {
			if at := next[h.from]; at > offsets[h.from] && edges[at-1].To == e.To && edges[at-1].Type == e.Type {
				edges[at-1].Weight += h.weight
			} else {
				e.Weight = h.weight
				edges[at] = e
				next[h.from]++
			}
		}
	}
	g.offsets = offsets
	g.edges = edges
	g.index()
	return g
}

// index derives the per-type counts and embedding rows from the node
// types and edges — what a graph carries beyond its serialized arrays.
func (g *Graph) index() {
	g.localIndex = make([]int32, len(g.types))
	for id, t := range g.types {
		g.localIndex[id] = int32(g.countByType[t])
		g.countByType[t]++
	}
	for _, e := range g.edges {
		g.edgesByType[e.Type]++
	}
}
