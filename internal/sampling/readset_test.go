package sampling

import (
	"testing"

	"zoomer/internal/graph"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// randomGraph builds a connected-ish random graph with a few hubs, so
// neighborhoods overlap and the same nodes are read under many egos.
func randomGraph(n int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		c := tensor.Vec{r.Float32(), r.Float32(), r.Float32(), r.Float32()}
		b.AddNode(graph.NodeType(i%graph.NumNodeTypes), []int32{int32(i), int32(i % 7)}, c)
	}
	for i := 0; i < n; i++ {
		deg := 2 + r.Intn(12)
		if i%17 == 0 {
			deg = 60 // hub
		}
		for d := 0; d < deg; d++ {
			b.AddUndirected(graph.NodeID(i), graph.NodeID(r.Intn(n)), graph.EdgeType(r.Intn(graph.NumEdgeTypes)), 0.5+r.Float32())
		}
	}
	return b.Build()
}

// countingView counts the underlying reads a view serves, per node.
type countingView struct {
	*graph.Graph
	singles      int
	bulks        int
	contentReads map[graph.NodeID]int
	nbrReads     map[graph.NodeID]int
}

func newCountingView(g *graph.Graph) *countingView {
	return &countingView{Graph: g, contentReads: map[graph.NodeID]int{}, nbrReads: map[graph.NodeID]int{}}
}

func (v *countingView) Neighbors(id graph.NodeID) []graph.Edge {
	v.singles++
	v.nbrReads[id]++
	return v.Graph.Neighbors(id)
}

func (v *countingView) Content(id graph.NodeID) tensor.Vec {
	v.singles++
	v.contentReads[id]++
	return v.Graph.Content(id)
}

func (v *countingView) ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) {
	v.bulks++
	for _, id := range ids {
		if fields&graph.ReadNeighbors != 0 {
			v.nbrReads[id]++
		}
		if fields&graph.ReadContent != 0 {
			v.contentReads[id]++
		}
	}
	v.Graph.ReadNodes(ids, fields, into)
}

func treesEqual(a, b *Tree) bool {
	if a.Node != b.Node || len(a.Edges) != len(b.Edges) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] || !treesEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// A read set answers every read exactly as the view under it does, and
// goes back to that view at most once per node and attribute.
func TestReadSetMemoizes(t *testing.T) {
	g := randomGraph(120, 1)
	cv := newCountingView(g)
	rs := NewReadSet(cv, g.Type)
	if rs.NumNodes() != g.NumNodes() || rs.ContentDim() != g.ContentDim() {
		t.Fatalf("shape %d/%d", rs.NumNodes(), rs.ContentDim())
	}
	for pass := 0; pass < 3; pass++ {
		for id := graph.NodeID(0); int(id) < g.NumNodes(); id += 3 {
			if a, b := rs.Neighbors(id), g.Neighbors(id); len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
				t.Fatalf("node %d: neighbors are not the graph's own slice", id)
			}
			if a, b := rs.Content(id), g.Content(id); len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
				t.Fatalf("node %d: content is not the graph's own slice", id)
			}
			if a, b := rs.Features(id), g.Features(id); len(a) != len(b) || &a[0] != &b[0] {
				t.Fatalf("node %d: features are not the graph's own slice", id)
			}
			if rs.Type(id) != g.Type(id) {
				t.Fatalf("node %d: type", id)
			}
		}
	}
	for id, n := range cv.contentReads {
		if n != 1 || cv.nbrReads[id] != 1 {
			t.Fatalf("node %d fetched %d/%d times across three passes", id, n, cv.nbrReads[id])
		}
	}

	// Bulk reads: duplicates, already-held nodes and new ones in one call
	// cost one underlying read that lists each missing node once.
	cv.bulks = 0
	ids := []graph.NodeID{1, 0, 1, 3, 2, 2, 0}
	var blk graph.NodeBlock
	rs.ReadNodes(ids, graph.ReadContent|graph.ReadNeighbors, &blk)
	if cv.bulks != 1 {
		t.Fatalf("%d underlying bulk reads, want 1", cv.bulks)
	}
	for i, id := range ids {
		if len(blk.Neighbors[i]) != g.Degree(id) || len(blk.Content[i]) != len(g.Content(id)) {
			t.Fatalf("entry %d (node %d) wrong", i, id)
		}
	}
	for _, id := range []graph.NodeID{0, 1, 2, 3} {
		if cv.contentReads[id] != 1 {
			t.Fatalf("node %d content fetched %d times", id, cv.contentReads[id])
		}
	}
	rs.ReadNodes(ids, graph.ReadContent, &blk)
	rs.Prefetch(ids, graph.ReadNeighbors)
	if cv.bulks != 1 {
		t.Fatal("a fully held read went back to the underlying view")
	}
	if len(blk.Neighbors) != 0 || len(blk.Content) != len(ids) {
		t.Fatalf("columns sized %d/%d for a content-only read", len(blk.Neighbors), len(blk.Content))
	}
}

// BuildTree over a read set samples exactly what it samples over the
// bare graph — same tree, same RNG state afterwards — for every sampler
// and for one to three hops, while replacing the per-node reads with a
// handful of bulk ones that fetch no node's content twice.
func TestBuildTreeOverReadSetIsBitIdentical(t *testing.T) {
	g := randomGraph(300, 2)
	focal := tensor.Vec{0.3, 0.1, 0.9, 0.4}
	for _, s := range allSamplers() {
		for hops := 1; hops <= 3; hops++ {
			for _, ego := range []graph.NodeID{0, 17, 5, 123} {
				rw, rg := rng.New(uint64(ego)+9), rng.New(uint64(ego)+9)
				want := BuildTree(g, ego, focal, hops, 4, s, rw, NewScratch())
				cv := newCountingView(g)
				got := BuildTree(NewReadSet(cv, nil), ego, focal, hops, 4, s, rg, NewScratch())
				if !treesEqual(want, got) {
					t.Fatalf("%s hops=%d ego=%d: tree differs over the read set", s.Name(), hops, ego)
				}
				if rw.State() != rg.State() {
					t.Fatalf("%s hops=%d ego=%d: RNG consumed differently", s.Name(), hops, ego)
				}
				for id, n := range cv.contentReads {
					if n > 1 {
						t.Fatalf("%s hops=%d ego=%d: node %d content fetched %d times", s.Name(), hops, ego, id, n)
					}
				}
				for id, n := range cv.nbrReads {
					if n > 1 {
						t.Fatalf("%s hops=%d ego=%d: node %d adjacency fetched %d times", s.Name(), hops, ego, id, n)
					}
				}
			}
		}
	}
}

// The focal-biased tree reads a frontier at a time: per interior node one
// bulk read for its children's adjacency and one for their candidates'
// content, instead of one read per candidate.
func TestBuildTreeReadsFrontiersInBulk(t *testing.T) {
	g := randomGraph(300, 3)
	cv := newCountingView(g)
	rs := NewReadSet(cv, nil)
	tree := BuildTree(rs, 17, tensor.Vec{1, 0, 0, 1}, 2, 5, NewFocalBiased(), rng.New(4), NewScratch())
	if tree.Size() < 1+5+5 {
		t.Fatalf("tree has %d nodes", tree.Size())
	}
	// Root: its adjacency (single read) and its candidates' content (one
	// bulk). Then one Expand for the five children: two bulks.
	if cv.singles != 1 || cv.bulks != 3 {
		t.Fatalf("2-hop tree took %d single and %d bulk reads, want 1 and 3", cv.singles, cv.bulks)
	}
}
