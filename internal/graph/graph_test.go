package graph

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

func buildTriangle(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	u := b.AddNode(User, []int32{1}, tensor.Vec{1, 0})
	q := b.AddNode(Query, []int32{2}, tensor.Vec{0, 1})
	i := b.AddNode(Item, []int32{3}, tensor.Vec{1, 1})
	b.AddUndirected(u, q, Click, 1)
	b.AddUndirected(q, i, Click, 2)
	b.AddUndirected(u, i, Session, 0.5)
	return b.Build()
}

func TestBasicTopology(t *testing.T) {
	g := buildTriangle(t)
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if g.Type(0) != User || g.Type(1) != Query || g.Type(2) != Item {
		t.Fatal("node types wrong")
	}
	if g.Degree(0) != 2 || g.Degree(1) != 2 || g.Degree(2) != 2 {
		t.Fatal("degrees wrong")
	}
	st := g.Stats()
	if st.NodesByType[User] != 1 || st.NodesByType[Item] != 1 {
		t.Fatal("per-type counts wrong")
	}
	if st.EdgesByType[Click] != 4 || st.EdgesByType[Session] != 2 {
		t.Fatal("per-edge-type counts wrong")
	}
}

func TestFeaturesAndContent(t *testing.T) {
	g := buildTriangle(t)
	if g.Features(1)[0] != 2 {
		t.Fatal("features lost")
	}
	if g.Content(2)[0] != 1 || g.Content(2)[1] != 1 {
		t.Fatal("content lost")
	}
	if g.ContentDim() != 2 {
		t.Fatalf("content dim = %d", g.ContentDim())
	}
}

func TestLocalIndex(t *testing.T) {
	b := NewBuilder()
	b.AddNode(User, nil, nil) // user 0
	b.AddNode(Item, nil, nil) // item 0
	b.AddNode(User, nil, nil) // user 1
	b.AddNode(Item, nil, nil) // item 1
	b.AddNode(Item, nil, nil) // item 2
	g := b.Build()
	wants := []int32{0, 0, 1, 1, 2}
	for id, want := range wants {
		if g.LocalIndex(NodeID(id)) != want {
			t.Fatalf("LocalIndex(%d) = %d, want %d", id, g.LocalIndex(NodeID(id)), want)
		}
	}
}

func TestDuplicateEdgesMerge(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode(User, nil, nil)
	c := b.AddNode(Item, nil, nil)
	// Three clicks on the same item must merge into weight 3.
	b.AddUndirected(a, c, Click, 1)
	b.AddUndirected(c, a, Click, 1)
	b.AddUndirected(a, c, Click, 1)
	// A similarity edge to the same node stays separate (different type).
	b.AddUndirected(a, c, Similarity, 0.4)
	g := b.Build()
	nbrs := g.Neighbors(a)
	if len(nbrs) != 2 {
		t.Fatalf("expected 2 merged edges, got %d: %v", len(nbrs), nbrs)
	}
	var clickW, simW float32
	for _, e := range nbrs {
		switch e.Type {
		case Click:
			clickW = e.Weight
		case Similarity:
			simW = e.Weight
		}
	}
	if clickW != 3 {
		t.Fatalf("merged click weight = %v, want 3", clickW)
	}
	if simW != 0.4 {
		t.Fatalf("similarity weight = %v", simW)
	}
}

func TestNodesOfType(t *testing.T) {
	g := buildTriangle(t)
	items := g.NodesOfType(Item)
	if len(items) != 1 || items[0] != 2 {
		t.Fatalf("NodesOfType(Item) = %v", items)
	}
}

func TestStats(t *testing.T) {
	g := buildTriangle(t)
	s := g.Stats()
	if s.Nodes != 3 || s.Edges != 6 || s.MaxDegree != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MeanDegree != 2 {
		t.Fatalf("mean degree = %v", s.MeanDegree)
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder()
	b.AddNode(User, nil, nil)
	b.Build()
	mustPanic(t, func() { b.AddNode(User, nil, nil) })
	mustPanic(t, func() { b.AddUndirected(0, 0, Click, 1) })
	mustPanic(t, func() { b.Build() })

	b2 := NewBuilder()
	b2.AddNode(User, nil, nil)
	mustPanic(t, func() { b2.AddUndirected(0, 5, Click, 1) })
	mustPanic(t, func() { b2.AddUndirected(5, 0, Click, 1) })
	mustPanic(t, func() { b2.AddUndirected(0, 0, Click, -1) })

	b3 := NewBuilder()
	b3.AddNode(User, nil, tensor.Vec{1, 2})
	mustPanic(t, func() { b3.AddNode(User, nil, tensor.Vec{1, 2, 3}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestTypeStrings(t *testing.T) {
	if User.String() != "user" || Query.String() != "query" || Item.String() != "item" {
		t.Fatal("node type strings wrong")
	}
	if Click.String() != "click" || Session.String() != "session" || Similarity.String() != "similarity" {
		t.Fatal("edge type strings wrong")
	}
	if NodeType(9).String() == "" || EdgeType(9).String() == "" {
		t.Fatal("unknown types must still print")
	}
}

// Property: for random graphs, CSR preserves every (merged) edge and
// offsets are monotone.
func TestCSRInvariants(t *testing.T) {
	r := rng.New(77)
	if err := quick.Check(func(seed uint32) bool {
		n := 2 + int(seed%30)
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode(NodeType(i%NumNodeTypes), nil, nil)
		}
		m := r.Intn(4 * n)
		type key struct {
			from, to NodeID
			et       EdgeType
		}
		want := map[key]float32{}
		for i := 0; i < m; i++ {
			from := NodeID(r.Intn(n))
			to := NodeID(r.Intn(n))
			et := EdgeType(r.Intn(NumEdgeTypes))
			w := r.Float32()
			b.AddUndirected(from, to, et, w)
			want[key{from, to, et}] += w
			want[key{to, from, et}] += w
		}
		g := b.Build()
		// Every merged edge present exactly once with summed weight.
		got := map[key]float32{}
		for id := 0; id < n; id++ {
			prev := key{-1, -1, 0}
			for _, e := range g.Neighbors(NodeID(id)) {
				k := key{NodeID(id), e.To, e.Type}
				if k == prev {
					return false // duplicate not merged
				}
				prev = k
				got[k] = e.Weight
			}
		}
		if len(got) != len(want) {
			return false
		}
		for k, w := range want {
			gw, ok := got[k]
			if !ok {
				return false
			}
			diff := gw - w
			if diff < -1e-4 || diff > 1e-4 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// referenceCSR is the freeze Build replaced, kept as the reference it is
// tested against: a counting sort of the directed edges by source, then
// each node's run sorted by (To, Type) and coalesced by summing weights.
// sort.Slice is not stable, so it sums duplicates in an unspecified order.
func referenceCSR(n int, srcs []NodeID, adds []Edge) ([]int32, []Edge) {
	offsets := make([]int32, n+1)
	for _, s := range srcs {
		offsets[s+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	edges := make([]Edge, len(adds))
	cursor := slices.Clone(offsets[:n])
	for i, s := range srcs {
		edges[cursor[s]] = adds[i]
		cursor[s]++
	}
	out := edges[:0]
	merged := make([]int32, n+1)
	for id := 0; id < n; id++ {
		run := edges[offsets[id]:offsets[id+1]]
		sort.Slice(run, func(i, j int) bool {
			if run[i].To != run[j].To {
				return run[i].To < run[j].To
			}
			return run[i].Type < run[j].Type
		})
		start := len(out)
		for _, e := range run {
			if m := len(out); m > start && out[m-1].To == e.To && out[m-1].Type == e.Type {
				out[m-1].Weight += e.Weight
			} else {
				out = append(out, e)
			}
		}
		merged[id+1] = int32(len(out))
	}
	return merged, out
}

// Property: on random multigraphs with integer weights, whose sums are
// exact in any order, Build equals the reference edge for edge and offset
// for offset. The graphs have self-loops, isolated nodes (every edge stays
// among the first few ids), all three edge types, and one (from, To, Type)
// added up to ~60 times, in both directions, among the rest.
func TestBuildMatchesReference(t *testing.T) {
	if err := quick.Check(func(seed uint32) bool {
		r := rng.New(uint64(seed))
		n := 1 + r.Intn(40)
		active := NodeID(1 + r.Intn(n))
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode(NodeType(r.Intn(NumNodeTypes)), nil, nil)
		}
		var srcs []NodeID
		var adds []Edge
		add := func(a, c NodeID, et EdgeType, w float32) {
			b.AddUndirected(a, c, et, w)
			srcs = append(srcs, a, c)
			adds = append(adds, Edge{To: c, Type: et, Weight: w}, Edge{To: a, Type: et, Weight: w})
		}
		hotA, hotC, hotType := NodeID(r.Intn(int(active))), NodeID(r.Intn(int(active))), EdgeType(r.Intn(NumEdgeTypes))
		for i, m := 0, r.Intn(6*n); i < m; i++ {
			w := float32(r.Intn(4))
			switch r.Intn(6) {
			case 0:
				add(hotA, hotC, hotType, w)
			case 1:
				add(hotC, hotA, hotType, w)
			case 2:
				a := NodeID(r.Intn(int(active)))
				add(a, a, EdgeType(r.Intn(NumEdgeTypes)), w)
			default:
				add(NodeID(r.Intn(int(active))), NodeID(r.Intn(int(active))), EdgeType(r.Intn(NumEdgeTypes)), w)
			}
		}
		g := b.Build()
		offsets, edges := referenceCSR(n, srcs, adds)
		return slices.Equal(g.offsets, offsets) && slices.Equal(g.edges, edges)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Build sums duplicate edges in the order they were added. Float32
// addition is not associative: 3e-8 is under half an ulp of 1, so it
// vanishes when added to 1 but four of them added first do not.
func TestDuplicateWeightsSumInInsertionOrder(t *testing.T) {
	ws := []float32{1, 3e-8, 3e-8, 3e-8, 3e-8}
	sums := map[float32]bool{}
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {1, 2, 3, 4, 0}, {1, 0, 2, 3, 4}, {4, 3, 2, 1, 0}} {
		b := NewBuilder()
		for i := 0; i < 3; i++ {
			b.AddNode(Item, nil, nil)
		}
		var want float32
		for x, i := range order {
			// Edges of other keys interleaved, and the pair added in both
			// orientations, so both counting passes move the duplicates.
			b.AddUndirected(2, 1, Click, 1)
			if x%2 == 0 {
				b.AddUndirected(0, 1, Session, ws[i])
			} else {
				b.AddUndirected(1, 0, Session, ws[i])
			}
			b.AddUndirected(0, 2, Session, 1)
			want += ws[i]
		}
		sums[want] = true
		g := b.Build()
		for _, from := range []NodeID{0, 1} {
			for _, e := range g.Neighbors(from) {
				if e.To == 1-from && e.Type == Session && e.Weight != want {
					t.Fatalf("order %v: %d->%d weight %v, want %v", order, from, e.To, e.Weight, want)
				}
			}
		}
	}
	if len(sums) < 2 {
		t.Fatal("the orders do not give different sums; the test checks nothing")
	}
}

func BenchmarkBuild10K(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		bd := NewBuilder()
		for j := 0; j < 10000; j++ {
			bd.AddNode(NodeType(j%NumNodeTypes), nil, nil)
		}
		for j := 0; j < 25000; j++ {
			bd.AddUndirected(NodeID(r.Intn(10000)), NodeID(r.Intn(10000)), EdgeType(r.Intn(NumEdgeTypes)), 1)
		}
		_ = bd.Build()
	}
}
