package sampling

import (
	"testing"

	"zoomer/internal/graph"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// starGraph builds an ego with n item neighbors whose content vectors
// rotate from aligned-with-focal to orthogonal.
func starGraph(n int) (*graph.Graph, graph.NodeID, tensor.Vec) {
	b := graph.NewBuilder()
	focal := tensor.Vec{1, 0}
	ego := b.AddNode(graph.User, nil, tensor.Vec{1, 0})
	for i := 0; i < n; i++ {
		// Content interpolates between (1,0) and (0,1) as i grows.
		frac := float32(i) / float32(n)
		c := tensor.Vec{1 - frac, frac}
		tensor.Normalize(c)
		id := b.AddNode(graph.Item, nil, c)
		b.AddUndirected(ego, id, graph.Click, 1+float32(i%3))
	}
	return b.Build(), ego, focal
}

func allSamplers() []Sampler {
	return []Sampler{
		NewFocalBiased(),
		Uniform{},
		Weighted{},
		NewImportanceWalk(),
		NewBiasedWalk(),
		NewClusterImportance(),
	}
}

// Every sampler must return at most k edges, all of which are true
// neighbors, with no duplicates.
func TestSamplerContracts(t *testing.T) {
	g, ego, focal := starGraph(20)
	nbrSet := map[graph.NodeID]bool{}
	for _, e := range g.Neighbors(ego) {
		nbrSet[e.To] = true
	}
	for _, s := range allSamplers() {
		r := rng.New(1)
		for _, k := range []int{1, 5, 19, 20, 50} {
			out := s.Sample(g, ego, focal, k, r, NewScratch())
			if len(out) > k && k < 20 {
				t.Fatalf("%s returned %d > k=%d", s.Name(), len(out), k)
			}
			if k >= 20 && len(out) != 20 {
				t.Fatalf("%s with k>=degree returned %d, want all 20", s.Name(), len(out))
			}
			seen := map[graph.NodeID]bool{}
			for _, e := range out {
				if !nbrSet[e.To] {
					t.Fatalf("%s returned non-neighbor %d", s.Name(), e.To)
				}
				if seen[e.To] {
					t.Fatalf("%s returned duplicate %d", s.Name(), e.To)
				}
				seen[e.To] = true
			}
		}
	}
}

// The focal-biased sampler must keep the most focal-relevant neighbors:
// with focal (1,0) and rotating content, the earliest nodes are best.
func TestFocalBiasedPicksRelevant(t *testing.T) {
	g, ego, focal := starGraph(20)
	s := NewFocalBiased()
	r := rng.New(2)
	out := s.Sample(g, ego, focal, 5, r, NewScratch())
	for _, e := range out {
		c := g.Content(e.To)
		if c[0] < c[1] {
			t.Fatalf("focal-biased kept low-relevance neighbor with content %v", c)
		}
	}
}

// Relevance ordering must agree between eq. (5) and cosine on this
// geometry (both are monotone in the angle for unit vectors).
func TestRelevanceFuncsAgreeOnOrdering(t *testing.T) {
	focal := tensor.Vec{1, 0}
	near := tensor.Vec{0.9, 0.1}
	far := tensor.Vec{0.1, 0.9}
	tensor.Normalize(near)
	tensor.Normalize(far)
	if !(TanimotoRelevance(focal, near) > TanimotoRelevance(focal, far)) {
		t.Fatal("eq.5 ordering wrong")
	}
	if !(CosineRelevance(focal, near) > CosineRelevance(focal, far)) {
		t.Fatal("cosine ordering wrong")
	}
}

// The focal-biased sampler output must change when the focal changes:
// the dynamic, per-request ROI at the heart of the paper.
func TestFocalBiasedIsFocalSensitive(t *testing.T) {
	g, ego, _ := starGraph(20)
	s := NewFocalBiased()
	r := rng.New(3)
	a := s.Sample(g, ego, tensor.Vec{1, 0}, 5, r, NewScratch())
	b := s.Sample(g, ego, tensor.Vec{0, 1}, 5, r, NewScratch())
	aSet := map[graph.NodeID]bool{}
	for _, e := range a {
		aSet[e.To] = true
	}
	overlap := 0
	for _, e := range b {
		if aSet[e.To] {
			overlap++
		}
	}
	if overlap == 5 {
		t.Fatal("ROI identical under opposite focal interests")
	}
}

// Uniform sampling must cover the neighborhood across repetitions.
func TestUniformCoverage(t *testing.T) {
	g, ego, _ := starGraph(20)
	r := rng.New(4)
	seen := map[graph.NodeID]bool{}
	for i := 0; i < 200; i++ {
		for _, e := range (Uniform{}).Sample(g, ego, nil, 3, r, NewScratch()) {
			seen[e.To] = true
		}
	}
	if len(seen) < 18 {
		t.Fatalf("uniform sampler covered only %d/20 neighbors", len(seen))
	}
}

// Weighted sampling must prefer heavy edges.
func TestWeightedPrefersHeavyEdges(t *testing.T) {
	b := graph.NewBuilder()
	ego := b.AddNode(graph.User, nil, nil)
	heavy := b.AddNode(graph.Item, nil, nil)
	b.AddEdge(ego, heavy, graph.Click, 100)
	var lights []graph.NodeID
	for i := 0; i < 10; i++ {
		l := b.AddNode(graph.Item, nil, nil)
		lights = append(lights, l)
		b.AddEdge(ego, l, graph.Click, 1)
	}
	g := b.Build()
	r := rng.New(5)
	heavyHit := 0
	for i := 0; i < 100; i++ {
		for _, e := range (Weighted{}).Sample(g, ego, nil, 2, r, NewScratch()) {
			if e.To == heavy {
				heavyHit++
			}
		}
	}
	if heavyHit < 90 {
		t.Fatalf("heavy edge sampled only %d/100 times", heavyHit)
	}
	_ = lights
}

// Importance walks must surface the structurally central neighbor: a
// neighbor that is also reachable through other neighbors accumulates
// more visits.
func TestImportanceWalkFindsHub(t *testing.T) {
	b := graph.NewBuilder()
	ego := b.AddNode(graph.User, nil, nil)
	hub := b.AddNode(graph.Item, nil, nil)
	b.AddUndirected(ego, hub, graph.Click, 1)
	for i := 0; i < 8; i++ {
		leaf := b.AddNode(graph.Item, nil, nil)
		b.AddUndirected(ego, leaf, graph.Click, 1)
		// Every leaf also links to the hub, making it 2-hop central.
		b.AddUndirected(leaf, hub, graph.Session, 1)
	}
	g := b.Build()
	s := NewImportanceWalk()
	r := rng.New(6)
	out := s.Sample(g, ego, nil, 1, r, NewScratch())
	if len(out) != 1 || out[0].To != hub {
		t.Fatalf("importance walk picked %v, want hub %d", out, hub)
	}
}

// Cluster importance must take representatives from distinct content
// clusters rather than exhausting the dominant one.
func TestClusterImportanceIsMultiModal(t *testing.T) {
	b := graph.NewBuilder()
	ego := b.AddNode(graph.User, nil, tensor.Vec{1, 0})
	// Cluster A: 8 near-identical items along (1,0), heavy weights.
	for i := 0; i < 8; i++ {
		id := b.AddNode(graph.Item, nil, tensor.Vec{1, 0.01 * float32(i)})
		b.AddEdge(ego, id, graph.Click, 10)
	}
	// Cluster B: 4 items along (0,1), light weights.
	var bNodes []graph.NodeID
	for i := 0; i < 4; i++ {
		id := b.AddNode(graph.Item, nil, tensor.Vec{0.01 * float32(i), 1})
		bNodes = append(bNodes, id)
		b.AddEdge(ego, id, graph.Click, 1)
	}
	g := b.Build()
	s := NewClusterImportance()
	r := rng.New(7)
	out := s.Sample(g, ego, nil, 4, r, NewScratch())
	foundB := false
	for _, e := range out {
		for _, bn := range bNodes {
			if e.To == bn {
				foundB = true
			}
		}
	}
	if !foundB {
		t.Fatal("cluster-importance ignored the minority cluster")
	}
}

func TestBiasedWalkRespectsFocal(t *testing.T) {
	g, ego, focal := starGraph(20)
	s := NewBiasedWalk()
	r := rng.New(8)
	// Just a contract check plus determinism-of-name; walk bias is
	// statistical and covered by the contract test.
	out := s.Sample(g, ego, focal, 5, r, NewScratch())
	if len(out) != 5 {
		t.Fatalf("biased walk returned %d edges", len(out))
	}
}

func TestBuildTreeShape(t *testing.T) {
	g, ego, focal := starGraph(20)
	r := rng.New(9)
	tree := BuildTree(g, ego, focal, 2, 3, NewFocalBiased(), r, NewScratch())
	if tree.Node != ego {
		t.Fatal("root is not ego")
	}
	if len(tree.Edges) != 3 || len(tree.Children) != 3 {
		t.Fatalf("hop-1 fanout = %d, want 3", len(tree.Edges))
	}
	for _, c := range tree.Children {
		if len(c.Edges) > 3 {
			t.Fatalf("hop-2 fanout = %d > 3", len(c.Edges))
		}
		for _, gc := range c.Children {
			if len(gc.Edges) != 0 {
				t.Fatal("tree deeper than 2 hops")
			}
		}
	}
	if tree.Size() < 4 {
		t.Fatalf("tree size = %d", tree.Size())
	}
}

func TestBuildTreeZeroHops(t *testing.T) {
	g, ego, focal := starGraph(5)
	tree := BuildTree(g, ego, focal, 0, 3, NewFocalBiased(), rng.New(10), NewScratch())
	if tree.Size() != 1 || len(tree.Edges) != 0 {
		t.Fatal("zero-hop tree must be the bare ego")
	}
}

func TestIsolatedNode(t *testing.T) {
	b := graph.NewBuilder()
	iso := b.AddNode(graph.User, nil, tensor.Vec{1})
	g := b.Build()
	for _, s := range allSamplers() {
		out := s.Sample(g, iso, tensor.Vec{1}, 5, rng.New(11), NewScratch())
		if len(out) != 0 {
			t.Fatalf("%s sampled from isolated node", s.Name())
		}
	}
}

// k <= 0 must be a no-op for every sampler, not a panic (regression:
// make([]graph.Edge, k) with negative k used to crash).
func TestNonPositiveKReturnsNil(t *testing.T) {
	g, ego, focal := starGraph(20)
	for _, s := range allSamplers() {
		for _, k := range []int{0, -1, -100} {
			if out := s.Sample(g, ego, focal, k, rng.New(12), NewScratch()); out != nil {
				t.Fatalf("%s with k=%d returned %v, want nil", s.Name(), k, out)
			}
		}
	}
	if tree := BuildTree(g, ego, focal, 2, -3, NewFocalBiased(), rng.New(12), NewScratch()); tree.Size() != 1 {
		t.Fatalf("BuildTree with negative k expanded to size %d", tree.Size())
	}
}

// One scratch reused across interleaved calls — every sampler, a 30-node
// and a 3 000-node star, so buffers and visit counters change size
// between calls — must return exactly what a fresh scratch per call
// returns, and the walk samplers must leave every visit counter zero.
func TestScratchParity(t *testing.T) {
	sc := NewScratch()
	stars := parityStars()
	for round := 0; round < 4; round++ {
		for si, st := range stars {
			for _, s := range allSamplers() {
				k := 3 + 4*round + si
				seed := uint64(100*round + 10*si + 13)
				want := s.Sample(st.g, st.ego, st.focal, k, rng.New(seed), NewScratch())
				got := s.Sample(st.g, st.ego, st.focal, k, rng.New(seed), sc)
				if len(got) != len(want) {
					t.Fatalf("round %d star %d %s: reused scratch len %d vs fresh len %d", round, si, s.Name(), len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("round %d star %d %s: reused scratch diverges at %d: %v vs %v", round, si, s.Name(), i, got[i], want[i])
					}
				}
				for id, v := range sc.visits {
					if v != 0 {
						t.Fatalf("round %d star %d %s: visit counter of node %d left at %d", round, si, s.Name(), id, v)
					}
				}
			}
		}
	}
}

// BuildTree on a scratch recycled by Reset must equal a tree built on a
// fresh scratch, node for node, for every sampler and across graphs of
// different sizes.
func TestBuildTreeScratchParity(t *testing.T) {
	sc := NewScratch()
	stars := parityStars()
	for round := 0; round < 3; round++ {
		for si, st := range stars {
			for _, s := range allSamplers() {
				sc.Reset()
				seed := uint64(15 + round)
				want := BuildTree(st.g, st.ego, st.focal, 2, 6, s, rng.New(seed), NewScratch())
				got := BuildTree(st.g, st.ego, st.focal, 2, 6, s, rng.New(seed), sc)
				if !treesEqual(want, got) {
					t.Fatalf("round %d star %d %s: tree on a reset scratch diverges from a fresh-scratch tree", round, si, s.Name())
				}
			}
		}
	}
}

type star struct {
	g     *graph.Graph
	ego   graph.NodeID
	focal tensor.Vec
}

// parityStars are the graphs the scratch-reuse tests interleave: a
// 30-node and a 3 000-node star.
func parityStars() []star {
	var stars []star
	for _, n := range []int{30, 3000} {
		g, ego, focal := starGraph(n)
		stars = append(stars, star{g, ego, focal})
	}
	return stars
}

// The bounded-heap partial selection must agree with a full sort.
func TestTopKScoredMatchesSort(t *testing.T) {
	r := rng.New(16)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(60)
		k := 1 + r.Intn(n)
		ss := make([]scoredEdge, n)
		for i := range ss {
			ss[i] = scoredEdge{
				e:     graph.Edge{To: graph.NodeID(i), Weight: float32(r.Intn(5))},
				score: float32(r.Intn(10)),
			}
		}
		ref := append([]scoredEdge(nil), ss...)
		sortScoredRef(ref)
		topKScored(ss, k)
		for i := 0; i < k; i++ {
			// Scores (and tie-break weights) must match the sorted prefix;
			// identities may differ on full ties.
			if ss[i].score != ref[i].score || ss[i].e.Weight != ref[i].e.Weight {
				t.Fatalf("trial %d (n=%d k=%d) rank %d: got (%.0f,%.0f) want (%.0f,%.0f)",
					trial, n, k, i, ss[i].score, ss[i].e.Weight, ref[i].score, ref[i].e.Weight)
			}
		}
	}
}

func sortScoredRef(ss []scoredEdge) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && scoredLess(ss[j-1], ss[j]); j-- {
			ss[j-1], ss[j] = ss[j], ss[j-1]
		}
	}
}

func BenchmarkFocalBiasedK10Scratch(b *testing.B) {
	g, ego, focal := starGraph(200)
	s := NewFocalBiased()
	r := rng.New(1)
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(g, ego, focal, 10, r, sc)
	}
}

func BenchmarkBuildTree2HopScratch(b *testing.B) {
	g, ego, focal := starGraph(200)
	s := NewFocalBiased()
	r := rng.New(1)
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Reset()
		_ = BuildTree(g, ego, focal, 2, 10, s, r, sc)
	}
}
