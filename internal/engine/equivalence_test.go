package engine

import (
	"slices"
	"sync"
	"testing"

	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
)

// equivalenceEngines builds the same graph behind a single-store engine
// and two genuinely partitioned ones.
func equivalenceEngines(t testing.TB) (*graph.Graph, map[string]*Engine) {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	return g, map[string]*Engine{
		"single":          New(g, Config{Shards: 1}),
		"hash-4":          New(g, Config{Shards: 4, Strategy: partition.Hash}),
		"degree-balanced": New(g, Config{Shards: 3, Strategy: partition.DegreeBalanced}),
		// Locality layouts must be draw-for-draw identical to the plain
		// ones: BFS renumbering moves rows in memory, never on the wire.
		"hash-4-locality": New(g, Config{Shards: 4, Strategy: partition.Hash, Locality: true}),
		"degree-locality": New(g, Config{Shards: 3, Strategy: partition.DegreeBalanced, Locality: true}),
	}
}

// Every read accessor must return exactly the source graph's rows no
// matter how the graph is partitioned.
func TestShardAccessorsMatchGraph(t *testing.T) {
	g, engines := equivalenceEngines(t)
	for name, e := range engines {
		for id := 0; id < g.NumNodes(); id++ {
			nid := graph.NodeID(id)
			want, got := g.Neighbors(nid), e.Neighbors(nid)
			if len(want) != len(got) {
				t.Fatalf("%s: node %d has %d edges, want %d", name, id, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s: node %d edge %d differs", name, id, i)
				}
			}
			if len(e.Features(nid)) != len(g.Features(nid)) {
				t.Fatalf("%s: node %d features differ", name, id)
			}
			if len(e.Content(nid)) != len(g.Content(nid)) {
				t.Fatalf("%s: node %d content differs", name, id)
			}
		}
	}
}

// Single-node sampling must be bit-identical across partitionings: a
// node's alias table depends only on its own adjacency, so the same RNG
// stream must yield the same draws on 1 shard and on 4.
func TestSamplingMatchesSingleStore(t *testing.T) {
	g, engines := equivalenceEngines(t)
	single := engines["single"]
	buf := make([]graph.NodeID, 7)
	want := make([]graph.NodeID, 7)
	for name, e := range engines {
		if name == "single" {
			continue
		}
		rs, re := rng.New(99), rng.New(99)
		for id := 0; id < g.NumNodes(); id += 3 {
			nid := graph.NodeID(id)
			nw := single.SampleNeighborsInto(nid, want, rs)
			ng := e.SampleNeighborsInto(nid, buf, re)
			if nw != ng {
				t.Fatalf("%s: node %d wrote %d, single store wrote %d", name, id, ng, nw)
			}
			for i := 0; i < nw; i++ {
				if want[i] != buf[i] {
					t.Fatalf("%s: node %d draw %d is %d, single store drew %d", name, id, i, buf[i], want[i])
				}
			}
		}
	}
}

// Scatter-gather batches must also be bit-identical across partitionings,
// despite visiting shards in different groupings: each entry draws from
// its own derived sub-stream.
func TestBatchSamplingMatchesSingleStore(t *testing.T) {
	g, engines := equivalenceEngines(t)
	r := rng.New(7)
	const k = 6
	ids := make([]graph.NodeID, 300)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	type result struct {
		out []graph.NodeID
		ns  []int32
	}
	results := map[string]result{}
	for name, e := range engines {
		out := make([]graph.NodeID, len(ids)*k)
		ns := make([]int32, len(ids))
		e.SampleNeighborsBatchInto(ids, k, out, ns, rng.New(123), NewBatchScratch())
		results[name] = result{out, ns}
	}
	want := results["single"]
	for name, got := range results {
		for i := range ids {
			if want.ns[i] != got.ns[i] {
				t.Fatalf("%s: entry %d count %d, single store %d", name, i, got.ns[i], want.ns[i])
			}
			for j := 0; j < int(want.ns[i]); j++ {
				if want.out[i*k+j] != got.out[i*k+j] {
					t.Fatalf("%s: entry %d draw %d is %d, single store drew %d",
						name, i, j, got.out[i*k+j], want.out[i*k+j])
				}
			}
		}
	}
}

// Multi-hop expansion (one batch per level) must be identical across
// partitionings under a fixed seed.
func TestSampleTreeMatchesSingleStore(t *testing.T) {
	g, engines := equivalenceEngines(t)
	var ego graph.NodeID
	for id := 0; id < g.NumNodes(); id++ {
		if g.Degree(graph.NodeID(id)) >= 5 {
			ego = graph.NodeID(id)
			break
		}
	}
	single := engines["single"]
	want, err := single.SampleTree(ego, 2, 5, rng.New(55), NewBatchScratch())
	if err != nil {
		t.Fatalf("single-store tree: %v", err)
	}
	if len(want) <= 1 {
		t.Fatalf("degenerate tree of %d nodes", len(want))
	}
	for name, e := range engines {
		got, err := e.SampleTree(ego, 2, 5, rng.New(55), NewBatchScratch())
		if err != nil {
			t.Fatalf("%s: tree: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: tree has %d nodes, single store %d", name, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s: tree node %d is %+v, single store %+v", name, i, got[i], want[i])
			}
		}
	}
}

// SampleTree children must actually be neighbors of their parents.
func TestSampleTreeEdgesAreReal(t *testing.T) {
	g, engines := equivalenceEngines(t)
	e := engines["hash-4"]
	r := rng.New(8)
	bs := NewBatchScratch()
	for trial := 0; trial < 20; trial++ {
		ego := graph.NodeID(r.Intn(g.NumNodes()))
		tree, err := e.SampleTree(ego, 2, 4, r, bs)
		if err != nil {
			t.Fatalf("tree: %v", err)
		}
		if tree[0].ID != ego || tree[0].Parent != -1 {
			t.Fatalf("bad root %+v", tree[0])
		}
		for i := 1; i < len(tree); i++ {
			parent := tree[tree[i].Parent].ID
			found := false
			for _, edge := range g.Neighbors(parent) {
				if edge.To == tree[i].ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("tree node %d: %d is not a neighbor of %d", i, tree[i].ID, parent)
			}
		}
	}
}

// k <= 0 on a *reused* scratch must not read stale counts from the
// previous batch (regression: SampleTree(k=0) after a real expansion
// used to index a zero-length children buffer with last call's ns).
func TestSampleTreeNonPositiveKOnReusedScratch(t *testing.T) {
	g, engines := equivalenceEngines(t)
	e := engines["hash-4"]
	var ego graph.NodeID
	for id := 0; id < g.NumNodes(); id++ {
		if g.Degree(graph.NodeID(id)) >= 5 {
			ego = graph.NodeID(id)
			break
		}
	}
	bs := NewBatchScratch()
	if tree, err := e.SampleTree(ego, 2, 5, rng.New(1), bs); err != nil || len(tree) <= 1 {
		t.Fatalf("warm-up tree has %d nodes", len(tree))
	}
	for _, k := range []int{0, -3} {
		tree, err := e.SampleTree(ego, 2, k, rng.New(2), bs)
		if err != nil {
			t.Fatalf("k=%d: tree: %v", k, err)
		}
		if len(tree) != 1 || tree[0].ID != ego {
			t.Fatalf("k=%d: tree %+v, want root only", k, tree)
		}
	}
	// The batch call itself must also report zero draws, not stale ones.
	ids := []graph.NodeID{ego, ego}
	ns := []int32{7, 7}
	if n, err := e.SampleNeighborsBatchInto(ids, 0, nil, ns, rng.New(3), bs); err != nil || n != 0 {
		t.Fatalf("k=0 batch wrote %d", n)
	}
	if ns[0] != 0 || ns[1] != 0 {
		t.Fatalf("k=0 batch left stale counts %v", ns)
	}
}

// One BatchScratch reused across batches and trees of changing shape —
// batch size, k, hops, shard count — must return exactly what a fresh
// scratch returns on every call.
func TestReusedBatchScratchMatchesFresh(t *testing.T) {
	g, engines := equivalenceEngines(t)
	bs := NewBatchScratch()
	for name, e := range engines {
		for trial := 0; trial < 8; trial++ {
			seed := uint64(100 + trial)
			r := rng.New(seed)
			ids := make([]graph.NodeID, 1+r.Intn(200))
			for i := range ids {
				ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
			}
			k := 1 + r.Intn(8)
			want, wantNS := make([]graph.NodeID, len(ids)*k), make([]int32, len(ids))
			got, gotNS := make([]graph.NodeID, len(ids)*k), make([]int32, len(ids))
			wn, err := e.SampleNeighborsBatchInto(ids, k, want, wantNS, rng.New(seed), NewBatchScratch())
			if err != nil {
				t.Fatal(err)
			}
			gn, err := e.SampleNeighborsBatchInto(ids, k, got, gotNS, rng.New(seed), bs)
			if err != nil {
				t.Fatal(err)
			}
			if wn != gn || !slices.Equal(want, got) || !slices.Equal(wantNS, gotNS) {
				t.Fatalf("%s trial %d: batch of %d ids k=%d on a reused scratch differs from a fresh one", name, trial, len(ids), k)
			}
			hops := 1 + trial%3
			wantTree, err := e.SampleTree(ids[0], hops, k, rng.New(seed), NewBatchScratch())
			if err != nil {
				t.Fatal(err)
			}
			gotTree, err := e.SampleTree(ids[0], hops, k, rng.New(seed), bs)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(wantTree, gotTree) {
				t.Fatalf("%s trial %d: %d-hop tree k=%d on a reused scratch differs from a fresh one", name, trial, hops, k)
			}
		}
	}
}

// A batch charges exactly one replica per shard it touches, with the
// group size as the load — the per-shard accounting Stats reports.
func TestBatchChargesOneVisitPerShard(t *testing.T) {
	g, engines := equivalenceEngines(t)
	e := engines["hash-4"]
	perShard := make([]int64, e.NumShards())
	var ids []graph.NodeID
	for id := 0; id < g.NumNodes() && len(ids) < 64; id += 5 {
		nid := graph.NodeID(id)
		if g.Degree(nid) > 0 {
			ids = append(ids, nid)
			perShard[e.ShardOf(nid)]++
		}
	}
	const k = 3
	out := make([]graph.NodeID, len(ids)*k)
	ns := make([]int32, len(ids))
	e.SampleNeighborsBatchInto(ids, k, out, ns, rng.New(3), NewBatchScratch())
	st := e.Stats()
	for s, want := range perShard {
		if st.RequestsPerShard[s] != want {
			t.Fatalf("shard %d charged %d, want %d", s, st.RequestsPerShard[s], want)
		}
	}
	if st.Imbalance < 1 {
		t.Fatalf("imbalance %.3f < 1 with traffic served", st.Imbalance)
	}
}

// ROI construction routed through the engine boundary must reproduce the
// direct-graph result exactly, for every partitioning: the samplers see
// the same adjacencies and consume the same RNG stream either way.
func TestBuildTreeOverEngineMatchesGraph(t *testing.T) {
	g, engines := equivalenceEngines(t)
	s := sampling.NewFocalBiased()
	var egos []graph.NodeID
	for id := 0; id < g.NumNodes() && len(egos) < 10; id += 17 {
		egos = append(egos, graph.NodeID(id))
	}
	var compare func(name string, a, b *sampling.Tree)
	compare = func(name string, a, b *sampling.Tree) {
		if a.Node != b.Node || len(a.Edges) != len(b.Edges) {
			t.Fatalf("%s: tree node %d/%d edges %d/%d", name, a.Node, b.Node, len(a.Edges), len(b.Edges))
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				t.Fatalf("%s: edge %d differs at node %d", name, i, a.Node)
			}
			compare(name, a.Children[i], b.Children[i])
		}
	}
	for _, ego := range egos {
		focal := g.Content(ego)
		want := sampling.BuildTree(g, ego, focal, 2, 4, s, rng.New(31), sampling.NewScratch())
		for name, e := range engines {
			got := sampling.BuildTree(e, ego, focal, 2, 4, s, rng.New(31), sampling.NewScratch())
			compare(name, want, got)
		}
	}
}

// Hammer concurrent scatter-gather across shards (meaningful under
// -race): the shard tables are read lock-free while counters advance.
func TestScatterGatherConcurrency(t *testing.T) {
	g, engines := equivalenceEngines(t)
	e := engines["degree-balanced"]
	const workers, iters, batch, k = 8, 100, 32, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			bs := NewBatchScratch()
			ids := make([]graph.NodeID, batch)
			out := make([]graph.NodeID, batch*k)
			ns := make([]int32, batch)
			for it := 0; it < iters; it++ {
				for i := range ids {
					ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
				}
				e.SampleNeighborsBatchInto(ids, k, out, ns, r, bs)
				for i := range ids {
					for j := 0; j < int(ns[i]); j++ {
						if int(out[i*k+j]) >= g.NumNodes() {
							t.Errorf("out-of-range draw %d", out[i*k+j])
							return
						}
					}
				}
				tree, err := e.SampleTree(ids[0], 2, 3, r, bs)
				if err != nil || tree[0].ID != ids[0] {
					t.Error("tree root mismatch")
					return
				}
			}
		}(uint64(w + 70))
	}
	wg.Wait()
	var total int64
	for _, c := range e.Stats().RequestsPerShard {
		total += c
	}
	if total == 0 {
		t.Fatal("no shard requests recorded")
	}
}
