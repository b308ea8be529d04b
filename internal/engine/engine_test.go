package engine

import (
	"sync"
	"testing"

	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
)

func buildEngine(t testing.TB) (*Engine, *graph.Graph) {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	return New(g, DefaultConfig()), g
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(nil, Config{Shards: 0})
}

// Sampling must follow edge weights: build a node with one dominant edge.
func TestSampleFollowsWeights(t *testing.T) {
	b := graph.NewBuilder()
	ego := b.AddNode(graph.User, nil, nil)
	heavy := b.AddNode(graph.Item, nil, nil)
	light := b.AddNode(graph.Item, nil, nil)
	b.AddUndirected(ego, heavy, graph.Click, 9)
	b.AddUndirected(ego, light, graph.Click, 1)
	e := New(b.Build(), Config{Shards: 1})
	r := rng.New(3)
	heavyCount := 0
	const n = 20000
	var draw [1]graph.NodeID
	for i := 0; i < n; i++ {
		if e.SampleNeighborsInto(ego, draw[:], r); draw[0] == heavy {
			heavyCount++
		}
	}
	frac := float64(heavyCount) / n
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("heavy edge sampled %.3f, want ~0.9", frac)
	}
}

func TestPassthroughAccessors(t *testing.T) {
	e, g := buildEngine(t)
	var id graph.NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if g.Degree(graph.NodeID(i)) > 0 {
			id = graph.NodeID(i)
			break
		}
	}
	if len(e.Neighbors(id)) != g.Degree(id) {
		t.Fatal("Neighbors passthrough wrong")
	}
	if e.Content(id) == nil && g.Content(id) != nil {
		t.Fatal("Content passthrough wrong")
	}
	if len(e.Features(id)) != len(g.Features(id)) {
		t.Fatal("Features passthrough wrong")
	}
}

// benchIDs draws node ids with at least one neighbor, so every sampled
// id costs a full draw (isolated nodes return early).
func benchIDs(g *graph.Graph, n int, r *rng.RNG) []graph.NodeID {
	ids := make([]graph.NodeID, 0, n)
	for len(ids) < n {
		id := graph.NodeID(r.Intn(g.NumNodes()))
		if g.Degree(id) > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// BenchmarkSampleNeighborsParallel measures single draws under
// multi-core contention (the serial figure is BenchmarkHotPathSampleNeighbors).
func BenchmarkSampleNeighborsParallel(b *testing.B) {
	e, g := buildEngine(b)
	r := rng.New(42)
	ids := benchIDs(g, 256, r)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(uint64(42))
		out := make([]graph.NodeID, 10)
		i := 0
		for pb.Next() {
			e.SampleNeighborsInto(ids[i%len(ids)], out, r)
			i++
		}
	})
}

// BenchmarkSampleNeighborsBatch measures the scatter-gather layer: 64
// ids routed to their shards in one call, one visit per shard.
func BenchmarkSampleNeighborsBatch(b *testing.B) {
	e, g := buildEngine(b)
	r := rng.New(1)
	const batch, k = 64, 10
	ids := make([]graph.NodeID, batch)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	out := make([]graph.NodeID, batch*k)
	ns := make([]int32, batch)
	bs := NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SampleNeighborsBatchInto(ids, k, out, ns, r, bs)
	}
}

// BenchmarkSampleTree measures frontier-batched multi-hop expansion.
func BenchmarkSampleTree(b *testing.B) {
	e, g := buildEngine(b)
	var ego graph.NodeID
	for id := 0; id < g.NumNodes(); id++ {
		if g.Degree(graph.NodeID(id)) >= 10 {
			ego = graph.NodeID(id)
			break
		}
	}
	r := rng.New(2)
	bs := NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = e.SampleTree(ego, 2, 10, r, bs)
	}
}

// SampleNeighborsInto must fill the caller's buffer without allocating
// and agree with the adjacency.
func TestSampleNeighborsInto(t *testing.T) {
	e, g := buildEngine(t)
	r := rng.New(20)
	buf := make([]graph.NodeID, 6)
	for id := 0; id < g.NumNodes(); id += 11 {
		nid := graph.NodeID(id)
		nbrSet := map[graph.NodeID]bool{}
		for _, edge := range g.Neighbors(nid) {
			nbrSet[edge.To] = true
		}
		n := e.SampleNeighborsInto(nid, buf, r)
		if len(nbrSet) == 0 {
			if n != 0 {
				t.Fatalf("isolated node %d wrote %d samples", id, n)
			}
			continue
		}
		if n != len(buf) {
			t.Fatalf("node %d: wrote %d, want %d", id, n, len(buf))
		}
		for _, to := range buf[:n] {
			if !nbrSet[to] {
				t.Fatalf("node %d sampled non-neighbor %d", id, to)
			}
		}
		if n := e.SampleNeighborsInto(nid, nil, r); n != 0 {
			t.Fatalf("node %d: empty buffer wrote %d", id, n)
		}
	}
}

// An adjacency whose weights are all zero must degrade to uniform
// sampling rather than fail table construction.
func TestZeroWeightAdjacencyDegradesToUniform(t *testing.T) {
	b := graph.NewBuilder()
	ego := b.AddNode(graph.User, nil, nil)
	a := b.AddNode(graph.Item, nil, nil)
	c := b.AddNode(graph.Item, nil, nil)
	b.AddUndirected(ego, a, graph.Click, 0)
	b.AddUndirected(ego, c, graph.Click, 0)
	e := New(b.Build(), Config{Shards: 1})
	r := rng.New(21)
	counts := map[graph.NodeID]int{}
	var draw [1]graph.NodeID
	for i := 0; i < 4000; i++ {
		e.SampleNeighborsInto(ego, draw[:], r)
		counts[draw[0]]++
	}
	for _, id := range []graph.NodeID{a, c} {
		frac := float64(counts[id]) / 4000
		if frac < 0.4 || frac > 0.6 {
			t.Fatalf("zero-weight neighbor %d sampled at %.3f, want ~0.5", id, frac)
		}
	}
}

// The precomputed tables are shared and read lock-free; hammer them from
// many goroutines (meaningful under -race) while checking counter
// consistency.
func TestLockFreeTablesUnderConcurrency(t *testing.T) {
	e, g := buildEngine(t)
	const workers, iters = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			buf := make([]graph.NodeID, 4)
			for i := 0; i < iters; i++ {
				id := graph.NodeID(r.Intn(g.NumNodes()))
				n := e.SampleNeighborsInto(id, buf, r)
				for _, to := range buf[:n] {
					if int(to) >= g.NumNodes() {
						t.Errorf("out-of-range sample %d", to)
						return
					}
				}
			}
		}(uint64(w + 30))
	}
	wg.Wait()
	st := e.Stats()
	var total int64
	for _, c := range st.RequestsPerShard {
		total += c
	}
	// Every non-isolated draw bumps its shard's counter exactly once.
	if total == 0 || total > workers*iters {
		t.Fatalf("request counters read %d after %d draws", total, workers*iters)
	}
	if st.CachedTables == 0 {
		t.Fatal("no precomputed tables")
	}
}
