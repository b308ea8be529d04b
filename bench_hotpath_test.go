package main_test

import (
	"testing"
	"time"

	"zoomer/internal/ann"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/ingest"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
	"zoomer/internal/serve"
	"zoomer/internal/tensor"
)

// hotPathWorld stands up the serving stack the BenchmarkHotPath* family
// measures: graph, engine with precomputed alias tables, exported
// serving weights and a warm neighbor cache.
type hotPathWorld struct {
	g     *graph.Graph
	eng   *engine.Engine
	emb   *serve.Embedder
	nbrsU []graph.NodeID
	nbrsQ []graph.NodeID
	user  graph.NodeID
	query graph.NodeID
}

func buildHotPathWorld(b *testing.B) *hotPathWorld {
	b.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	g := res.Graph
	cfg := core.DefaultConfig()
	cfg.EmbedDim = 32
	cfg.OutDim = 32
	model := core.NewZoomer(g, logs.Vocab(), cfg, 2)
	emb := serve.NewEmbedder(model.ExportServing())
	eng := engine.New(g, engine.DefaultConfig())

	r := rng.New(3)
	w := &hotPathWorld{
		g:     g,
		eng:   eng,
		emb:   emb,
		user:  g.NodesOfType(graph.User)[0],
		query: g.NodesOfType(graph.Query)[0],
	}
	w.nbrsU, w.nbrsQ = make([]graph.NodeID, 30), make([]graph.NodeID, 30)
	w.nbrsU = w.nbrsU[:eng.SampleNeighborsInto(w.user, w.nbrsU, r)]
	w.nbrsQ = w.nbrsQ[:eng.SampleNeighborsInto(w.query, w.nbrsQ, r)]
	return w
}

// BenchmarkHotPathSampleNeighbors measures the lock-free engine sampler
// writing into a caller-owned buffer: the steady-state cache-refresh
// path. Must report 0 allocs/op.
func BenchmarkHotPathSampleNeighbors(b *testing.B) {
	w := buildHotPathWorld(b)
	r := rng.New(1)
	ids := make([]graph.NodeID, 256)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(w.g.NumNodes()))
	}
	buf := make([]graph.NodeID, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.eng.SampleNeighborsInto(ids[i%len(ids)], buf, r)
	}
}

// BenchmarkHotPathFocalBiased measures the eq. (5) sampler with a reused
// scratch: fused Tanimoto scoring plus bounded-heap top-k. Must report
// 0 allocs/op.
func BenchmarkHotPathFocalBiased(b *testing.B) {
	w := buildHotPathWorld(b)
	s := sampling.NewFocalBiased()
	r := rng.New(2)
	var ego graph.NodeID
	for id := 0; id < w.g.NumNodes(); id++ {
		if w.g.Degree(graph.NodeID(id)) >= 20 {
			ego = graph.NodeID(id)
			break
		}
	}
	focal := w.g.Content(ego)
	sc := sampling.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Sample(w.g, ego, focal, 10, r, sc)
	}
}

// BenchmarkHotPathBuildTree measures steady-state ROI construction off
// the scratch arena.
func BenchmarkHotPathBuildTree(b *testing.B) {
	w := buildHotPathWorld(b)
	s := sampling.NewFocalBiased()
	r := rng.New(2)
	var ego graph.NodeID
	for id := 0; id < w.g.NumNodes(); id++ {
		if w.g.Degree(graph.NodeID(id)) >= 20 {
			ego = graph.NodeID(id)
			break
		}
	}
	focal := w.g.Content(ego)
	sc := sampling.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Reset()
		_ = sampling.BuildTree(w.g, ego, focal, 2, 10, s, r, sc)
	}
}

// BenchmarkHotPathUserQuery measures the trimmed-model request embedding
// with a per-worker scratch. Must report 0 allocs/op.
func BenchmarkHotPathUserQuery(b *testing.B) {
	w := buildHotPathWorld(b)
	sc := w.emb.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.emb.UserQuery(w.user, w.query, w.nbrsU, w.nbrsQ, sc)
	}
}

// BenchmarkHotPathSampleBatch measures the scatter-gather batch sampler
// (one shard visit per shard per batch): the cache-refresh steady state.
// Must report 0 allocs/op.
func BenchmarkHotPathSampleBatch(b *testing.B) {
	w := buildHotPathWorld(b)
	r := rng.New(4)
	const batch, k = 64, 10
	ids := make([]graph.NodeID, batch)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(w.g.NumNodes()))
	}
	out := make([]graph.NodeID, batch*k)
	ns := make([]int32, batch)
	bs := engine.NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.eng.SampleNeighborsBatchInto(ids, k, out, ns, r, bs)
	}
}

// BenchmarkHotPathSampleTree measures engine-native multi-hop expansion
// (one batch per frontier level) off the batch scratch. Must report
// 0 allocs/op.
func BenchmarkHotPathSampleTree(b *testing.B) {
	w := buildHotPathWorld(b)
	r := rng.New(5)
	var ego graph.NodeID
	for id := 0; id < w.g.NumNodes(); id++ {
		if w.g.Degree(graph.NodeID(id)) >= 20 {
			ego = graph.NodeID(id)
			break
		}
	}
	bs := engine.NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = w.eng.SampleTree(ego, 2, 10, r, bs)
	}
}

// BenchmarkHotPathDeltaSample measures the lock-free sampler against
// nodes carrying live delta overlays — the post-ingest read hot path,
// base alias table mixed with appended edges. Must report 0 allocs/op:
// installing delta segments must not push the read path onto the heap.
func BenchmarkHotPathDeltaSample(b *testing.B) {
	w := buildHotPathWorld(b)
	r := rng.New(6)
	ids := make([]graph.NodeID, 256)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(w.g.NumNodes()))
	}
	// Land appended edges on every sampled node (several batches, so some
	// overlays are compacted into alias tables and some stay raw).
	for round := 0; round < 4; round++ {
		batch := make([]ingest.Edge, 0, len(ids))
		for i, id := range ids {
			batch = append(batch, ingest.Edge{
				Src:    id,
				Dst:    graph.NodeID((int(id) + i + round + 1) % w.g.NumNodes()),
				Type:   graph.Click,
				Weight: 1 + float32(round),
			})
		}
		if _, err := w.eng.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]graph.NodeID, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.eng.SampleNeighborsInto(ids[i%len(ids)], buf, r)
	}
}

// BenchmarkHotPathCacheHit measures a neighbor-cache hit on a resident
// id: segment lookup, reference acquire, the refresh due check (and,
// once the entry has aged, the one hit that queues its refresh) and
// Release. Must report 0 allocs/op.
func BenchmarkHotPathCacheHit(b *testing.B) {
	w := buildHotPathWorld(b)
	cache := serve.NewNeighborCache(w.eng, 30, 7)
	defer cache.Close()
	r := rng.New(7)
	cache.Get(w.user, r).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.GetBy(w.user, r, time.Time{}).Release()
	}
}

// BenchmarkHotPathSearchInto measures the zero-allocation ANN probe with
// a per-worker scratch over the serving index. Must report 0 allocs/op.
// Its shape is the tiny world's: 120 items in 16 lists, so nprobe 4
// scores ~30 candidates (33 for this query). The rig's shape (14 250
// items, 222 lists, ~253 candidates, rotating queries) is
// internal/ann's BenchmarkSearchIntoRig; its BenchmarkSearchInto scores
// ~1 250.
func BenchmarkHotPathSearchInto(b *testing.B) {
	w := buildHotPathWorld(b)
	items := w.g.NodesOfType(graph.Item)
	ids := make([]int64, len(items))
	vecs := make([]tensor.Vec, len(items))
	for i, it := range items {
		ids[i] = int64(it)
		vecs[i] = w.emb.Item(it)
	}
	index := ann.Build(ids, vecs, ann.Config{NumLists: 16, Iters: 4, Seed: 6})
	sc := index.NewSearchScratch()
	q := w.emb.UserQuery(w.user, w.query, w.nbrsU, w.nbrsQ, w.emb.NewScratch())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = index.SearchInto(q, 100, 4, sc)
	}
}
