package rpc

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/ingest"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
)

// BenchmarkRPCRoundTrip measures one single-sample request over a
// loopback TCP connection — the floor a remote read adds over the
// ~hundred-ns in-process sample. The client hot path reuses pooled
// per-connection scratch; allocs/op is the pin that it stays
// allocation-free at steady state (server included: both ends run in
// this process).
func BenchmarkRPCRoundTrip(b *testing.B) {
	g := buildGraph(b)
	_, cluster := startCluster(b, g, 2, partition.Hash, [][]int{{0, 1}})
	remote := cluster.Engine
	var ego graph.NodeID
	for id := 0; id < g.NumNodes(); id++ {
		if g.Degree(graph.NodeID(id)) >= 5 {
			ego = graph.NodeID(id)
			break
		}
	}
	r := rng.New(1)
	out := make([]graph.NodeID, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.TrySampleNeighborsIntoBy(ego, out, r, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteBatch measures one scatter-gather batch (64 entries,
// k=10) against a two-server cluster: both shard visits are put on the
// wire before either is awaited, so the batch costs ~max of the two
// round trips plus whatever the CPU serializes. (On a 1-CPU container
// the loopback path is CPU-bound end to end, so wall clock stays near
// the sequential figure; the overlap itself is pinned by the engine's
// fan-out tests and pays off when servers have their own cores or a real
// network sits in between.)
func BenchmarkRemoteBatch(b *testing.B) {
	g := buildGraph(b)
	_, cluster := startCluster(b, g, 2, partition.Hash, [][]int{{0}, {1}})
	remote := cluster.Engine
	const batch, k = 64, 10
	r := rng.New(2)
	ids := make([]graph.NodeID, batch)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	out := make([]graph.NodeID, batch*k)
	ns := make([]int32, batch)
	bs := engine.NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.SampleNeighborsBatchInto(ids, k, out, ns, r, bs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteBatchParallel measures concurrent batch callers sharing
// the multiplexed connection pool — the serving tier's refreshers and
// miss fills overlapping on the same sockets. Per-op time under
// concurrency (throughput) is the figure of merit: pipelined frames
// coalesce in the kernel and the per-connection windows amortize
// syscalls across callers, where the old checkout-per-call pool would
// serialize on connection ownership.
func BenchmarkRemoteBatchParallel(b *testing.B) {
	g := buildGraph(b)
	_, cluster := startCluster(b, g, 2, partition.Hash, [][]int{{0}, {1}})
	remote := cluster.Engine
	const batch, k = 64, 10
	b.ReportAllocs()
	b.SetParallelism(8) // 8×GOMAXPROCS concurrent callers
	b.ResetTimer()
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		r := rng.New(uint64(worker.Add(1)))
		ids := make([]graph.NodeID, batch)
		for i := range ids {
			ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
		}
		out := make([]graph.NodeID, batch*k)
		ns := make([]int32, batch)
		bs := engine.NewBatchScratch()
		for pb.Next() {
			if _, err := remote.SampleNeighborsBatchInto(ids, k, out, ns, r, bs); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkRemoteTree measures a 2-hop SampleTree over a four-shard,
// two-server cluster: each hop is one scatter-gather batch whose shard
// visits overlap, so a hop costs ~one round trip however many shards the
// frontier touches.
func BenchmarkRemoteTree(b *testing.B) {
	g := buildGraph(b)
	_, cluster := startCluster(b, g, 4, partition.Hash, [][]int{{0, 1}, {2, 3}})
	remote := cluster.Engine
	var ego graph.NodeID
	for id := 0; id < g.NumNodes(); id++ {
		if g.Degree(graph.NodeID(id)) >= 10 {
			ego = graph.NodeID(id)
			break
		}
	}
	r := rng.New(3)
	bs := engine.NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.SampleTree(ego, 2, 10, r, bs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteReadNodes measures one bulk node read — neighbors,
// features and content of 64 or 512 nodes — against four shards on two
// servers: every shard's visit is on the wire before the first response
// is decoded, and decoding lands in the caller's reused block, so
// allocs/op is the pin that the steady state allocates nothing.
func BenchmarkRemoteReadNodes(b *testing.B) {
	g := buildGraph(b)
	_, cluster := startCluster(b, g, 4, partition.Hash, [][]int{{0, 1}, {2, 3}})
	remote := cluster.Engine
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("ids-%d", n), func(b *testing.B) {
			ids := randomIDs(g, n, 4)
			var blk graph.NodeBlock
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk.Reset()
				if err := remote.TryReadNodes(ids, graph.ReadAll, &blk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemoteAppend measures one 64-edge Engine.Append spanning the
// four shards of a two-server cluster with no WAL: one graph-append round
// trip per owning shard, served inline in shard order. Sources rotate
// through every node, but every append still grows the delta overlays it
// lands in, so ns/op depends on the iteration count: compare runs of one
// fixed -benchtime (bench.sh uses 1000x).
func BenchmarkRemoteAppend(b *testing.B) {
	g := buildGraph(b)
	_, cluster := startCluster(b, g, 4, partition.Hash, [][]int{{0, 1}, {2, 3}})
	remote := cluster.Engine
	edges := make([]ingest.Edge, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range edges {
			src := (i*len(edges) + j) % g.NumNodes()
			edges[j] = ingest.Edge{Src: graph.NodeID(src), Dst: graph.NodeID((src + 1) % g.NumNodes()), Type: graph.Click, Weight: 1}
		}
		if _, err := remote.Append(edges); err != nil {
			b.Fatal(err)
		}
	}
}

// trainWorld is the training benchmarks' shared world: the small-scale
// graph, its CTR instances, and the same four shards on two servers.
func trainWorld(b *testing.B) (*graphbuild.Result, *loggen.Logs, []core.Instance, *Cluster) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleSmall, 1))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	ds := loggen.BuildExamples(logs, 1, 0.2, 2)
	_, cluster := startCluster(b, res.Graph, 4, partition.Hash, [][]int{{0, 1}, {2, 3}})
	return res, logs, core.InstancesFromExamples(ds.Train, res.Mapping), cluster
}

// BenchmarkBuildTreeRemote measures one 2-hop, k=10 focal-biased ROI
// tree over the remote cluster through a read set, as a training step
// builds it: the tree's reads are a handful of overlapped bulk reads
// instead of one round trip per scored neighbor.
func BenchmarkBuildTreeRemote(b *testing.B) {
	res, _, train, cluster := trainWorld(b)
	view := core.EngineView{Engine: cluster.Engine, M: res.Mapping}
	fb, sc, r := sampling.NewFocalBiased(), sampling.NewScratch(), rng.New(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := train[i%len(train)]
		rs := sampling.NewReadSet(view, view.Type)
		sc.Reset()
		sampling.BuildTree(rs, ex.User, rs.Content(ex.Query), 2, 10, fb, r, sc)
	}
}

// benchTrainSteps times whole training steps (32 examples, default model
// config: sampling, forward, backward, optimizer) over one view in the
// steady state. The clock and the allocation count start after
// trainWarmup untimed steps: the first batch is sampled serially and
// grows the tape's slabs, and the first steps touch most of the Adam
// moments. Every timed step's batch is sampled while the step before
// it computes.
func benchTrainSteps(b *testing.B, view core.GraphView, logs *loggen.Logs, train []core.Instance) {
	const trainWarmup = 3
	m := core.NewZoomer(view, logs.Vocab(), core.DefaultConfig(), 3)
	tc := core.DefaultTrainConfig()
	tc.Epochs, tc.MaxSteps = 1<<20, trainWarmup+b.N
	tc.OnStep = func(step int, _ float64) {
		if step == trainWarmup {
			b.ResetTimer()
		}
	}
	b.ReportAllocs()
	core.Train(m, train, nil, tc)
}

// BenchmarkTrainStepLocal is the step over the in-memory graph: what the
// read set costs when every read is already a slice index.
func BenchmarkTrainStepLocal(b *testing.B) {
	res, logs, train, _ := trainWorld(b)
	benchTrainSteps(b, res.Graph, logs, train)
}

// BenchmarkTrainStepRemote is the same step with every graph read
// crossing the wire to the two-server cluster.
func BenchmarkTrainStepRemote(b *testing.B) {
	res, logs, train, cluster := trainWorld(b)
	benchTrainSteps(b, core.EngineView{Engine: cluster.Engine, M: res.Mapping}, logs, train)
}
