package servestack

import (
	"errors"
	"net"
	"testing"
	"time"

	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rpc"
	"zoomer/internal/serve"
)

func tinyConfig() Config {
	return Config{Scale: loggen.ScaleTiny, Seed: 1, TrainSteps: 5}
}

// retrieve answers one request through the stack's server.
func retrieve(st *Stack) serve.Response {
	return st.Server.Retrieve(serve.Request{User: st.Users[0], Query: st.Queries[0]})
}

// startShards serves g's two hash partitions from one loopback server.
func startShards(t *testing.T, g *graph.Graph) string {
	t.Helper()
	srv := rpc.NewServer(g, rpc.ServerConfig{Shards: 2, Strategy: partition.Hash})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv.Start(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func TestBuildLocal(t *testing.T) {
	var lines int
	st, err := Build(tinyConfig(), func(string, ...any) { lines++ })
	if err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("bring-up reported no progress")
	}
	if st.Engine.NumShards() != engine.DefaultConfig().Shards || st.Engine.NumNodes() != st.Graph.NumNodes() {
		t.Fatalf("engine has %d shards over %d nodes", st.Engine.NumShards(), st.Engine.NumNodes())
	}
	if r := retrieve(st); r.Err != nil || len(r.Items) == 0 {
		t.Fatalf("retrieval: %d items, err %v", len(r.Items), r.Err)
	}
	// The sweep is open-loop: every slot of the schedule is offered, and
	// with no deadline every one is answered, however far the run falls
	// behind.
	if pt := st.Offer(st.Users, st.Queries, 2000, 100*time.Millisecond, 4); pt.Served != 200 || pt.MeanRT <= 0 {
		t.Fatalf("Offer at 2000 QPS for 100ms: %+v, want all 200 requests served", pt)
	}
	st.Close()
	st.Close() // idempotent
}

func TestBuildRemote(t *testing.T) {
	addr := startShards(t, core.BuildWorld(loggen.TaobaoConfig(loggen.ScaleTiny, 1)).Graph)
	cfg := tinyConfig()
	cfg.Remote = []string{" " + addr + " "} // flag values arrive untrimmed
	st, err := Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, local := st.Engine.Backend(0).(*engine.Shard); st.Engine.Backend(0) == nil || local {
		t.Fatal("remote stack is serving from in-process shards")
	}
	if r := retrieve(st); r.Err != nil || len(r.Items) == 0 {
		t.Fatalf("retrieval: %d items, err %v", len(r.Items), r.Err)
	}
	if len(st.IngestStats()) != 2 {
		t.Fatalf("ingest rows for %d shards, want 2", len(st.IngestStats()))
	}
	st.Close()
	st.Close()
}

// Zero warm-up steps exports the initial model, untouched: core.Train
// would read MaxSteps 0 as "train until the epochs run out".
func TestBuildZeroTrainStepsExportsInitialModel(t *testing.T) {
	cfg := tinyConfig()
	cfg.TrainSteps = 0
	st, err := Build(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w := core.BuildWorld(loggen.TaobaoConfig(loggen.ScaleTiny, cfg.Seed))
	initial := serve.NewEmbedder(core.NewZoomer(w.Graph, w.Logs.Vocab(), core.DefaultConfig(), cfg.Seed+2).ExportServing())
	for _, it := range st.Graph.NodesOfType(graph.Item) {
		got, want := st.Embedder.Item(it), initial.Item(it)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("item %d: served embedding[%d] = %v, initial model's = %v", it, i, got[i], want[i])
			}
		}
	}
}

// Shard servers holding another world are refused with a typed error
// naming both node counts.
func TestBuildRemoteWorldSkew(t *testing.T) {
	b := graph.NewBuilder()
	for i := 0; i < 10; i++ {
		b.AddNode(graph.Item, []int32{int32(i)}, nil)
	}
	cfg := tinyConfig()
	cfg.Remote = []string{startShards(t, b.Build())}
	st, err := Build(cfg, nil)
	if !errors.Is(err, ErrWorldSkew) || st != nil {
		t.Fatalf("got stack %v, err %v; want ErrWorldSkew", st, err)
	}
	// The trainer's path: Connect alone refuses the same way.
	w := core.BuildWorld(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	be, err := Connect(w.Graph, cfg.Remote)
	if !errors.Is(err, ErrWorldSkew) || be != nil {
		t.Fatalf("Connect: got backend %v, err %v; want ErrWorldSkew", be, err)
	}
}
