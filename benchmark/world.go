package main

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"zoomer/internal/ann"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/gateway"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/ingest"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/rpc"
	"zoomer/internal/serve"
	"zoomer/internal/tensor"
)

// timings holds the wall time of each bring-up call, by per-layer
// metric name.
type timings map[string]float64

func (t timings) time(name string, f func()) {
	start := time.Now()
	f()
	t[name] += time.Since(start).Seconds()
}

// world is the synthetic graph served by a loopback cluster: numServers
// rpc.Servers on real TCP listeners, each owning numShards/numServers
// hash partitions with a fsynced WAL, dialled into one remote engine.
// It is built in one process because every graphbuild.Build call yields
// a different graph (ROADMAP item 1): the servers share this one.
type world struct {
	seed    uint64 // the run's -seed: every draw the run makes; the dataset is worldSeed's
	logs    *loggen.Logs
	g       *graph.Graph
	mapping graphbuild.Mapping

	users, queries, items []graph.NodeID

	walDir  string
	servers []*rpc.Server
	cluster *rpc.Cluster
	eng     *engine.Engine

	t timings
}

func buildWorld(seed uint64, tmp string) (*world, error) {
	w := &world{seed: seed, t: timings{}}
	w.t.time("loggen.generate_s", func() {
		w.logs = loggen.MustGenerate(loggen.TaobaoConfig(worldScale, worldSeed))
	})
	w.t.time("graphbuild.build_s", func() {
		res := graphbuild.Build(w.logs, graphbuild.DefaultConfig())
		w.g, w.mapping = res.Graph, res.Mapping
	})
	w.users = w.g.NodesOfType(graph.User)
	w.queries = w.g.NodesOfType(graph.Query)
	w.items = w.g.NodesOfType(graph.Item)

	var err error
	if w.walDir, err = os.MkdirTemp(tmp, "wal-"); err != nil {
		return nil, err
	}
	var addrs []string
	per := numShards / numServers
	for s := 0; s < numServers; s++ {
		owned := make([]int, per)
		for i := range owned {
			owned[i] = s*per + i
		}
		var srv *rpc.Server
		w.t.time("rpc.server_build_s", func() {
			srv = rpc.NewServer(w.g, rpc.ServerConfig{
				Shards: numShards, Strategy: partition.Hash, Owned: owned, Replicas: 1,
				Locality: true, WALDir: w.walDir, Fsync: true,
			})
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.Close()
			return nil, err
		}
		srv.Start(ln)
		w.servers = append(w.servers, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	w.t.time("rpc.dial_s", func() {
		w.cluster, err = rpc.DialClusterWith(rpc.ClientConfig{}, addrs...)
	})
	if err != nil {
		w.Close()
		return nil, err
	}
	w.eng = w.cluster.Engine
	return w, nil
}

// Close stops the cluster client and the servers; the WAL directory
// stays for the replay probe until removeWAL.
func (w *world) Close() {
	if w.cluster != nil {
		w.cluster.Close()
		w.cluster = nil
	}
	for _, s := range w.servers {
		s.Close()
	}
	w.servers = nil
}

func (w *world) removeWAL() { os.RemoveAll(w.walDir) }

// opReads are the ops training reads the graph through.
var opReads = []rpc.Op{rpc.OpNeighbors, rpc.OpFeatures, rpc.OpContent}

// opCount sums an RPC op's served count over the servers.
func (w *world) opCount(ops ...rpc.Op) int64 {
	var n int64
	for _, s := range w.servers {
		for _, op := range ops {
			n += s.OpCount(op)
		}
	}
	return n
}

// view is the GraphView a model trains against: the remote engine.
func (w *world) view() core.EngineView { return core.EngineView{Engine: w.eng, M: w.mapping} }

// index is the exported model side of the serving tier: embedder and
// ANN index over every item.
type index struct {
	emb *serve.Embedder
	ix  *ann.Index
}

// buildIndex exports sw's item tower into an IVF index sized as
// servestack.Build sizes it.
func buildIndex(w *world, sw *core.ServingWeights) *index {
	emb := serve.NewEmbedder(sw)
	ids := make([]int64, len(w.items))
	vecs := make([]tensor.Vec, len(w.items))
	for i, it := range w.items {
		ids[i] = int64(it)
		vecs[i] = emb.Item(it)
	}
	ix := ann.Build(ids, vecs, ann.Config{NumLists: len(w.items) / 64, Iters: 6, Seed: worldSeed + 4})
	return &index{emb: emb, ix: ix}
}

// untrainedIndex is the retrieve workloads' model: serving cost does
// not depend on the weights (examples/serving does the same).
func untrainedIndex(w *world) *index {
	var idx *index
	w.t.time("ann.build_s", func() {
		model := core.NewZoomer(w.g, w.logs.Vocab(), core.DefaultConfig(), worldSeed+2)
		idx = buildIndex(w, model.ExportServing())
	})
	return idx
}

// tier is one serving tier over the world: neighbor cache, worker pool
// and gateway, from their public constructors.
type tier struct {
	cache *serve.NeighborCache
	srv   *serve.Server
	gw    *gateway.Gateway
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func newTier(w *world, idx *index, gen uint64) *tier {
	cfg := serveCfg
	cfg.Seed = w.seed + 10 + gen
	t := &tier{cache: serve.NewNeighborCache(w.eng, cfg.CacheK, w.seed+3+gen)}
	t.srv = serve.NewServer(idx.emb, t.cache, idx.ix, cfg)
	t.gw = gateway.New(t.srv, w.users, w.queries, w.g.NumNodes(), gateway.Config{Logger: quiet})
	t.gw.EnableIngest(appendFacet{w.cluster}, t.cache)
	return t
}

func (t *tier) Close() {
	t.srv.Close()
	t.cache.Close()
}

// warm touches every user and query once so the timed phases of the hot
// workloads never miss.
func (t *tier) warm(w *world) {
	w.t.time("serve.warm_s", func() {
		r := rng.New(w.seed + 20)
		for _, pool := range [][]graph.NodeID{w.users, w.queries} {
			for _, id := range pool {
				t.cache.Get(id, r).Release()
			}
		}
	})
}

// front is the harness's own HTTP listener. The gateway behind it can
// be swapped between cold sweeps without dropping client connections.
type front struct {
	ln      net.Listener
	srv     *http.Server
	handler atomic.Pointer[http.Handler]
	done    chan struct{}
}

func newFront() (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{ln: ln, done: make(chan struct{})}
	f.srv = &http.Server{Handler: http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		(*f.handler.Load()).ServeHTTP(rw, r)
	})}
	go func() {
		defer close(f.done)
		f.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return f, nil
}

func (f *front) serve(t *tier) {
	h := t.gw.Handler()
	f.handler.Store(&h)
}

func (f *front) addr() string { return f.ln.Addr().String() }

func (f *front) Close() {
	f.srv.Close()
	<-f.done
}

// appendFacet is the gateway's write facet over a remote cluster:
// appends go through the engine, ingest rows are polled live from the
// servers (what servestack.Stack does).
type appendFacet struct{ c *rpc.Cluster }

func (a appendFacet) Append(e []ingest.Edge) (int, error) { return a.c.Engine.Append(e) }
func (a appendFacet) IngestStats() []engine.IngestStats   { return a.c.IngestStats() }

func (w *world) String() string {
	return fmt.Sprintf("nodes=%d edges=%d users=%d queries=%d items=%d",
		w.g.NumNodes(), w.g.NumEdges(), len(w.users), len(w.queries), len(w.items))
}
