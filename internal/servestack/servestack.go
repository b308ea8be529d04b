package servestack

// Package servestack is the shared bring-up path of every serving binary
// (zoomer-serve, zoomer-gateway). Builds the synthetic world, trains and
// exports the trimmed model, stands up the engine (in-process partitions
// or a dialed zoomer-shard cluster), the neighbor cache, the ANN index
// and the worker-pool server — one call, one Close.

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"zoomer/internal/ann"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/ingest"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rpc"
	"zoomer/internal/serve"
	"zoomer/internal/tensor"
)

// StackConfig sizes a full serving stack.
type Config struct {
	Scale      string // tiny | small | medium | large
	Seed       uint64
	TrainSteps int // warm-up training steps before export

	Shards    int
	Strategy  string   // hash | degree-balanced
	Remote    []string // zoomer-shard addresses; empty = in-process
	RPCConns  int
	RPCWindow int

	Serve serve.Config // worker pool / cache sizing; zero fields defaulted
}

// ErrWorldSkew reports that the dialed shard servers hold a different
// world than the one this process generated (checked by node count).
var ErrWorldSkew = errors.New("servestack: remote cluster serves a different world")

// Stack is a fully wired serving stack. Close releases everything in
// reverse bring-up order.
type Stack struct {
	Graph    *graph.Graph
	Embedder *serve.Embedder
	Engine   *engine.Engine
	Cache    *serve.NeighborCache
	Index    *ann.Index
	Server   *serve.Server

	Users, Queries []graph.NodeID

	cluster   *rpc.Cluster
	closeOnce sync.Once
}

// BuildStack brings up a serving stack from cfg. logf (may be nil)
// receives progress lines — world building and training dominate
// bring-up time, and the caller's logger should say so.
func Build(cfg Config, logf func(format string, args ...any)) (*Stack, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	scales := map[string]loggen.Scale{
		"tiny": loggen.ScaleTiny, "small": loggen.ScaleSmall,
		"medium": loggen.ScaleMedium, "large": loggen.ScaleLarge,
	}
	sc, ok := scales[cfg.Scale]
	if !ok {
		return nil, fmt.Errorf("servestack: unknown scale %q", cfg.Scale)
	}
	strat, err := partition.ParseStrategy(cfg.Strategy)
	if err != nil {
		return nil, err
	}

	logf("building world and model (scale=%s seed=%d)...", cfg.Scale, cfg.Seed)
	logs := loggen.MustGenerate(loggen.TaobaoConfig(sc, cfg.Seed))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	g := res.Graph
	ds := loggen.BuildExamples(logs, 1, 0.2, cfg.Seed+1)
	train := core.InstancesFromExamples(ds.Train, res.Mapping)

	model := core.NewZoomer(g, logs.Vocab(), core.DefaultConfig(), cfg.Seed+2)
	tc := core.DefaultTrainConfig()
	tc.MaxSteps = cfg.TrainSteps
	// No test split: Train's closing full-split AUC is never read here,
	// and scoring it used to dominate bring-up.
	core.Train(model, train, nil, tc)

	logf("exporting serving weights and building index...")
	emb := serve.NewEmbedder(model.ExportServing())

	st := &Stack{Graph: g, Embedder: emb}
	if len(cfg.Remote) > 0 {
		addrs := make([]string, len(cfg.Remote))
		for i, a := range cfg.Remote {
			addrs[i] = strings.TrimSpace(a)
		}
		cluster, err := rpc.DialClusterWith(rpc.ClientConfig{Conns: cfg.RPCConns, Window: cfg.RPCWindow}, addrs...)
		if err != nil {
			return nil, err
		}
		if cluster.Info.NumNodes != g.NumNodes() {
			cluster.Close()
			return nil, fmt.Errorf("%w: remote cluster serves %d nodes, local world has %d — start zoomer-shard with the same -scale/-seed",
				ErrWorldSkew, cluster.Info.NumNodes, g.NumNodes())
		}
		st.cluster = cluster
		st.Engine = cluster.Engine
		logf("engine: %d remote shards (%s partitioning, routing epoch %d) behind %d servers",
			st.Engine.NumShards(), cluster.Info.Strategy, st.Engine.Routing().Epoch(), len(addrs))
	} else {
		st.Engine = engine.New(g, engine.Config{Shards: cfg.Shards, Strategy: strat, Locality: true})
		logf("engine: %d shards in-process", cfg.Shards)
	}

	scfg := serve.DefaultConfig()
	if cfg.Serve.Workers > 0 {
		scfg.Workers = cfg.Serve.Workers
	}
	if cfg.Serve.CacheK > 0 {
		scfg.CacheK = cfg.Serve.CacheK
	}
	if cfg.Serve.TopK > 0 {
		scfg.TopK = cfg.Serve.TopK
	}
	if cfg.Serve.NProbe > 0 {
		scfg.NProbe = cfg.Serve.NProbe
	}
	if cfg.Serve.QueueSize > 0 {
		scfg.QueueSize = cfg.Serve.QueueSize
	}
	scfg.Seed = cfg.Seed + 10

	st.Cache = serve.NewNeighborCache(st.Engine, scfg.CacheK, cfg.Seed+3)

	items := g.NodesOfType(graph.Item)
	ids := make([]int64, len(items))
	vecs := make([]tensor.Vec, len(items))
	for i, it := range items {
		ids[i] = int64(it)
		vecs[i] = emb.Item(it)
	}
	nlist := len(items) / 64
	if nlist < 4 {
		nlist = 4
	}
	st.Index = ann.Build(ids, vecs, ann.Config{NumLists: nlist, Iters: 6, Seed: cfg.Seed + 4})

	st.Server = serve.NewServer(emb, st.Cache, st.Index, scfg)
	st.Users = g.NodesOfType(graph.User)
	st.Queries = g.NodesOfType(graph.Query)
	return st, nil
}

// Append routes an edge batch into the graph's delta layer (over the
// durable append op when the shards are remote). The Stack is the
// gateway's write-path facet, so `gateway.EnableIngest(stack, ...)`
// works for both topologies.
func (st *Stack) Append(edges []ingest.Edge) (int, error) {
	return st.Engine.Append(edges)
}

// IngestStats reports the per-shard write-path rows. Remote shards are
// polled live (the cluster's routing-epoch sweep carries the rows), so
// a /metrics scrape sees write progress without waiting for an
// ownership refresh; in-process shards read their engine directly.
func (st *Stack) IngestStats() []engine.IngestStats {
	if st.cluster != nil {
		return st.cluster.IngestStats()
	}
	return st.Engine.IngestStats()
}

// Close tears the stack down in reverse bring-up order: the worker pool
// first (no new cache/engine reads), then the cache refreshers, then the
// RPC cluster when the shards are remote.
// Safe to call more than once.
func (st *Stack) Close() {
	st.closeOnce.Do(func() {
		if st.Server != nil {
			st.Server.Close()
		}
		if st.Cache != nil {
			st.Cache.Close()
		}
		if st.cluster != nil {
			st.cluster.Close()
		}
	})
}
