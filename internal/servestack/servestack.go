// Package servestack is the one bring-up path over a world's graph.
// Connect reaches the graph store — in-process partitions or a dialed
// zoomer-shard cluster — and carries the only world-skew check in the
// tree; Assemble stands the serving tier up over a connected store
// (neighbor cache, item-tower ANN index, retrieval server); Build is the
// whole of it for zoomer-gateway: world, warm-up training and export,
// Connect, Assemble — one call, one Close. zoomer-train connects its
// sharded and remote views through Connect; the Fig. 9 experiment and
// examples/serving stand their tiers up through Assemble and sweep them
// with Offer.
package servestack

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"zoomer/internal/ann"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/openloop"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/rpc"
	"zoomer/internal/serve"
	"zoomer/internal/tensor"
)

// Config sizes a full serving stack.
type Config struct {
	Scale      loggen.Scale
	Seed       uint64
	TrainSteps int // warm-up training steps before export; 0 exports the initial model

	Shards   int
	Strategy partition.Strategy
	Remote   []string // zoomer-shard addresses; empty = in-process

	Workers int // serve worker states (retrievals at once); 0 takes serve.DefaultConfig's
}

// ErrWorldSkew reports that the dialed shard servers hold a different
// world than the one this process generated (checked by node count).
var ErrWorldSkew = errors.New("servestack: remote cluster serves a different world")

// Backend is a connected graph store: the engine every read goes
// through, plus the cluster connections behind it when the shards are
// remote. Close and IngestStats shadow the engine's so one value does
// the right thing for both topologies.
type Backend struct {
	*engine.Engine
	cluster *rpc.Cluster // nil when the shards are in-process
}

// Connect reaches g's graph store. With remote addresses it dials the
// zoomer-shard cluster and refuses one that holds a different world
// than g; without, it partitions g in-process under ecfg.
func Connect(g *graph.Graph, ecfg engine.Config, remote []string) (*Backend, error) {
	if len(remote) == 0 {
		return &Backend{Engine: engine.New(g, ecfg)}, nil
	}
	addrs := make([]string, len(remote))
	for i, a := range remote {
		addrs[i] = strings.TrimSpace(a)
	}
	cluster, err := rpc.DialClusterWith(rpc.ClientConfig{}, addrs...)
	if err != nil {
		return nil, err
	}
	if cluster.Info.NumNodes != g.NumNodes() {
		cluster.Close()
		return nil, fmt.Errorf("%w: it holds %d nodes, the local world has %d — start zoomer-shard with the same -scale/-seed",
			ErrWorldSkew, cluster.Info.NumNodes, g.NumNodes())
	}
	return &Backend{Engine: cluster.Engine, cluster: cluster}, nil
}

// String describes the store for bring-up logs.
func (b *Backend) String() string {
	if b.cluster == nil {
		return fmt.Sprintf("%d shards in-process", b.NumShards())
	}
	return fmt.Sprintf("%d remote shards (%s partitioning, routing epoch %d)",
		b.NumShards(), b.cluster.Info.Strategy, b.Routing().Epoch())
}

// IngestStats reports the per-shard write-path rows. Remote shards are
// polled live (the cluster's routing-epoch sweep carries the rows), so
// a /metrics scrape sees write progress without waiting for an
// ownership refresh; in-process shards read their engine directly.
func (b *Backend) IngestStats() []engine.IngestStats {
	if b.cluster != nil {
		return b.cluster.IngestStats()
	}
	return b.Engine.IngestStats()
}

// Close releases the cluster's connections when the shards are remote;
// an in-process engine owns nothing to release.
func (b *Backend) Close() {
	if b.cluster != nil {
		b.cluster.Close()
	}
}

// Stack is a wired serving tier over a connected store. It embeds the
// Backend, so it is the gateway's write-path and metrics facet
// (Append, IngestStats, Stats) for both topologies. Close releases
// everything in reverse bring-up order.
type Stack struct {
	*Backend
	Embedder *serve.Embedder
	Cache    *serve.NeighborCache
	Index    *ann.Index
	Server   *serve.Server

	// Set by Build only.
	Graph          *graph.Graph
	Users, Queries []graph.NodeID

	closeOnce sync.Once
}

// ItemIndex builds the ANN index over the item tower — embed(item) for
// every item, in order — under the one sizing rule: a list per 64
// items, never fewer than 4.
func ItemIndex(items []graph.NodeID, embed func(graph.NodeID) tensor.Vec, seed uint64) *ann.Index {
	ids := make([]int64, len(items))
	vecs := make([]tensor.Vec, len(items))
	for i, it := range items {
		ids[i] = int64(it)
		vecs[i] = embed(it)
	}
	return ann.Build(ids, vecs, ann.Config{NumLists: max(4, len(items)/64), Iters: 6, Seed: seed})
}

// Assemble stands the serving tier up over b: the neighbor cache
// (seeded seed), the item-tower index (seed+1) and the retrieval server
// with scfg's worker states.
// The returned Stack owns b.
func Assemble(b *Backend, emb *serve.Embedder, items []graph.NodeID, scfg serve.Config, seed uint64) *Stack {
	st := &Stack{Backend: b, Embedder: emb}
	st.Cache = serve.NewNeighborCache(b.Engine, scfg.CacheK, seed)
	st.Index = ItemIndex(items, emb.Item, seed+1)
	st.Server = serve.NewServer(emb, st.Cache, st.Index, scfg)
	return st
}

// offerClients caps Offer's requests in flight: enough to keep every
// worker state busy, and few enough that the clients' own wake-ups leave
// the server its cores. More would measure nothing more: past the knee a
// backlog is charged from its due times whether it waits for a worker
// state or for a free client.
const offerClients = 64

// Offered is one open-loop run against a Stack's server. Served counts
// the requests answered with items; the response times cover every
// request, timed as openloop.Run times them.
type Offered struct {
	Served      int64
	MeanRT, P99 time.Duration
}

// Offer drives st.Server in-process with qps × d requests, at the
// positive rate qps, on an open-loop schedule. The (user, query) pairs
// are drawn from seed before the run starts.
func (st *Stack) Offer(users, queries []graph.NodeID, qps float64, d time.Duration, seed uint64) Offered {
	n := int(math.Round(qps * d.Seconds()))
	reqs := make([]serve.Request, n)
	r := rng.New(seed)
	for i := range reqs {
		reqs[i] = serve.Request{User: users[r.Intn(len(users))], Query: queries[r.Intn(len(queries))]}
	}
	res := openloop.Run(offerClients, n, time.Duration(float64(time.Second)/qps), func(_, slot int) bool {
		return st.Server.Retrieve(reqs[slot]).Err == nil
	})
	out := Offered{Served: int64(n - res.Failed), P99: openloop.Percentiles(res.Lat, 0.99)[0]}
	for _, l := range res.Lat {
		out.MeanRT += l / time.Duration(n)
	}
	return out
}

// Build brings up a serving stack from cfg. logf (may be nil) receives
// progress lines — world building and training dominate bring-up time,
// and the caller's logger should say so.
func Build(cfg Config, logf func(format string, args ...any)) (*Stack, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("building world and model (scale=%s seed=%d)...", cfg.Scale, cfg.Seed)
	w := core.BuildWorld(loggen.TaobaoConfig(cfg.Scale, cfg.Seed))
	model := core.NewZoomer(w.Graph, w.Logs.Vocab(), core.DefaultConfig(), cfg.Seed+2)
	// Zero steps exports the initial model: core.Train reads MaxSteps 0
	// as unbounded. No test split: Train's closing full-split AUC is never
	// read here, and scoring it used to dominate bring-up.
	if cfg.TrainSteps > 0 {
		train, _ := w.Instances(1, cfg.Seed+1)
		tc := core.DefaultTrainConfig()
		tc.MaxSteps = cfg.TrainSteps
		core.Train(model, train, nil, tc)
	}

	logf("exporting serving weights and building index...")
	emb := serve.NewEmbedder(model.ExportServing())
	b, err := Connect(w.Graph, engine.Config{Shards: cfg.Shards, Strategy: cfg.Strategy, Locality: true}, cfg.Remote)
	if err != nil {
		return nil, err
	}
	logf("engine: %s", b)

	scfg := serve.DefaultConfig()
	if cfg.Workers > 0 {
		scfg.Workers = cfg.Workers
	}
	scfg.Seed = cfg.Seed + 10
	st := Assemble(b, emb, w.Graph.NodesOfType(graph.Item), scfg, cfg.Seed+3)
	st.Graph = w.Graph
	st.Users = w.Graph.NodesOfType(graph.User)
	st.Queries = w.Graph.NodesOfType(graph.Query)
	return st, nil
}

// Close tears the stack down in reverse bring-up order: the server first
// (it waits out in-flight retrievals, so no new cache/engine reads), then
// the cache refreshers, then the store. Safe to call more than once.
func (st *Stack) Close() {
	st.closeOnce.Do(func() {
		st.Server.Close()
		st.Cache.Close()
		st.Backend.Close()
	})
}
