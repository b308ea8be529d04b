// Command zoomer-serve stands up the online serving stack (trimmed model,
// neighbor caches, two-layer ANN index) and runs an open-loop load sweep,
// printing response time against offered QPS.
//
// Usage:
//
//	zoomer-serve -scale small -qps 1000,5000,20000 -duration 500ms
//
// With -remote the graph store is a cluster of zoomer-shard servers
// instead of in-process partitions; the shard servers must be started
// with the same -scale/-seed/-shards/-partition so they serve the
// identical graph (the engine's reads are then bit-identical — the
// loopback equivalence tests pin that down):
//
//	zoomer-shard -scale small -seed 1 -shards 4 -own 0,1 -listen :7001 &
//	zoomer-shard -scale small -seed 1 -shards 4 -own 2,3 -listen :7002 &
//	zoomer-serve -scale small -seed 1 -remote localhost:7001,localhost:7002
//
// Each shard server is reached through a small bounded pool of
// multiplexed connections shared by every worker and cache refresher:
// -rpc-conns bounds the pool, -rpc-window the in-flight requests per
// connection. A server that stops answering trips a consecutive-failure
// circuit — one probe call redials at a time while the rest fail fast
// with typed errors — instead of every caller redialing per call.
//
// Shard ownership may move between the dialed servers at runtime
// (zoomer-shard -admin -acquire/-release): the serving tier follows the
// handoff on its own — the first request hitting a drained partition is
// redirected, ownership is re-resolved and the request retried against
// the new owner — so draining a shard server for maintenance needs no
// restart here. See docs/OPERATIONS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"zoomer/internal/ann"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rpc"
	"zoomer/internal/serve"
	"zoomer/internal/tensor"
)

func main() {
	scale := flag.String("scale", "small", "tiny | small | medium | large")
	qpsList := flag.String("qps", "1000,2000,5000,10000,20000,50000", "comma-separated offered QPS points")
	duration := flag.Duration("duration", 400*time.Millisecond, "measurement window per point")
	workers := flag.Int("workers", 4, "serving workers")
	cacheK := flag.Int("cachek", 30, "cached neighbors per node")
	shards := flag.Int("shards", 4, "graph engine partitions")
	strategy := flag.String("partition", "hash", "node-to-shard assignment: hash | degree-balanced")
	remote := flag.String("remote", "", "comma-separated zoomer-shard addresses (empty: in-process shards)")
	rpcConns := flag.Int("rpc-conns", 0, "multiplexed connections per shard server (0 = default 2)")
	rpcWindow := flag.Int("rpc-window", 0, "in-flight requests per connection (0 = default 32)")
	trainSteps := flag.Int("train", 100, "warm-up training steps before export")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	strat, err := partition.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	scales := map[string]loggen.Scale{
		"tiny": loggen.ScaleTiny, "small": loggen.ScaleSmall,
		"medium": loggen.ScaleMedium, "large": loggen.ScaleLarge,
	}
	sc, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	var qps []float64
	for _, s := range strings.Split(*qpsList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad qps %q: %v\n", s, err)
			os.Exit(2)
		}
		if v <= 0 {
			fmt.Fprintf(os.Stderr, "bad qps %q: sweep points must be positive (the open-loop submitter derives its inter-arrival gap from the rate)\n", s)
			os.Exit(2)
		}
		qps = append(qps, v)
	}

	fmt.Println("building world and model...")
	logs := loggen.MustGenerate(loggen.TaobaoConfig(sc, *seed))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	g := res.Graph
	ds := loggen.BuildExamples(logs, 1, 0.2, *seed+1)
	train := core.InstancesFromExamples(ds.Train, res.Mapping)
	test := core.InstancesFromExamples(ds.Test, res.Mapping)

	model := core.NewZoomer(g, logs.Vocab(), core.DefaultConfig(), *seed+2)
	tc := core.DefaultTrainConfig()
	tc.MaxSteps = *trainSteps
	core.Train(model, train, test, tc)

	fmt.Println("exporting serving weights and building index...")
	emb := serve.NewEmbedder(model.ExportServing())
	var eng *engine.Engine
	if *remote != "" {
		addrs := strings.Split(*remote, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		cluster, err := rpc.DialClusterWith(rpc.ClientConfig{Conns: *rpcConns, Window: *rpcWindow}, addrs...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cluster.Close()
		if cluster.Info.NumNodes != g.NumNodes() {
			fmt.Fprintf(os.Stderr, "remote cluster serves %d nodes, local world has %d — start zoomer-shard with the same -scale/-seed\n",
				cluster.Info.NumNodes, g.NumNodes())
			os.Exit(1)
		}
		eng = cluster.Engine
		fmt.Printf("engine: %d remote shards (%s partitioning, routing epoch %d) behind %d servers\n",
			eng.NumShards(), cluster.Info.Strategy, eng.Routing().Epoch(), len(addrs))
	} else {
		eng = engine.New(g, engine.Config{Shards: *shards, Strategy: strat, Locality: true})
	}
	st := eng.Stats()
	fmt.Printf("engine: %d shards, replicas/shard %v, nodes/shard %v, edges/shard %v\n",
		st.Shards, st.ReplicasPerShard, st.NodesPerShard, st.EdgesPerShard)
	cache := serve.NewNeighborCache(eng, *cacheK, *seed+3)
	defer cache.Close()

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
	index := ann.Build(ids, vecs, ann.Config{NumLists: nlist, Iters: 6, Seed: *seed + 4})

	scfg := serve.DefaultConfig()
	scfg.Workers = *workers
	scfg.CacheK = *cacheK
	srv := serve.NewServer(emb, cache, index, scfg)
	defer srv.Close()

	users := g.NodesOfType(graph.User)
	queries := g.NodesOfType(graph.Query)
	// Cache warm-up.
	if _, err := serve.LoadTest(srv, users, queries, 500, 100*time.Millisecond, *seed+5); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%-10s %-14s %-14s %-10s %-10s %s\n", "QPS", "mean RT (ms)", "p99 RT (ms)", "served", "dropped", "shard load")
	prev := eng.Stats().RequestsPerShard
	for i, q := range qps {
		st, err := serve.LoadTest(srv, users, queries, q, *duration, *seed+6+uint64(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		es := eng.Stats()
		loads := make([]int64, len(es.RequestsPerShard))
		for s := range loads {
			loads[s] = es.RequestsPerShard[s] - prev[s]
		}
		prev = es.RequestsPerShard
		fmt.Printf("%-10.0f %-14.3f %-14.3f %-10d %-10d %v\n",
			q, float64(st.MeanRT.Microseconds())/1000, float64(st.P99.Microseconds())/1000,
			st.Served, st.Dropped, loads)
	}
	hits, misses, refreshes := cache.Stats()
	fmt.Printf("cache: %d hits / %d misses / %d async refreshes\n", hits, misses, refreshes)
	final := eng.Stats()
	fmt.Printf("engine: per-shard requests %v (max/mean imbalance %.2f)\n", final.RequestsPerShard, final.Imbalance)
}
