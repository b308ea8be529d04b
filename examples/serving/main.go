// Serving: the Fig. 9 scenario in miniature — run the online retrieval
// service (trimmed model, async neighbor cache, IVF index) under rising
// offered load and watch response time climb as the worker pool
// saturates. The graph sits behind the partitioned engine: -shards sizes
// the store, and the sweep prints how load spreads over the shards. With -remote the partitions are served by two in-process
// TCP shard servers and the serving tier talks to them over loopback —
// the full distributed deployment in one binary, returning bit-identical
// samples to the in-process engine.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"zoomer/internal/ann"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/rpc"
	"zoomer/internal/serve"
	"zoomer/internal/tensor"
)

func main() {
	shards := flag.Int("shards", 4, "graph engine partitions")
	remote := flag.Bool("remote", false, "serve the shards over loopback TCP instead of in-process")
	flag.Parse()

	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 31))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	g := res.Graph

	cfg := core.DefaultConfig()
	cfg.EmbedDim, cfg.OutDim = 16, 16
	cfg.Hops, cfg.FanOut = 1, 5
	model := core.NewZoomer(g, logs.Vocab(), cfg, 32)
	// Untrained weights are fine: serving latency is weight-independent.

	emb := serve.NewEmbedder(model.ExportServing())
	var eng *engine.Engine
	if *remote {
		// Two shard servers splitting the partitions, exactly as separate
		// zoomer-shard processes would.
		half := (*shards + 1) / 2
		var addrs []string
		for _, owned := range [][]int{seq(0, half), seq(half, *shards)} {
			if len(owned) == 0 {
				continue
			}
			srv := rpc.NewServer(g, rpc.ServerConfig{Shards: *shards, Owned: owned})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			srv.Start(ln)
			defer srv.Close()
			addrs = append(addrs, ln.Addr().String())
		}
		cluster, err := rpc.DialCluster(addrs...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cluster.Close()
		eng = cluster.Engine
		fmt.Printf("engine: %d remote shards behind %d loopback servers %v\n",
			eng.NumShards(), len(addrs), addrs)
	} else {
		eng = engine.New(g, engine.Config{Shards: *shards})
	}
	es := eng.Stats()
	fmt.Printf("engine: %d shards, nodes/shard %v\n", es.Shards, es.NodesPerShard)
	cache := serve.NewNeighborCache(eng, 30, 33)
	defer cache.Close()

	items := g.NodesOfType(graph.Item)
	ids := make([]int64, len(items))
	vecs := make([]tensor.Vec, len(items))
	for i, it := range items {
		ids[i] = int64(it)
		vecs[i] = emb.Item(it)
	}
	index := ann.Build(ids, vecs, ann.Config{NumLists: 8, Iters: 4, Seed: 34})

	scfg := serve.DefaultConfig()
	scfg.Workers = 2
	srv := serve.NewServer(emb, cache, index, scfg)
	defer srv.Close()

	users := g.NodesOfType(graph.User)
	queries := g.NodesOfType(graph.Query)
	if _, err := serve.LoadTest(srv, users, queries, 500, 100*time.Millisecond, 35); err != nil { // warm caches
		panic(err)
	}

	fmt.Printf("%-8s  %-12s  %-12s  %-8s  %s\n", "QPS", "mean RT", "p99 RT", "served", "shard load")
	prev := eng.Stats().RequestsPerShard
	for i, qps := range []float64{500, 2000, 8000, 30000} {
		st, err := serve.LoadTest(srv, users, queries, qps, 300*time.Millisecond, 36+uint64(i))
		if err != nil {
			panic(err)
		}
		cur := eng.Stats().RequestsPerShard
		loads := make([]int64, len(cur))
		for s := range loads {
			loads[s] = cur[s] - prev[s]
		}
		prev = cur
		fmt.Printf("%-8.0f  %-12s  %-12s  %-8d  %v\n", qps, st.MeanRT, st.P99, st.Served, loads)
	}
	hits, misses, refreshes := cache.Stats()
	fmt.Printf("cache: %d hits / %d misses / %d async refreshes\n", hits, misses, refreshes)
	final := eng.Stats()
	fmt.Printf("engine: per-shard requests %v (imbalance %.2f)\n", final.RequestsPerShard, final.Imbalance)
}

// seq returns [lo, hi) as a slice.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
