// Serving: the Fig. 9 scenario in miniature — run the online retrieval
// service (trimmed model, async neighbor cache, IVF index) under rising
// offered load and watch response time climb once every worker state
// is busy. The graph sits behind the partitioned engine: -shards sizes
// the store, and the sweep prints how load spreads over the shards. With
// -remote the partitions are served by two in-process TCP shard servers
// and the serving tier talks to them over loopback — the full distributed
// deployment in one binary, returning bit-identical samples to the
// in-process engine. The tier is stood up by the calls zoomer-gateway
// makes (servestack.Connect + Assemble), and swept by the same open-loop
// driver as the Fig. 9 experiment (servestack's Offer).
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/rpc"
	"zoomer/internal/serve"
	"zoomer/internal/servestack"
)

func main() {
	shards := flag.Int("shards", 4, "graph engine partitions")
	remote := flag.Bool("remote", false, "serve the shards over loopback TCP instead of in-process")
	flag.Parse()

	w := core.BuildWorld(loggen.TaobaoConfig(loggen.ScaleTiny, 31))
	g := w.Graph

	cfg := core.DefaultConfig()
	cfg.EmbedDim, cfg.OutDim = 16, 16
	cfg.Hops, cfg.FanOut = 1, 5
	model := core.NewZoomer(g, w.Logs.Vocab(), cfg, 32)
	// Untrained weights are fine: serving latency is weight-independent.

	var addrs []string
	if *remote {
		// Two shard servers splitting the partitions, exactly as separate
		// zoomer-shard processes would.
		half := (*shards + 1) / 2
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
		fmt.Printf("engine: loopback shard servers %v\n", addrs)
	}
	// The same two calls zoomer-gateway's bring-up makes: connect the
	// store (dialing the servers above, or partitioning in-process), then
	// stand the tier up over it — neighbor cache, item index, retrieval
	// server with two worker states.
	store, err := servestack.Connect(g, engine.Config{Shards: *shards}, addrs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	es := store.Stats()
	fmt.Printf("engine: %s, nodes/shard %v\n", store, es.NodesPerShard)

	scfg := serve.DefaultConfig()
	scfg.Workers = 2
	tier := servestack.Assemble(store, serve.NewEmbedder(model.ExportServing()), g.NodesOfType(graph.Item), scfg, 33)
	defer tier.Close()

	users := g.NodesOfType(graph.User)
	queries := g.NodesOfType(graph.Query)
	tier.Offer(users, queries, 500, 100*time.Millisecond, 35) // warm caches

	fmt.Printf("%-8s  %-12s  %-12s  %-8s  %s\n", "QPS", "mean RT", "p99 RT", "served", "shard load")
	prev := store.Stats().RequestsPerShard
	for i, qps := range []float64{500, 2000, 8000, 30000, 100000} {
		pt := tier.Offer(users, queries, qps, 300*time.Millisecond, 36+uint64(i))
		cur := store.Stats().RequestsPerShard
		loads := make([]int64, len(cur))
		for s := range loads {
			loads[s] = cur[s] - prev[s]
		}
		prev = cur
		fmt.Printf("%-8.0f  %-12s  %-12s  %-8d  %v\n", qps, pt.MeanRT, pt.P99, pt.Served, loads)
	}
	hits, misses, refreshes := tier.Cache.Stats()
	fmt.Printf("cache: %d hits / %d misses / %d async refreshes\n", hits, misses, refreshes)
	final := store.Stats()
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
