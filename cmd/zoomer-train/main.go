// Command zoomer-train trains Zoomer or a baseline on a synthetic Taobao
// graph and reports test AUC. Training reads the graph through the
// core.GraphView seam, so the same run can sample from the monolithic
// in-process graph, a local sharded engine, or a remote zoomer-shard
// cluster — with bit-identical results (see the cross-topology
// equivalence suite in internal/experiments).
//
// Usage:
//
//	zoomer-train -model zoomer -scale small -epochs 3
//	zoomer-train -model graphsage -fanout 10 -steps 500
//	zoomer-train -shards 4 -partition degree-balanced    # local sharded engine
//
// Distributed training: start shard servers with the same world
// parameters, then point -remote at them (the runbook lives in
// docs/OPERATIONS.md):
//
//	zoomer-shard -scale small -seed 1 -shards 4 -own 0,1 -listen :7001 &
//	zoomer-shard -scale small -seed 1 -shards 4 -own 2,3 -listen :7002 &
//	zoomer-train -scale small -seed 1 -remote localhost:7001,localhost:7002
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"zoomer/internal/baselines"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rpc"
	"zoomer/internal/servestack"
)

func main() {
	model := flag.String("model", "zoomer", "zoomer | gcn | graphsage | pinsage | pinnersage | pixie | han | gce-gnn | fgnn | stamp | mccf")
	scale := flag.String("scale", "small", "tiny | small | medium | large")
	epochs := flag.Int("epochs", 3, "training epochs")
	steps := flag.Int("steps", 0, "max training steps (0 = epoch-bounded)")
	batch := flag.Int("batch", 32, "batch size")
	fanout := flag.Int("fanout", 10, "sampled neighbors per hop")
	hops := flag.Int("hops", 2, "aggregation depth")
	dim := flag.Int("dim", 32, "embedding dimensionality")
	lr := flag.Float64("lr", 0.01, "learning rate")
	seed := flag.Uint64("seed", 1, "random seed")
	shards := flag.Int("shards", 0, "train over a local sharded engine with this many partitions (0 = monolithic graph)")
	strategy := flag.String("partition", "hash", "node-to-shard assignment: hash | degree-balanced")
	locality := flag.Bool("locality", true, "BFS shard-locality reordering (sharded engine only)")
	remote := flag.String("remote", "", "comma-separated zoomer-shard addresses (train over the RPC engine)")
	flag.Parse()

	if *dim < 1 {
		fmt.Fprintf(os.Stderr, "bad -dim %d: need at least one embedding dimension\n", *dim)
		os.Exit(2)
	}
	sc, err := loggen.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -scale: %v\n", err)
		os.Exit(2)
	}
	strat, err := partition.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -partition: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("generating %s world...\n", sc)
	w := core.BuildWorld(loggen.TaobaoConfig(sc, *seed))
	st := w.Graph.Stats()
	fmt.Printf("graph: %d nodes (%d users / %d queries / %d items), %d edges\n",
		st.Nodes, st.NodesByType[graph.User], st.NodesByType[graph.Query], st.NodesByType[graph.Item], st.Edges)
	train, test := w.Instances(1, *seed+1)
	fmt.Printf("examples: %d train / %d test\n", len(train), len(test))

	// The graph view training samples through: monolithic graph by
	// default, a local sharded engine with -shards, a dialed cluster of
	// zoomer-shard servers with -remote.
	var view core.GraphView = w.Graph
	if *remote != "" || *shards > 0 {
		var addrs []string
		if *remote != "" {
			addrs = strings.Split(*remote, ",")
		}
		b, err := servestack.Connect(w.Graph, engine.Config{Shards: *shards, Strategy: strat, Locality: *locality}, addrs, rpc.ClientConfig{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer b.Close()
		view = core.EngineView{Engine: b.Engine, M: w.Mapping}
		fmt.Printf("engine: %s\n", b)
	}

	v := w.Logs.Vocab()
	var m core.Model
	switch *model {
	case "zoomer", "gcn", "zoomer-fe", "zoomer-fs", "zoomer-es":
		cfg := core.DefaultConfig()
		cfg.EmbedDim, cfg.OutDim = *dim, *dim
		cfg.Hops, cfg.FanOut = *hops, *fanout
		switch *model {
		case "gcn":
			cfg.UseFeatureProj, cfg.UseEdgeAttn, cfg.UseSemanticAttn = false, false, false
		case "zoomer-fe":
			cfg.UseSemanticAttn = false
		case "zoomer-fs":
			cfg.UseEdgeAttn = false
		case "zoomer-es":
			cfg.UseFeatureProj = false
		}
		m = core.NewZoomer(view, v, cfg, *seed+2)
	default:
		cfg := baselines.DefaultConfig()
		cfg.EmbedDim, cfg.OutDim = *dim, *dim
		cfg.Hops, cfg.FanOut = *hops, *fanout
		ctor := map[string]func(core.GraphView, loggen.Vocab, baselines.Config, uint64) core.Model{
			"graphsage":  baselines.NewGraphSAGE,
			"pinsage":    baselines.NewPinSage,
			"pinnersage": baselines.NewPinnerSage,
			"pixie":      baselines.NewPixie,
			"han":        baselines.NewHAN,
			"gce-gnn":    baselines.NewGCEGNN,
			"fgnn":       baselines.NewFGNN,
			"stamp":      baselines.NewSTAMP,
			"mccf":       baselines.NewMCCF,
		}[*model]
		if ctor == nil {
			fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
			os.Exit(2)
		}
		m = ctor(view, v, cfg, *seed+2)
	}

	tc := core.DefaultTrainConfig()
	tc.Epochs = *epochs
	tc.MaxSteps = *steps
	tc.BatchSize = *batch
	tc.LR = float32(*lr)
	tc.Seed = *seed + 3
	tc.Logf = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }

	fmt.Printf("training %s...\n", m.Name())
	out := core.Train(m, train, test, tc)
	fmt.Printf("done: %d steps in %.1fs, final loss %.4f, test AUC %.4f\n",
		out.Steps, out.Duration.Seconds(), out.FinalLoss, out.TestAUC)
}
