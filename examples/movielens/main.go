// MovieLens benchmark: the Table II scenario — compare Zoomer against a
// heterogeneous-attention baseline (HAN) on the MovieLens-mode dataset
// (user/tag/movie graph, one-hop aggregation, binary interacted-under-tag
// labels).
package main

import (
	"fmt"

	"zoomer/internal/baselines"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/loggen"
)

func main() {
	cfg := loggen.MovieLensConfig(21)
	// Keep the example fast; the full-size run lives in the Table II
	// harness (cmd/zoomer-experiments -exp table2).
	cfg.Users, cfg.Queries, cfg.Items = 300, 60, 400
	cfg.Topics = 8
	res := core.BuildWorld(cfg)
	logs := res.Logs
	fmt.Printf("movielens world: %d users, %d tags, %d movies\n",
		len(logs.Users), len(logs.Queries), len(logs.Items))

	train, test := res.Instances(1, 22)
	fmt.Printf("examples: %d train / %d test\n", len(train), len(test))

	// Train through the sharded engine — the same read path the serving
	// tier uses; draws are bit-identical to the monolithic graph.
	eng := engine.New(res.Graph, engine.DefaultConfig())
	view := core.EngineView{Engine: eng, M: res.Mapping}

	v := logs.Vocab()
	mcfg := core.DefaultConfig()
	mcfg.EmbedDim, mcfg.OutDim = 16, 16
	mcfg.Hops, mcfg.FanOut = 1, 5 // MovieLens uses one-hop aggregation

	models := []core.Model{
		baselines.NewHAN(view, v, mcfg, 23),
		core.NewZoomer(view, v, mcfg, 24),
	}
	tc := core.DefaultTrainConfig()
	tc.Epochs = 2
	tc.MaxSteps = 300
	for _, m := range models {
		out := core.Train(m, train, test, tc)
		fmt.Printf("%-8s AUC %.2f (%d steps, %.1fs)\n",
			m.Name(), out.TestAUC*100, out.Steps, out.Duration.Seconds())
	}
}
