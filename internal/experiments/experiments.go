// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) on the synthetic substrate: one entry point per
// experiment id (fig4a … fig13, table2 … table4), each returning a result
// struct whose String method prints rows in the paper's format.
//
// Options.Quick shrinks datasets and training budgets so the whole suite
// runs in CI; the full-size settings are what cmd/zoomer-experiments and
// the root bench harness use. Absolute numbers differ from the paper (its
// substrate was a 1000-worker cluster on real traffic); the shapes —
// who wins, roughly by how much, where curves bend — are the
// reproduction target. See EXPERIMENTS.md for paper-vs-measured notes.
package experiments

import (
	"fmt"
	"strings"

	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
)

// Options configures an experiment run.
type Options struct {
	Seed  uint64
	Quick bool // CI-sized budgets
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// world bundles a generated dataset with its graph, the sharded engine
// serving it, and the instance splits. Models read through view, so
// every experiment exercises the partitioned read path the serving tier
// uses — bit-identical to the monolithic graph by the engine's
// equivalence suite (and this package's cross-topology training suite).
type world struct {
	logs  *loggen.Logs
	res   *graphbuild.Result
	eng   *engine.Engine
	view  core.GraphView
	train []core.Instance
	test  []core.Instance
}

func buildWorld(cfg loggen.Config, negPerPos int, seed uint64) *world {
	cw := core.BuildWorld(cfg)
	train, test := cw.Instances(negPerPos, seed+100)
	eng := engine.New(cw.Graph, engine.DefaultConfig())
	return &world{
		logs:  cw.Logs,
		res:   cw.Result,
		eng:   eng,
		view:  core.EngineView{Engine: eng, M: cw.Mapping},
		train: train,
		test:  test,
	}
}

// taobaoWorld returns the analog of one of the paper's Taobao graphs.
func (o Options) taobaoWorld(scale loggen.Scale) *world {
	if o.Quick {
		scale = loggen.ScaleTiny
	}
	return buildWorld(loggen.TaobaoConfig(scale, o.Seed), 1, o.Seed)
}

// budgets returns (epochs, maxSteps, batch) for training runs. Full-size
// budgets are sized for a single machine: enough steps that model
// rankings stabilize (the reproduction target), not full convergence.
func (o Options) budgets() (epochs, maxSteps, batch int) {
	if o.Quick {
		return 1, 60, 16
	}
	return 2, 150, 16
}

// modelConfig returns the configuration every model — Zoomer and each
// baseline — is built with.
func (o Options) modelConfig() core.Config {
	cfg := core.DefaultConfig()
	if o.Quick {
		cfg.EmbedDim, cfg.OutDim = 16, 16
		cfg.Hops, cfg.FanOut = 1, 4
	}
	return cfg
}

func (o Options) trainConfig() core.TrainConfig {
	tc := core.DefaultTrainConfig()
	tc.Seed = o.Seed + 7
	tc.Epochs, tc.MaxSteps, tc.BatchSize = o.budgets()
	return tc
}

// table renders rows with a header in aligned plain text.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
