package experiments

import (
	"fmt"
	"time"

	"zoomer/internal/baselines"
	"zoomer/internal/core"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
)

// Fig10Row is one (model, scale) training-time measurement.
type Fig10Row struct {
	Model   string
	Scale   string
	Seconds float64
	AUC     float64
}

// Fig10Result is training time to a target AUC versus graph scale.
type Fig10Result struct {
	TargetAUC float64
	Rows      []Fig10Row
}

// String prints the matrix.
func (r Fig10Result) String() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Model, row.Scale,
			fmt.Sprintf("%.2fs", row.Seconds), fmt.Sprintf("%.3f", row.AUC)}
	}
	return fmt.Sprintf("Fig 10: training time to AUC %.2f vs graph scale\n", r.TargetAUC) +
		table([]string{"model", "scale", "time", "final AUC"}, rows)
}

// Fig10 reproduces the scalability experiment: train Zoomer and GCE-GNN
// to a target AUC (0.6 in the paper) on the three graph scales with
// sampling number 5 and 2-layer aggregation, recording wall-clock time.
func Fig10(o Options) Fig10Result {
	target := 0.6
	scales := []loggen.Scale{loggen.ScaleSmall, loggen.ScaleMedium, loggen.ScaleLarge}
	if o.Quick {
		target = 0.52
		scales = []loggen.Scale{loggen.ScaleTiny}
	}
	out := Fig10Result{TargetAUC: target}
	for si, sc := range scales {
		w := buildWorld(loggen.TaobaoConfig(sc, o.Seed+uint64(si)), 1, o.Seed+uint64(si))
		v := w.logs.Vocab()
		zcfg := o.modelConfig()
		zcfg.FanOut = 5
		zcfg.Hops = 2
		bcfg := o.baselineConfig()
		bcfg.FanOut = 5
		bcfg.Hops = 2
		if o.Quick {
			zcfg.Hops, bcfg.Hops = 1, 1
		}
		models := []core.Model{
			core.NewZoomer(w.view, v, zcfg, o.Seed+1),
			baselines.NewGCEGNN(w.view, v, bcfg, o.Seed+2),
		}
		for _, m := range models {
			tc := o.trainConfig()
			tc.TargetAUC = target
			tc.EvalEvery = 25
			tc.Epochs = 20 // bounded by MaxSteps / target
			res := core.Train(m, w.train, w.test, tc)
			out.Rows = append(out.Rows, Fig10Row{
				Model: m.Name(), Scale: sc.String(),
				Seconds: res.Duration.Seconds(), AUC: res.TestAUC,
			})
			o.logf("fig10 %s/%s %.2fs (AUC %.3f)", m.Name(), sc, res.Duration.Seconds(), res.TestAUC)
		}
	}
	return out
}

// Fig11Row is one (model, K) AUC point.
type Fig11Row struct {
	Model string
	K     int
	AUC   float64
}

// Fig11Result sweeps the sampling number.
type Fig11Result struct {
	Ks   []int
	Rows []Fig11Row
}

// AUC returns the value for (model, k).
func (r Fig11Result) AUC(model string, k int) float64 {
	for _, row := range r.Rows {
		if row.Model == model && row.K == k {
			return row.AUC
		}
	}
	return 0
}

// models lists the distinct model names in insertion order.
func (r Fig11Result) models() []string {
	var out []string
	seen := map[string]bool{}
	for _, row := range r.Rows {
		if !seen[row.Model] {
			seen[row.Model] = true
			out = append(out, row.Model)
		}
	}
	return out
}

// String prints the sweep.
func (r Fig11Result) String() string {
	header := []string{"model"}
	for _, k := range r.Ks {
		header = append(header, fmt.Sprintf("K=%d", k))
	}
	var rows [][]string
	for _, m := range r.models() {
		cells := []string{m}
		for _, k := range r.Ks {
			cells = append(cells, fmt.Sprintf("%.3f", r.AUC(m, k)))
		}
		rows = append(rows, cells)
	}
	return "Fig 11: AUC vs sampling number K\n" + table(header, rows)
}

// Fig11 reproduces the sampling-number sweep: Zoomer and the four
// sampler baselines trained at each per-hop budget K.
func Fig11(o Options) Fig11Result {
	w := o.taobaoWorld(loggen.ScaleSmall)
	v := w.logs.Vocab()
	g := w.view
	ks := []int{5, 10, 15, 20, 25, 30}
	if o.Quick {
		ks = []int{2, 4}
	}
	out := Fig11Result{Ks: ks}
	for _, k := range ks {
		zcfg := o.modelConfig()
		zcfg.FanOut = k
		bcfg := o.baselineConfig()
		bcfg.FanOut = k
		models := []core.Model{
			core.NewZoomer(g, v, zcfg, o.Seed+1),
			baselines.NewGraphSAGE(g, v, bcfg, o.Seed+2),
			baselines.NewPixie(g, v, bcfg, o.Seed+3),
			baselines.NewPinnerSage(g, v, bcfg, o.Seed+4),
			baselines.NewPinSage(g, v, bcfg, o.Seed+5),
		}
		for _, m := range models {
			tc := o.trainConfig()
			if !o.Quick {
				// Large-K subgraphs are quadratically more expensive; a
				// reduced step budget keeps the sweep single-machine while
				// every (model, K) cell gets the same budget.
				tc.MaxSteps, tc.BatchSize = 80, 8
			}
			res := core.Train(m, w.train, w.test, tc)
			out.Rows = append(out.Rows, Fig11Row{Model: m.Name(), K: k, AUC: res.TestAUC})
			o.logf("fig11 %s K=%d AUC %.3f", m.Name(), k, res.TestAUC)
		}
	}
	return out
}

// Fig12Row is one model's efficiency-vs-effectiveness point.
type Fig12Row struct {
	Model        string
	RelativeTime float64 // vs Zoomer = 1.0
	AUC          float64
	Seconds      float64
	// NodesPerStep is the distinct graph nodes the model embedded per
	// training step — the size of the subgraphs it builds, counted rather
	// than timed.
	NodesPerStep float64
}

// Fig12Result is the efficiency/effectiveness comparison.
type Fig12Result struct{ Rows []Fig12Row }

// String prints the comparison.
func (r Fig12Result) String() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Model,
			fmt.Sprintf("%.1fx", row.RelativeTime),
			fmt.Sprintf("%.3f", row.AUC),
			fmt.Sprintf("%.2fs", row.Seconds),
			fmt.Sprintf("%.1f", row.NodesPerStep)}
	}
	return "Fig 12: efficiency vs effectiveness (relative training time)\n" +
		table([]string{"model", "rel time", "AUC", "wall time", "nodes/step"}, rows)
}

// embedCounter counts the nodes whose feature rows are read through a
// graph view. A model reads a node's features exactly when it embeds the
// node, and a step's read set fetches each node once, so the count per
// step is the number of distinct subgraph nodes the step embeds.
// Training is single-threaded, so a plain counter does.
type embedCounter struct {
	core.GraphView
	n int
}

func (c *embedCounter) Features(id graph.NodeID) []int32 {
	c.n++
	return c.GraphView.Features(id)
}

func (c *embedCounter) ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) {
	if fields&graph.ReadFeatures != 0 {
		c.n += len(ids)
	}
	c.GraphView.ReadNodes(ids, fields, into)
}

// Fig12 reproduces the efficiency-effectiveness comparison: the sampler
// baselines run with sampling number 30, while Zoomer further downsizes
// its ROI to one tenth (sampling 3), as §VII-E describes. Everyone gets
// the same number of optimization steps; Zoomer's smaller subgraphs make
// each step cheaper — reported both as wall time and as the counted
// nodes embedded per step — and the focal-biased ROI keeps (or improves)
// AUC.
func Fig12(o Options) Fig12Result {
	w := o.taobaoWorld(loggen.ScaleSmall)
	v := w.logs.Vocab()
	g := &embedCounter{GraphView: w.view}

	full, tenth := 30, 3
	if o.Quick {
		full, tenth = 8, 2
	}
	zcfg := o.modelConfig()
	zcfg.FanOut = tenth // ROI downscaled to ~1/10 of the baselines
	bcfg := o.baselineConfig()
	bcfg.FanOut = full

	models := []core.Model{
		core.NewZoomer(g, v, zcfg, o.Seed+1),
		baselines.NewPixie(g, v, bcfg, o.Seed+2),
		baselines.NewPinnerSage(g, v, bcfg, o.Seed+3),
		baselines.NewGraphSAGE(g, v, bcfg, o.Seed+4),
		baselines.NewPinSage(g, v, bcfg, o.Seed+5),
	}
	var out Fig12Result
	var zoomerTime time.Duration
	for _, m := range models {
		tc := o.trainConfig()
		if !o.Quick {
			// Same step budget for everyone; the 30-sample baselines pay
			// ~100x more per step than Zoomer's tenth-scale ROI.
			tc.MaxSteps, tc.BatchSize = 60, 8
		}
		// Count the training steps only: the closing evaluation reads
		// through the same view.
		start, embedded := g.n, 0
		tc.OnStep = func(int, float64) { embedded = g.n - start }
		res := core.Train(m, w.train, w.test, tc)
		if m.Name() == "zoomer" {
			zoomerTime = res.Duration
		}
		out.Rows = append(out.Rows, Fig12Row{
			Model: m.Name(), AUC: res.TestAUC, Seconds: res.Duration.Seconds(),
			NodesPerStep: float64(embedded) / float64(res.Steps),
		})
		o.logf("fig12 %s %.2fs AUC %.3f", m.Name(), res.Duration.Seconds(), res.TestAUC)
	}
	for i := range out.Rows {
		out.Rows[i].RelativeTime = out.Rows[i].Seconds / zoomerTime.Seconds()
	}
	return out
}
