package experiments

import (
	"fmt"

	"zoomer/internal/ad"
	"zoomer/internal/baselines"
	"zoomer/internal/core"
	"zoomer/internal/eval"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// trainAndEval trains a model and returns its test AUC together with
// probability predictions for error metrics.
func trainAndEval(o Options, m core.Model, w *world) (auc float64, pred, target []float64, res core.TrainResult) {
	tc := o.trainConfig()
	res = core.Train(m, w.train, w.test, tc)
	auc = res.TestAUC
	r := rng.New(o.Seed + 55)
	batch := 64
	for lo := 0; lo < len(w.test); lo += batch {
		hi := min(lo+batch, len(w.test))
		t := ad.NewTape()
		logits := m.Logits(t, w.test[lo:hi], r)
		for i, ex := range w.test[lo:hi] {
			pred = append(pred, float64(tensor.Sigmoid(logits.Val.Data[i])))
			target = append(target, float64(ex.Label))
		}
	}
	return auc, pred, target, res
}

// Table2Row is one model's MovieLens result.
type Table2Row struct {
	Model     string
	AUC       float64 // percent
	MAE, RMSE float64
}

// Table2Result is the paper's Table II.
type Table2Result struct{ Rows []Table2Row }

// String prints the table.
func (r Table2Result) String() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Model,
			fmt.Sprintf("%.2f", row.AUC),
			fmt.Sprintf("%.4f", row.MAE),
			fmt.Sprintf("%.4f", row.RMSE)}
	}
	return "Table II: MovieLens benchmark\n" + table([]string{"model", "AUC", "MAE", "RMSE"}, rows)
}

// Table2 reproduces Table II: Zoomer vs the five GNN baselines without
// heuristic samplers, on the MovieLens-mode dataset with one-hop
// aggregation (the paper's MovieLens setting).
func Table2(o Options) Table2Result {
	cfg := loggen.MovieLensConfig(o.Seed)
	if o.Quick {
		cfg.Users, cfg.Queries, cfg.Items = 150, 40, 200
		cfg.Topics = 6
	}
	w := buildWorld(cfg, 1, o.Seed)
	v := w.logs.Vocab()
	g := w.view

	mcfg := o.modelConfig()
	mcfg.Hops = 1 // MovieLens uses one-hop aggregation (§VII-A)

	models := []core.Model{
		baselines.NewGCEGNN(g, v, mcfg, o.Seed+1),
		baselines.NewFGNN(g, v, mcfg, o.Seed+2),
		baselines.NewSTAMP(g, v, mcfg, o.Seed+3),
		baselines.NewMCCF(g, v, mcfg, o.Seed+4),
		baselines.NewHAN(g, v, mcfg, o.Seed+5),
		core.NewZoomer(g, v, mcfg, o.Seed+6),
	}
	var out Table2Result
	for _, m := range models {
		auc, pred, target, _ := trainAndEval(o, m, w)
		out.Rows = append(out.Rows, Table2Row{
			Model: m.Name(),
			AUC:   auc * 100,
			MAE:   eval.MAE(pred, target),
			RMSE:  eval.RMSE(pred, target),
		})
		o.logf("table2 %s AUC %.2f", m.Name(), auc*100)
	}
	return out
}

// Table3Row is one model's Taobao-graph result.
type Table3Row struct {
	Model    string
	AUC      float64 // percent
	HitRates map[int]float64
}

// Table3Result is the paper's Table III.
type Table3Result struct {
	Ks   []int
	Rows []Table3Row
}

// String prints the table.
func (r Table3Result) String() string {
	header := []string{"model", "AUC"}
	for _, k := range r.Ks {
		header = append(header, fmt.Sprintf("HR@%d", k))
	}
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells := []string{row.Model, fmt.Sprintf("%.1f", row.AUC)}
		for _, k := range r.Ks {
			cells = append(cells, fmt.Sprintf("%.2f", row.HitRates[k]))
		}
		rows[i] = cells
	}
	return "Table III: Taobao industry graph\n" + table(header, rows)
}

// Table3 reproduces Table III: all nine baselines and Zoomer on the
// million-scale-analog Taobao graph, scored by AUC and HitRate@K.
func Table3(o Options) Table3Result {
	w := o.taobaoWorld(loggen.ScaleSmall)
	v := w.logs.Vocab()
	g := w.view
	mcfg := o.modelConfig()

	ks := []int{100, 200, 300}
	maxTests := 150
	if o.Quick {
		ks = []int{10, 20, 30}
		maxTests = 25
	}

	models := []core.Model{
		baselines.NewGCEGNN(g, v, mcfg, o.Seed+1),
		baselines.NewFGNN(g, v, mcfg, o.Seed+2),
		baselines.NewSTAMP(g, v, mcfg, o.Seed+3),
		baselines.NewMCCF(g, v, mcfg, o.Seed+4),
		baselines.NewHAN(g, v, mcfg, o.Seed+5),
		baselines.NewPinSage(g, v, mcfg, o.Seed+6),
		baselines.NewGraphSAGE(g, v, mcfg, o.Seed+7),
		baselines.NewPinnerSage(g, v, mcfg, o.Seed+8),
		baselines.NewPixie(g, v, mcfg, o.Seed+9),
		core.NewZoomer(g, v, mcfg, o.Seed+10),
	}
	items := w.res.Mapping.NodesOfType(graph.Item)
	var out Table3Result
	out.Ks = ks
	for _, m := range models {
		auc, _, _, _ := trainAndEval(o, m, w)
		hr := core.HitRateAtKs(m, w.test, items, ks, maxTests, o.Seed+77)
		out.Rows = append(out.Rows, Table3Row{Model: m.Name(), AUC: auc * 100, HitRates: hr})
		o.logf("table3 %s AUC %.1f", m.Name(), auc*100)
	}
	return out
}

// Fig8Cell is one (variant, scale) ablation AUC.
type Fig8Cell struct {
	Variant string
	Scale   string
	AUC     float64
}

// Fig8Result is the ablation study.
type Fig8Result struct {
	Scales   []string
	Variants []string
	Cells    []Fig8Cell
}

// auc returns the cell value for (variant, scale).
func (r Fig8Result) auc(variant, scale string) float64 {
	for _, c := range r.Cells {
		if c.Variant == variant && c.Scale == scale {
			return c.AUC
		}
	}
	return 0
}

// String prints the matrix.
func (r Fig8Result) String() string {
	header := append([]string{"variant"}, r.Scales...)
	rows := make([][]string, len(r.Variants))
	for i, v := range r.Variants {
		cells := []string{v}
		for _, s := range r.Scales {
			cells = append(cells, fmt.Sprintf("%.3f", r.auc(v, s)))
		}
		rows[i] = cells
	}
	return "Fig 8: ablation study (test AUC)\n" + table(header, rows)
}

// Fig8 reproduces the ablation: GCN (no attention), Zoomer-FE (no
// semantic), Zoomer-FS (no edge), Zoomer-ES (no feature projection), and
// full Zoomer, across the three Taobao graph scales.
func Fig8(o Options) Fig8Result {
	scales := []loggen.Scale{loggen.ScaleSmall, loggen.ScaleMedium, loggen.ScaleLarge}
	if o.Quick {
		scales = []loggen.Scale{loggen.ScaleTiny}
	}
	var out Fig8Result
	for _, a := range core.Ablations {
		out.Variants = append(out.Variants, a.Name)
	}
	for si, sc := range scales {
		w := buildWorld(loggen.TaobaoConfig(sc, o.Seed+uint64(si)), 1, o.Seed+uint64(si))
		out.Scales = append(out.Scales, sc.String())
		for _, a := range core.Ablations {
			m := core.NewZoomer(w.view, w.logs.Vocab(), a.Apply(o.modelConfig()), o.Seed+3)
			auc, _, _, _ := trainAndEval(o, m, w)
			out.Cells = append(out.Cells, Fig8Cell{Variant: m.Name(), Scale: sc.String(), AUC: auc})
			o.logf("fig8 %s/%s AUC %.3f", m.Name(), sc, auc)
		}
	}
	return out
}
