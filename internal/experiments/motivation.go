package experiments

import (
	"fmt"
	"time"

	"zoomer/internal/ad"
	"zoomer/internal/core"
	"zoomer/internal/eval"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// Fig4aRow is one point of Fig. 4(a): the cost of training a 2-layer GCN
// as the number of sampled neighbors grows.
type Fig4aRow struct {
	Neighbors  int
	IterPerSec float64
	// TapeMB is the node values and gradients one iteration carves from
	// its tape, in MiB: the step's working set, a pure function of the
	// seed and the neighbor budget.
	TapeMB float64
}

// Fig4aResult is the Fig. 4(a) series.
type Fig4aResult struct{ Rows []Fig4aRow }

// String prints the series.
func (r Fig4aResult) String() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprint(row.Neighbors),
			fmt.Sprintf("%.2f", row.IterPerSec),
			fmt.Sprintf("%.1f", row.TapeMB),
		}
	}
	return "Fig 4(a): GCN training cost vs sampled neighbors\n" +
		table([]string{"neighbors", "iters/s", "tape MB/iter"}, rows)
}

// Fig4a measures training speed and tape memory for a 2-layer GCN while
// the per-hop neighbor budget grows — the paper's motivation that cost
// explodes with neighborhood size.
func Fig4a(o Options) Fig4aResult {
	w := o.taobaoWorld(loggen.ScaleSmall)
	ks := []int{5, 10, 20, 30, 40, 50}
	iters := 6
	if o.Quick {
		ks = []int{2, 4, 8}
		iters = 3
	}
	var out Fig4aResult
	for _, k := range ks {
		cfg := o.modelConfig()
		cfg.Hops = 2
		cfg.FanOut = k
		// Plain GCN: all attention levels off (mean pooling).
		cfg.UseFeatureProj, cfg.UseEdgeAttn, cfg.UseSemanticAttn = false, false, false
		m := core.NewZoomer(w.view, w.logs.Vocab(), cfg, o.Seed)
		r := rng.New(o.Seed + uint64(k))
		batch := w.train[:min(16, len(w.train))]
		targets := make([]float32, len(batch))
		for i, ex := range batch {
			targets[i] = ex.Label
		}
		t := ad.NewTape()
		tapeBytes := 0
		start := time.Now()
		for i := 0; i < iters; i++ {
			t.Reset()
			logits := m.Logits(t, batch, r)
			t.Backward(t.BCEWithLogits(logits, targets))
			tapeBytes += t.Bytes()
			for _, p := range m.DenseParams() {
				p.ZeroGrad()
			}
			for _, tab := range m.Tables() {
				tab.ZeroGrad()
			}
		}
		elapsed := time.Since(start)
		out.Rows = append(out.Rows, Fig4aRow{
			Neighbors:  k,
			IterPerSec: float64(iters) / elapsed.Seconds(),
			TapeMB:     float64(tapeBytes) / float64(iters) / (1 << 20),
		})
		o.logf("fig4a k=%d done", k)
	}
	return out
}

// Fig4bResult summarizes Fig. 4(b): similarities between successive
// queries posed by the same user within a session.
type Fig4bResult struct {
	Pairs     int
	Mean, Std float64
	// SamplePairs holds the first few successive-query similarities, the
	// per-pair bars of the paper's figure.
	SamplePairs []float64
	// FracBelowHalf is the fraction of pairs with similarity < 0.5 —
	// evidence that focal interests drift quickly.
	FracBelowHalf float64
}

// String prints the summary.
func (r Fig4bResult) String() string {
	s := fmt.Sprintf("Fig 4(b): successive-query similarity (n=%d)\nmean %.3f  std %.3f  frac(sim<0.5) %.2f\n",
		r.Pairs, r.Mean, r.Std, r.FracBelowHalf)
	s += "sample u-q pairs:"
	for _, v := range r.SamplePairs {
		s += fmt.Sprintf(" %.2f", v)
	}
	return s + "\n"
}

// Fig4b measures the similarity between successive queries in each
// session, reproducing the observation that focal interests change
// quickly even within a session.
func Fig4b(o Options) Fig4bResult {
	w := o.taobaoWorld(loggen.ScaleSmall)
	var sims []float64
	for _, s := range w.logs.Sessions {
		for i := 1; i < len(s.Events); i++ {
			a := w.logs.Queries[s.Events[i-1].Query].Content
			b := w.logs.Queries[s.Events[i].Query].Content
			sims = append(sims, float64(tensor.Cosine(a, b)))
		}
	}
	mean, std := eval.MeanStd(sims)
	below := 0
	for _, v := range sims {
		if v < 0.5 {
			below++
		}
	}
	n := 12
	if n > len(sims) {
		n = len(sims)
	}
	return Fig4bResult{
		Pairs:         len(sims),
		Mean:          mean,
		Std:           std,
		SamplePairs:   sims[:n],
		FracBelowHalf: float64(below) / float64(len(sims)),
	}
}

// Fig4cResult summarizes Fig. 4(c): the CDF of similarities between focal
// points and the user's interaction-based local graph, for a short-window
// ("1-hour") and long-window ("1-day") graph.
type Fig4cResult struct {
	// CDFAtZero is P(similarity <= 0) per window — the paper reports
	// ~80% (1-hour) and ~40% (1-day).
	ShortCDFAtZero, LongCDFAtZero float64
	ShortMean, LongMean           float64
	// Quantiles of both distributions at fixed probe points.
	Probes   []float64
	ShortCDF []float64
	LongCDF  []float64
}

// String prints both CDFs.
func (r Fig4cResult) String() string {
	rows := make([][]string, len(r.Probes))
	for i := range r.Probes {
		rows[i] = []string{
			fmt.Sprintf("%.2f", r.Probes[i]),
			fmt.Sprintf("%.2f", r.ShortCDF[i]),
			fmt.Sprintf("%.2f", r.LongCDF[i]),
		}
	}
	return fmt.Sprintf("Fig 4(c): focal-to-local-graph similarity CDF\nP(sim<=0): 1-hour %.2f, 1-day %.2f; means %.3f / %.3f\n",
		r.ShortCDFAtZero, r.LongCDFAtZero, r.ShortMean, r.LongMean) +
		table([]string{"sim", "CDF 1-hour", "CDF 1-day"}, rows)
}

// Fig4c builds a short-window and a long-window behavior graph and, for
// sampled users, measures cosine similarity between the user's focal
// points (user + one posed query) and every item the user clicked.
func Fig4c(o Options) Fig4cResult {
	seedBase := o.Seed + 40
	shortCfg := loggen.TaobaoConfig(loggen.ScaleSmall, seedBase)
	if o.Quick {
		shortCfg = loggen.TaobaoConfig(loggen.ScaleTiny, seedBase)
	}
	// Short window: few sessions per user, narrow drift (timely intent
	// dominates). Long window: many sessions accumulating long-term
	// interests, so any single focal matches less of the history.
	shortCfg.SessionsPerUser = 2
	longCfg := shortCfg
	longCfg.Seed = seedBase + 1
	longCfg.SessionsPerUser = 12

	measure := func(cfg loggen.Config) []float64 {
		logs := loggen.MustGenerate(cfg)
		r := rng.New(cfg.Seed + 9)
		var sims []float64
		// Sample 10 users with behavior, as the paper does.
		users := r.Perm(len(logs.Users))
		picked := 0
		for _, u := range users {
			var clicks []int
			var firstQuery = -1
			for _, s := range logs.Sessions {
				if s.User != u {
					continue
				}
				for _, ev := range s.Events {
					if firstQuery < 0 {
						firstQuery = ev.Query
					}
					for _, c := range ev.Clicks {
						clicks = append(clicks, c.Item)
					}
				}
			}
			if firstQuery < 0 || len(clicks) == 0 {
				continue
			}
			focal := tensor.Copy(logs.Users[u].Content)
			tensor.Axpy(1, logs.Queries[firstQuery].Content, focal)
			for _, item := range clicks {
				sims = append(sims, float64(tensor.Cosine(focal, logs.Items[item].Content)))
			}
			picked++
			if picked == 10 {
				break
			}
		}
		return sims
	}
	shortSims := measure(shortCfg)
	longSims := measure(longCfg)
	shortCDF := eval.NewCDF(shortSims)
	longCDF := eval.NewCDF(longSims)
	probes := []float64{-0.2, -0.1, 0, 0.1, 0.2, 0.4, 0.6}
	res := Fig4cResult{
		ShortCDFAtZero: shortCDF.At(0),
		LongCDFAtZero:  longCDF.At(0),
		Probes:         probes,
	}
	res.ShortMean, _ = eval.MeanStd(shortSims)
	res.LongMean, _ = eval.MeanStd(longSims)
	for _, p := range probes {
		res.ShortCDF = append(res.ShortCDF, shortCDF.At(p))
		res.LongCDF = append(res.LongCDF, longCDF.At(p))
	}
	return res
}
