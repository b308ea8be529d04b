// Package main_test is the benchmark harness of deliverable (d): one
// testing.B benchmark per table and figure of the paper's evaluation,
// each driving the corresponding experiment harness (CI-sized budgets —
// run cmd/zoomer-experiments without -quick for the full-size rows), plus
// the design-choice ablation benches called out in DESIGN.md §5.
package main_test

import (
	"testing"

	"zoomer/internal/alias"
	"zoomer/internal/experiments"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
	"zoomer/internal/tensor"
)

func quickOpts(seed uint64) experiments.Options {
	return experiments.Options{Seed: seed, Quick: true}
}

// --- One benchmark per paper table/figure -------------------------------

func BenchmarkFig4aTrainingCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4a(quickOpts(uint64(i) + 1))
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig4bQueryDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4b(quickOpts(uint64(i) + 1))
		if res.Pairs == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig4cFocalSimilarityCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig4c(quickOpts(uint64(i) + 1))
		if len(res.ShortCDF) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkTable2MovieLens(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2(quickOpts(uint64(i) + 1))
		if len(res.Rows) != 6 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkTable3TaobaoGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table3(quickOpts(uint64(i) + 1))
		if len(res.Rows) != 10 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkFig8Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8(quickOpts(uint64(i) + 1))
		if len(res.Cells) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkTable4ABTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table4(quickOpts(uint64(i) + 1))
		if res.Control.Impressions == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig9ServingLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig9(quickOpts(uint64(i) + 1))
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig10TrainingTimeVsScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig10(quickOpts(uint64(i) + 1))
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig11SamplingNumber(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig11(quickOpts(uint64(i) + 1))
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig12EfficiencyEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig12(quickOpts(uint64(i) + 1))
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig13Interpretability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig13(quickOpts(uint64(i) + 1))
		if len(res.FixedUser) == 0 && len(res.FixedQuery) == 0 {
			b.Fatal("empty result")
		}
	}
}

// --- Design-choice ablations (DESIGN.md §5) ------------------------------

// BenchmarkAblationRelevanceScore compares the paper's eq. (5) Tanimoto
// relevance against the cosine replacement it mentions, on the sampler's
// hot path.
func BenchmarkAblationRelevanceScore(b *testing.B) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	g := res.Graph
	var ego graph.NodeID
	for id := 0; id < g.NumNodes(); id++ {
		if g.Degree(graph.NodeID(id)) >= 10 {
			ego = graph.NodeID(id)
			break
		}
	}
	focal := tensor.Copy(g.Content(ego))
	for _, bc := range []struct {
		name string
		rel  sampling.RelevanceFunc
	}{
		{"tanimoto-eq5", nil},
		{"cosine", tensor.Cosine},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := &sampling.FocalBiased{Relevance: bc.rel}
			r := rng.New(2)
			sc := sampling.NewScratch()
			for i := 0; i < b.N; i++ {
				_ = s.Sample(g, ego, focal, 5, r, sc)
			}
		})
	}
}

// BenchmarkAblationAlias compares the graph engine's O(1) alias-table
// sampling against a linear CDF scan, across degrees.
func BenchmarkAblationAlias(b *testing.B) {
	for _, degree := range []int{16, 256, 4096} {
		r := rng.New(3)
		weights := make([]float64, degree)
		var total float64
		for i := range weights {
			weights[i] = r.Float64() + 0.01
			total += weights[i]
		}
		prob, aliasIdx := make([]float64, degree), make([]int32, degree)
		alias.MustBuildInto(prob, aliasIdx, weights, make([]int32, degree))
		b.Run(formatInt("alias-deg", degree), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = alias.SampleFrom(prob, aliasIdx, r)
			}
		})
		b.Run(formatInt("linear-deg", degree), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := r.Float64() * total
				for j, w := range weights {
					x -= w
					if x <= 0 {
						_ = j
						break
					}
				}
			}
		})
	}
}

func formatInt(prefix string, v int) string {
	return prefix + "-" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
