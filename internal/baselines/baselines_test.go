package baselines

import (
	"math"
	"slices"
	"testing"

	"zoomer/internal/ad"
	"zoomer/internal/core"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
)

type world struct {
	logs  *loggen.Logs
	res   *graphbuild.Result
	train []core.Instance
	test  []core.Instance
}

func buildWorld(t testing.TB, seed uint64) *world {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, seed))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	ds := loggen.BuildExamples(logs, 1, 0.25, seed+1)
	return &world{
		logs:  logs,
		res:   res,
		train: core.InstancesFromExamples(ds.Train, res.Mapping),
		test:  core.InstancesFromExamples(ds.Test, res.Mapping),
	}
}

func tinyCfg() Config {
	cfg := DefaultConfig()
	cfg.EmbedDim = 16
	cfg.OutDim = 16
	cfg.Hops = 1
	cfg.FanOut = 4
	return cfg
}

// All returns one instance of every baseline, the set Table III compares.
func allBaselines(w *world) []core.Model {
	v := w.logs.Vocab()
	g := w.res.Graph
	cfg := tinyCfg()
	return []core.Model{
		NewGraphSAGE(g, v, cfg, 1),
		NewPinSage(g, v, cfg, 2),
		NewPinnerSage(g, v, cfg, 3),
		NewPixie(g, v, cfg, 4),
		NewHAN(g, v, cfg, 5),
		NewGCEGNN(g, v, cfg, 6),
		NewFGNN(g, v, cfg, 7),
		NewSTAMP(g, v, cfg, 8),
		NewMCCF(g, v, cfg, 9),
	}
}

func TestNamesAreDistinct(t *testing.T) {
	w := buildWorld(t, 1)
	seen := map[string]bool{}
	for _, m := range allBaselines(w) {
		if seen[m.Name()] {
			t.Fatalf("duplicate baseline name %q", m.Name())
		}
		seen[m.Name()] = true
	}
	if len(seen) != 9 {
		t.Fatalf("expected 9 baselines, got %d", len(seen))
	}
}

// Every baseline must produce finite logits of the right shape and
// backpropagate into both dense parameters and embedding tables.
func TestForwardBackwardAllBaselines(t *testing.T) {
	w := buildWorld(t, 2)
	r := rng.New(3)
	batch := w.train[:6]
	targets := make([]float32, len(batch))
	for i, ex := range batch {
		targets[i] = ex.Label
	}
	for _, m := range allBaselines(w) {
		tp := ad.NewTape()
		logits := m.Logits(tp, batch, r)
		if logits.Rows() != len(batch) || logits.Cols() != 1 {
			t.Fatalf("%s: logits shape %dx%d", m.Name(), logits.Rows(), logits.Cols())
		}
		for _, v := range logits.Val.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite logit", m.Name())
			}
		}
		tp.Backward(tp.BCEWithLogits(logits, targets))
		denseOK := false
		for _, p := range m.DenseParams() {
			for _, g := range p.Grad.Data {
				if g != 0 {
					denseOK = true
				}
			}
			p.ZeroGrad()
		}
		if !denseOK {
			t.Fatalf("%s: no dense gradient", m.Name())
		}
		sparseOK := false
		for _, tab := range m.Tables() { // an Adam step moves a touched row
			before := make([][]float32, tab.Vocab())
			for i := range before {
				before[i] = slices.Clone(tab.Row(int32(i)))
			}
			tab.StepAdam(0.01, 0.9, 0.999, 1e-8)
			for i, row := range before {
				sparseOK = sparseOK || !slices.Equal(row, tab.Row(int32(i)))
			}
		}
		if !sparseOK {
			t.Fatalf("%s: no sparse gradient", m.Name())
		}
	}
}

// Embedding exports must be finite and well-shaped for every baseline
// (the retrieval/ANN path depends on them).
func TestEmbeddingExportsAllBaselines(t *testing.T) {
	w := buildWorld(t, 4)
	r := rng.New(5)
	ex := w.train[0]
	for _, m := range allBaselines(w) {
		uq := m.UserQueryEmbedding(ex.User, ex.Query, r)
		it := m.ItemEmbedding(ex.Item, r)
		if len(uq) != 16 || len(it) != 16 {
			t.Fatalf("%s: embedding dims %d/%d", m.Name(), len(uq), len(it))
		}
		for _, v := range append(append([]float32{}, uq...), it...) {
			if math.IsNaN(float64(v)) {
				t.Fatalf("%s: NaN in embedding", m.Name())
			}
		}
	}
}

// A representative baseline must learn (the full per-model comparison
// lives in the Table II/III experiment harnesses).
func TestGraphSAGELearns(t *testing.T) {
	w := buildWorld(t, 6)
	m := NewGraphSAGE(w.res.Graph, w.logs.Vocab(), tinyCfg(), 10)
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.BatchSize = 16
	cfg.LR = 0.02
	cfg.MaxSteps = 120
	res := core.Train(m, w.train, w.test, cfg)
	if res.TestAUC < 0.55 {
		t.Fatalf("graphsage AUC %.3f; failed to learn", res.TestAUC)
	}
}

func TestHANLearns(t *testing.T) {
	w := buildWorld(t, 7)
	m := NewHAN(w.res.Graph, w.logs.Vocab(), tinyCfg(), 11)
	cfg := core.DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.BatchSize = 16
	cfg.LR = 0.02
	cfg.MaxSteps = 120
	res := core.Train(m, w.train, w.test, cfg)
	if res.TestAUC < 0.55 {
		t.Fatalf("han AUC %.3f; failed to learn", res.TestAUC)
	}
}

func TestUserItemHistory(t *testing.T) {
	w := buildWorld(t, 8)
	g := w.res.Graph
	users := g.NodesOfType(graph.User)
	foundAny := false
	for _, u := range users[:20] {
		hist := userItemHistory(g, u, 8)
		if len(hist) > 8 {
			t.Fatal("history exceeds cap")
		}
		seen := map[graph.NodeID]bool{}
		for _, it := range hist {
			if g.Type(it) != graph.Item {
				t.Fatal("history contains non-item")
			}
			if seen[it] {
				t.Fatal("history contains duplicate")
			}
			seen[it] = true
		}
		if len(hist) > 0 {
			foundAny = true
		}
	}
	if !foundAny {
		t.Fatal("no user had any item history")
	}
}

func BenchmarkGraphSAGEStep(b *testing.B) {
	w := buildWorld(b, 9)
	m := NewGraphSAGE(w.res.Graph, w.logs.Vocab(), tinyCfg(), 12)
	r := rng.New(1)
	batch := w.train[:16]
	targets := make([]float32, len(batch))
	for i, ex := range batch {
		targets[i] = ex.Label
	}
	adam := core.DefaultTrainConfig()
	_ = adam
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := ad.NewTape()
		logits := m.Logits(tp, batch, r)
		tp.Backward(tp.BCEWithLogits(logits, targets))
		for _, p := range m.DenseParams() {
			p.ZeroGrad()
		}
		for _, tab := range m.Tables() {
			tab.ZeroGrad()
		}
	}
}
