package core

import (
	"crypto/sha256"
	"math"
	"slices"
	"testing"

	"zoomer/internal/ad"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
)

// tinyWorld builds a small world + graph + instances shared by the tests.
type tinyWorld struct {
	logs  *loggen.Logs
	res   *graphbuild.Result
	train []Instance
	test  []Instance
}

func buildTinyWorld(t testing.TB, seed uint64) *tinyWorld {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, seed))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	ds := loggen.BuildExamples(logs, 1, 0.25, seed+1)
	return &tinyWorld{
		logs:  logs,
		res:   res,
		train: InstancesFromExamples(ds.Train, res.Mapping),
		test:  InstancesFromExamples(ds.Test, res.Mapping),
	}
}

func tinyModelConfig() Config {
	cfg := DefaultConfig()
	cfg.EmbedDim = 16
	cfg.OutDim = 16
	cfg.Hops = 1
	cfg.FanOut = 4
	return cfg
}

func TestZoomerLogitsShape(t *testing.T) {
	w := buildTinyWorld(t, 1)
	z := NewZoomer(w.res.Graph, w.logs.Vocab(), tinyModelConfig(), 7)
	r := rng.New(2)
	tp := ad.NewTape()
	batch := w.train[:5]
	logits := z.Logits(tp, batch, r)
	if logits.Rows() != 5 || logits.Cols() != 1 {
		t.Fatalf("logits shape %dx%d", logits.Rows(), logits.Cols())
	}
	for _, v := range logits.Val.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite logit %v", v)
		}
	}
}

func TestZoomerBackwardProducesGrads(t *testing.T) {
	w := buildTinyWorld(t, 2)
	z := NewZoomer(w.res.Graph, w.logs.Vocab(), tinyModelConfig(), 8)
	r := rng.New(3)
	tp := ad.NewTape()
	batch := w.train[:8]
	logits := z.Logits(tp, batch, r)
	targets := make([]float32, len(batch))
	for i, ex := range batch {
		targets[i] = ex.Label
	}
	loss := tp.FocalBCEWithLogits(logits, targets, 2)
	tp.Backward(loss)

	// Some dense parameter must receive nonzero gradient.
	anyDense := false
	for _, p := range z.DenseParams() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				anyDense = true
			}
		}
	}
	if !anyDense {
		t.Fatal("no dense gradients after backward")
	}
	// Embedding tables must have touched rows: an Adam step moves one.
	anySparse := false
	for _, tab := range z.Tables() {
		before := make([][]float32, tab.Vocab())
		for i := range before {
			before[i] = slices.Clone(tab.Row(int32(i)))
		}
		tab.StepAdam(0.01, 0.9, 0.999, 1e-8)
		for i, row := range before {
			anySparse = anySparse || !slices.Equal(row, tab.Row(int32(i)))
		}
	}
	if !anySparse {
		t.Fatal("no sparse gradients after backward")
	}
}

func TestAblationNames(t *testing.T) {
	w := buildTinyWorld(t, 3)
	v := w.logs.Vocab()
	mk := func(fp, ea, sa bool) string {
		cfg := tinyModelConfig()
		cfg.UseFeatureProj, cfg.UseEdgeAttn, cfg.UseSemanticAttn = fp, ea, sa
		return NewZoomer(w.res.Graph, v, cfg, 1).Name()
	}
	if mk(true, true, true) != "zoomer" {
		t.Fatal("full model name")
	}
	if mk(true, true, false) != "zoomer-fe" {
		t.Fatal("-FE name")
	}
	if mk(true, false, true) != "zoomer-fs" {
		t.Fatal("-FS name")
	}
	if mk(false, true, true) != "zoomer-es" {
		t.Fatal("-ES name")
	}
	if mk(false, false, false) != "gcn" {
		t.Fatal("gcn name")
	}
}

func TestAblationVariantsRun(t *testing.T) {
	w := buildTinyWorld(t, 4)
	v := w.logs.Vocab()
	r := rng.New(5)
	for _, flags := range [][3]bool{
		{true, true, true}, {true, true, false}, {true, false, true},
		{false, true, true}, {false, false, false},
	} {
		cfg := tinyModelConfig()
		cfg.UseFeatureProj, cfg.UseEdgeAttn, cfg.UseSemanticAttn = flags[0], flags[1], flags[2]
		z := NewZoomer(w.res.Graph, v, cfg, 9)
		tp := ad.NewTape()
		logits := z.Logits(tp, w.train[:4], r)
		if logits.Rows() != 4 {
			t.Fatalf("variant %v wrong shape", flags)
		}
		targets := []float32{1, 0, 1, 0}
		tp.Backward(tp.BCEWithLogits(logits, targets))
	}
}

// End-to-end: training must beat random scoring on held-out data. This is
// the core learning sanity check for the whole stack (sampling →
// attention → towers → loss → sparse/dense updates).
func TestZoomerLearns(t *testing.T) {
	w := buildTinyWorld(t, 5)
	z := NewZoomer(w.res.Graph, w.logs.Vocab(), tinyModelConfig(), 10)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.BatchSize = 16
	cfg.LR = 0.02
	cfg.MaxSteps = 120
	res := Train(z, w.train, w.test, cfg)
	if res.Steps == 0 {
		t.Fatal("no steps taken")
	}
	if res.TestAUC < 0.58 {
		t.Fatalf("test AUC %.3f; model failed to learn", res.TestAUC)
	}
}

func TestTrainTargetAUCStopsEarly(t *testing.T) {
	w := buildTinyWorld(t, 6)
	z := NewZoomer(w.res.Graph, w.logs.Vocab(), tinyModelConfig(), 11)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 50
	cfg.BatchSize = 16
	cfg.LR = 0.02
	cfg.TargetAUC = 0.55
	cfg.EvalEvery = 20
	cfg.EvalSample = 200
	cfg.MaxSteps = 400
	res := Train(z, w.train, w.test, cfg)
	if !res.ReachedTarget && res.Steps >= 400 {
		t.Logf("target not reached within cap (AUC %.3f) — acceptable but unusual", res.TestAUC)
	}
	if res.ReachedTarget && res.Steps == 0 {
		t.Fatal("inconsistent early stop")
	}
}

func TestEmbeddingExports(t *testing.T) {
	w := buildTinyWorld(t, 7)
	z := NewZoomer(w.res.Graph, w.logs.Vocab(), tinyModelConfig(), 12)
	r := rng.New(6)
	ex := w.train[0]
	uq := z.UserQueryEmbedding(ex.User, ex.Query, r)
	it := z.ItemEmbedding(ex.Item, r)
	if len(uq) != 16 || len(it) != 16 {
		t.Fatalf("embedding dims %d/%d, want 16", len(uq), len(it))
	}
	// Embeddings must differ across different items.
	other := z.ItemEmbedding(w.train[1].Item, r)
	same := true
	for i := range it {
		if it[i] != other[i] {
			same = false
			break
		}
	}
	if same && w.train[0].Item != w.train[1].Item {
		t.Fatal("distinct items share an embedding")
	}
}

// The Fig. 2 property: a query node's effective representation must
// depend on the focal user. Edge attention weights over the same
// neighbors must shift when the focal user changes.
func TestMultiEmbeddingsPerEgoNode(t *testing.T) {
	w := buildTinyWorld(t, 8)
	z := NewZoomer(w.res.Graph, w.logs.Vocab(), tinyModelConfig(), 13)
	g := w.res.Graph
	// Find a query with >= 3 neighbors and two distinct users.
	var ego graph.NodeID = -1
	for _, q := range g.NodesOfType(graph.Query) {
		if g.Degree(q) >= 3 {
			ego = q
			break
		}
	}
	if ego < 0 {
		t.Skip("no suitable query node")
	}
	users := g.NodesOfType(graph.User)
	nbrs := make([]graph.NodeID, 0, 5)
	for _, e := range g.Neighbors(ego) {
		nbrs = append(nbrs, e.To)
		if len(nbrs) == 5 {
			break
		}
	}
	w1 := z.EdgeAttentionWeights(ego, users[0], ego, nbrs)
	w2 := z.EdgeAttentionWeights(ego, users[1], ego, nbrs)
	var sum1, sum2, diff float64
	for i := range w1 {
		sum1 += float64(w1[i])
		sum2 += float64(w2[i])
		diff += math.Abs(float64(w1[i] - w2[i]))
	}
	if math.Abs(sum1-1) > 1e-4 || math.Abs(sum2-1) > 1e-4 {
		t.Fatalf("weights not normalized: %v %v", sum1, sum2)
	}
	if diff == 0 {
		t.Fatal("coupling coefficients identical under different focal users")
	}
}

func TestHitRateAtKs(t *testing.T) {
	w := buildTinyWorld(t, 9)
	z := NewZoomer(w.res.Graph, w.logs.Vocab(), tinyModelConfig(), 14)
	items := w.res.Graph.NodesOfType(graph.Item)
	hr := HitRateAtKs(z, w.test, items, []int{5, 20, 60}, 20, 1)
	if hr[5] > hr[20] || hr[20] > hr[60] {
		t.Fatalf("hit-rate not monotone in k: %v", hr)
	}
	for k, v := range hr {
		if v < 0 || v > 1 {
			t.Fatalf("hr@%d = %v out of range", k, v)
		}
	}
}

// A node's feature matrix has one row per feature slot of its type.
func TestSlotCount(t *testing.T) {
	w := buildTinyWorld(t, 10)
	g := w.res.Graph
	fe := NewFeatureEmbedder(w.logs.Vocab(), 8, rng.New(1))
	tp := ad.NewTape()
	for nt, slots := range map[graph.NodeType]int{graph.User: 3, graph.Query: 2, graph.Item: 5} {
		if H := fe.FeatureMatrix(tp, g, g.NodesOfType(nt)[0]); H.Rows() != slots {
			t.Fatalf("%v feature matrix has %d rows, want %d slots", nt, H.Rows(), slots)
		}
	}
}

func TestFeatureMatrixShapes(t *testing.T) {
	w := buildTinyWorld(t, 10)
	g := w.res.Graph
	fe := NewFeatureEmbedder(w.logs.Vocab(), 8, rng.New(1))
	tp := ad.NewTape()
	for _, nt := range []graph.NodeType{graph.User, graph.Query, graph.Item} {
		id := g.NodesOfType(nt)[0]
		H := fe.FeatureMatrix(tp, g, id)
		if H.Cols() != 8 {
			t.Fatalf("%v feature matrix %dx%d", nt, H.Rows(), H.Cols())
		}
	}
	if len(fe.Tables()) != 8 {
		t.Fatalf("table count %d", len(fe.Tables()))
	}
}

func TestInstancesFromExamples(t *testing.T) {
	w := buildTinyWorld(t, 11)
	g := w.res.Graph
	for _, in := range w.train[:20] {
		if g.Type(in.User) != graph.User || g.Type(in.Query) != graph.Query || g.Type(in.Item) != graph.Item {
			t.Fatal("instance node types wrong")
		}
	}
}

// TestBuildWorldDeterministic pins what a (config, seed) names: two
// builds yield the same graph bytes (graphbuild's TestBuildDeterministic
// through the builder every binary calls) and the same instance splits.
func TestBuildWorldDeterministic(t *testing.T) {
	build := func() ([sha256.Size]byte, []Instance, []Instance) {
		w := BuildWorld(loggen.TaobaoConfig(loggen.ScaleSmall, 1))
		h := sha256.New()
		if _, err := w.Graph.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		train, test := w.Instances(1, 2)
		return [sha256.Size]byte(h.Sum(nil)), train, test
	}
	sum, train, test := build()
	sum2, train2, test2 := build()
	if sum != sum2 {
		t.Fatalf("two builds of one config wrote different graphs: %x vs %x", sum, sum2)
	}
	if !slices.Equal(train, train2) || !slices.Equal(test, test2) {
		t.Fatal("two builds of one config drew different instances")
	}
	if len(train) == 0 || len(test) == 0 || len(test) > len(train) {
		t.Fatalf("split %d train / %d test", len(train), len(test))
	}
}

func BenchmarkZoomerStep(b *testing.B) {
	w := buildTinyWorld(b, 12)
	z := NewZoomer(w.res.Graph, w.logs.Vocab(), tinyModelConfig(), 15)
	r := rng.New(1)
	opt := newModelOptimizer(z, 0.01)
	batch := w.train[:16]
	targets := make([]float32, len(batch))
	for i, ex := range batch {
		targets[i] = ex.Label
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := ad.NewTape()
		logits := z.Logits(tp, batch, r)
		tp.Backward(tp.FocalBCEWithLogits(logits, targets, 2))
		opt.step()
	}
}
