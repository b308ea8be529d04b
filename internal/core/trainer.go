package core

import (
	"sort"
	"time"

	"zoomer/internal/ad"
	"zoomer/internal/eval"
	"zoomer/internal/graph"
	"zoomer/internal/nn"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// TrainConfig drives the training loop. The defaults mirror §VII-A:
// focal cross-entropy with weight 2, Adam, batch training over sampled
// subgraphs.
type TrainConfig struct {
	BatchSize  int
	Epochs     int
	LR         float32
	FocalGamma float64 // < 0 selects plain BCE
	Seed       uint64

	// MaxSteps bounds total steps across epochs (0 = unbounded).
	MaxSteps int
	// TargetAUC, when > 0, stops training once a periodic probe on the
	// test set reaches it — the protocol of the Fig. 10/12 efficiency
	// experiments ("achieving AUC equals 0.6 as a goal").
	TargetAUC  float64
	EvalEvery  int // steps between probes (default 50)
	EvalSample int // probe size (default 512)

	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)

	// OnStep, when set, receives every optimizer step's loss — the
	// training trace the cross-topology equivalence suite pins
	// bit-for-bit across graph/engine/remote views.
	OnStep func(step int, loss float64)
}

// DefaultTrainConfig returns the settings shared by the offline
// experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		BatchSize:  32,
		Epochs:     5,
		LR:         0.01,
		FocalGamma: 2,
		Seed:       1,
		EvalEvery:  50,
		EvalSample: 512,
	}
}

// TrainResult reports what the loop did.
type TrainResult struct {
	Steps         int
	FinalLoss     float64
	Duration      time.Duration
	TestAUC       float64
	ReachedTarget bool
	// EpochLosses holds the mean minibatch loss of each completed epoch.
	EpochLosses []float64
}

// Train runs minibatch training of m on train, evaluating on test at the
// end (and periodically when TargetAUC is set). It returns the final test
// AUC and wall-clock training duration.
func Train(m Model, train, test []Instance, cfg TrainConfig) TrainResult {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 50
	}
	if cfg.EvalSample <= 0 {
		cfg.EvalSample = 512
	}
	r := rng.New(cfg.Seed)
	sampleRNG := r.Split()
	probeRNG := r.Split()

	var res TrainResult
	start := time.Now()
	data := append([]Instance(nil), train...)

	tr := newTrainer(m, cfg)

loop:
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochLoss float64
		var epochSteps int
		r.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
		for lo := 0; lo+1 < len(data) || lo == 0 && len(data) > 0; lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > len(data) {
				hi = len(data)
			}
			if lo >= hi {
				break
			}
			res.Steps++
			res.FinalLoss = tr.step(data[lo:hi], sampleRNG)
			epochLoss += res.FinalLoss
			epochSteps++
			if cfg.OnStep != nil {
				cfg.OnStep(res.Steps, res.FinalLoss)
			}

			if cfg.Logf != nil && res.Steps%100 == 0 {
				cfg.Logf("step %d loss %.4f", res.Steps, res.FinalLoss)
			}
			if cfg.TargetAUC > 0 && res.Steps%cfg.EvalEvery == 0 {
				probe := test
				if len(probe) > cfg.EvalSample {
					probe = probe[:cfg.EvalSample]
				}
				auc := evalAUC(tr.tape, m, probe, cfg.BatchSize, probeRNG)
				if cfg.Logf != nil {
					cfg.Logf("step %d probe AUC %.4f", res.Steps, auc)
				}
				if auc >= cfg.TargetAUC {
					res.ReachedTarget = true
					break loop
				}
			}
			if cfg.MaxSteps > 0 && res.Steps >= cfg.MaxSteps {
				if epochSteps > 0 {
					res.EpochLosses = append(res.EpochLosses, epochLoss/float64(epochSteps))
				}
				break loop
			}
		}
		if epochSteps > 0 {
			res.EpochLosses = append(res.EpochLosses, epochLoss/float64(epochSteps))
		}
	}
	res.Duration = time.Since(start)
	res.TestAUC = evalAUC(tr.tape, m, test, cfg.BatchSize, probeRNG)
	return res
}

// trainer is what every step of a run reuses: one tape, reset per step,
// the targets buffer, and the optimizers — the dense Adam beside the
// tables' sparse updates, the split the paper's PS architecture makes
// between dense parameters and embedding rows.
type trainer struct {
	m       Model
	gamma   float64 // FocalGamma; < 0 selects plain BCE
	lr      float32
	tape    *ad.Tape
	targets []float32
	dense   *nn.Adam
	params  []*nn.Param
	tables  []*nn.EmbeddingTable
}

func newTrainer(m Model, cfg TrainConfig) *trainer {
	return &trainer{
		m: m, gamma: cfg.FocalGamma, lr: cfg.LR, tape: ad.NewTape(),
		dense: nn.NewAdam(cfg.LR), params: m.DenseParams(), tables: m.Tables(),
	}
}

// step runs one optimizer step on batch and returns its loss.
func (tr *trainer) step(batch []Instance, r *rng.RNG) float64 {
	t := tr.tape
	t.Reset()
	logits := tr.m.Logits(t, batch, r)
	tr.targets = tr.targets[:0]
	for _, ex := range batch {
		tr.targets = append(tr.targets, ex.Label)
	}
	var loss *ad.Node
	if tr.gamma >= 0 {
		loss = t.FocalBCEWithLogits(logits, tr.targets, tr.gamma)
	} else {
		loss = t.BCEWithLogits(logits, tr.targets)
	}
	t.Backward(loss)
	tr.dense.Step(tr.params...)
	for _, tab := range tr.tables {
		tab.StepAdam(tr.lr, 0.9, 0.999, 1e-8)
	}
	return float64(loss.Scalar())
}

// EvalAUC scores instances with the model (forward only) and returns the
// AUC against their labels.
func EvalAUC(m Model, instances []Instance, batchSize int, r *rng.RNG) float64 {
	return evalAUC(ad.NewTape(), m, instances, batchSize, r)
}

// evalAUC is EvalAUC on tape t, reset per batch.
func evalAUC(t *ad.Tape, m Model, instances []Instance, batchSize int, r *rng.RNG) float64 {
	if len(instances) == 0 {
		return 0.5
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	scores := make([]float64, 0, len(instances))
	labels := make([]bool, 0, len(instances))
	for lo := 0; lo < len(instances); lo += batchSize {
		hi := lo + batchSize
		if hi > len(instances) {
			hi = len(instances)
		}
		t.Reset()
		logits := m.Logits(t, instances[lo:hi], r)
		for i, ex := range instances[lo:hi] {
			scores = append(scores, float64(logits.Val.Data[i]))
			labels = append(labels, ex.Label > 0.5)
		}
	}
	return eval.AUC(scores, labels)
}

// HitRateAtKs evaluates retrieval hit-rate: for up to maxTests positive
// instances, the model's user-query embedding ranks all candidate items
// by cosine similarity; hit-rate@k is the fraction whose clicked item
// appears in the top k.
func HitRateAtKs(m Model, positives []Instance, items []graph.NodeID, ks []int, maxTests int, seed uint64) map[int]float64 {
	r := rng.New(seed)
	maxK := 0
	for _, k := range ks {
		if k > maxK {
			maxK = k
		}
	}
	// Item embeddings once.
	embs := make([]tensor.Vec, len(items))
	pos := make(map[graph.NodeID]int, len(items))
	for i, it := range items {
		embs[i] = m.ItemEmbedding(it, r)
		pos[it] = i
	}
	tests := positives
	if maxTests > 0 && len(tests) > maxTests {
		tests = tests[:maxTests]
	}
	retrieved := make([][]int, 0, len(tests))
	clicked := make([]int, 0, len(tests))
	for _, ex := range tests {
		if ex.Label <= 0.5 {
			continue
		}
		uq := m.UserQueryEmbedding(ex.User, ex.Query, r)
		type scored struct {
			idx int
			s   float32
		}
		ss := make([]scored, len(embs))
		for i, e := range embs {
			ss[i] = scored{i, tensor.Cosine(uq, e)}
		}
		sort.Slice(ss, func(a, b int) bool { return ss[a].s > ss[b].s })
		lim := maxK
		if lim > len(ss) {
			lim = len(ss)
		}
		top := make([]int, lim)
		for i := 0; i < lim; i++ {
			top[i] = ss[i].idx
		}
		retrieved = append(retrieved, top)
		clicked = append(clicked, pos[ex.Item])
	}
	out := make(map[int]float64, len(ks))
	for _, k := range ks {
		out[k] = eval.HitRateAtK(retrieved, clicked, k)
	}
	return out
}
