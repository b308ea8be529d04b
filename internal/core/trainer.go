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

// §VII-A's focal weight, and how many test instances (the first ones) a
// TargetAUC probe scores.
const (
	focalGamma = 2
	evalSample = 512
)

// TrainConfig drives the training loop: Adam over minibatches of sampled
// subgraphs, as in §VII-A.
type TrainConfig struct {
	BatchSize int
	Epochs    int
	LR        float32
	Seed      uint64

	// MaxSteps bounds total steps across epochs (0 = unbounded).
	MaxSteps int
	// TargetAUC, when > 0, stops training once a periodic probe on the
	// test set reaches it — the protocol of the Fig. 10/12 efficiency
	// experiments ("achieving AUC equals 0.6 as a goal").
	TargetAUC float64
	EvalEvery int // steps between probes (default 50)

	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)

	// OnStep, when set, receives every optimizer step's loss — the
	// training trace the cross-topology equivalence suite pins
	// bit-for-bit across graph/engine/remote views. OnStep(n) runs after
	// step n's update with no graph read in flight: the next batch's
	// regions may already have been read, and are not read again, but no
	// read starts until OnStep returns. So it may swap what a decorating
	// view forwards to.
	OnStep func(step int, loss float64)
}

// DefaultTrainConfig returns the settings shared by the offline
// experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		BatchSize: 32,
		Epochs:    5,
		LR:        0.01,
		Seed:      1,
		EvalEvery: 50,
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
//
// Within an epoch, batch n+1's regions are sampled on a second goroutine
// while step n embeds, steps back and updates (see pipeline). The trace
// is bit-identical to running the two one after the other: the regions
// do not depend on the weights, only one sampling runs at a time and in
// batch order, so the sampling RNG is consumed as it always was, and
// compute touches neither RNG.
func Train(m Model, train, test []Instance, cfg TrainConfig) TrainResult {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 50
	}
	r := rng.New(cfg.Seed)
	sampleRNG := r.Split()
	probeRNG := r.Split()

	var res TrainResult
	start := time.Now()
	data := append([]Instance(nil), train...)

	tr := newTrainer(m, cfg)
	p := newPipeline(m)
	var probes *pipeline // the TargetAUC probes' own buffers: the next batch holds one of p's
	compute := func(batch []Instance, b *regions) { res.FinalLoss = tr.step(batch, b) }
	issued := 0 // batches handed to the pipeline
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochLoss float64
		var epochSteps int
		// The shuffle permutes data in place, so an epoch's batches are
		// never sampled ahead across its end.
		r.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })
		lo := 0
		next := func() []Instance {
			if cfg.MaxSteps > 0 && issued >= cfg.MaxSteps || !(lo+1 < len(data) || lo == 0 && len(data) > 0) {
				return nil
			}
			hi := min(lo+cfg.BatchSize, len(data))
			batch := data[lo:hi]
			lo += cfg.BatchSize
			issued++
			return batch
		}
		after := func() bool {
			res.Steps++
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
				if len(probe) > evalSample {
					probe = probe[:evalSample]
				}
				if probes == nil {
					probes = newPipeline(m)
				}
				auc := probes.evalAUC(tr.tape, probe, cfg.BatchSize, probeRNG)
				if cfg.Logf != nil {
					cfg.Logf("step %d probe AUC %.4f", res.Steps, auc)
				}
				res.ReachedTarget = auc >= cfg.TargetAUC
			}
			return !res.ReachedTarget
		}
		p.run(sampleRNG, next, compute, after)
		if res.ReachedTarget {
			break
		}
		if epochSteps > 0 {
			res.EpochLosses = append(res.EpochLosses, epochLoss/float64(epochSteps))
		}
		if cfg.MaxSteps > 0 && res.Steps >= cfg.MaxSteps {
			break
		}
	}
	res.Duration = time.Since(start)
	res.TestAUC = p.evalAUC(tr.tape, test, cfg.BatchSize, probeRNG)
	return res
}

// pipeline is the one batch loop of training and evaluation: two region
// buffers, one holding the batch being computed on, the other the next
// batch's, which a second goroutine samples meanwhile.
type pipeline struct {
	m    Model
	bufs [2]*regions
}

func newPipeline(m Model) *pipeline {
	return &pipeline{m: m, bufs: [2]*regions{m.newRegions(), m.newRegions()}}
}

// run drives batches through p's model. It asks next for a batch before
// computing on the one before it, and nil means there is none: nothing is
// sampled ahead, and the loop ends after that batch. The first batch is
// sampled on the calling goroutine; from then on, while compute runs on
// one batch and its regions, the next batch is sampled into the other
// buffer with r on a second goroutine. That goroutine is joined before
// after runs, so no graph read is in flight during after; after returns
// false to stop, dropping a batch sampled ahead.
//
// No goroutine outlives run. A panic on the sampling goroutine is raised
// again on the caller's at the join, with the same value, and a panic in
// compute or after leaves run only once the sampling has finished.
func (p *pipeline) run(r *rng.RNG, next func() []Instance, compute func([]Instance, *regions), after func() bool) {
	batch := next()
	if batch == nil {
		return
	}
	cur := 0
	p.m.sampleBatch(p.bufs[cur], batch, r)
	var ahead chan any // the sampling in flight: receives its panic value, or nil
	defer func() {
		if ahead != nil {
			<-ahead
		}
	}()
	for {
		following := next()
		if following != nil {
			ahead = make(chan any, 1)
			go sampleAhead(p.m, p.bufs[1-cur], following, r, ahead)
		}
		compute(batch, p.bufs[cur])
		if following != nil {
			v := <-ahead
			ahead = nil
			if v != nil {
				panic(v)
			}
		}
		if !after() || following == nil {
			return
		}
		batch, cur = following, 1-cur
	}
}

// sampleAhead is run's sampling goroutine: it samples batch into b and
// sends done what the sampling panicked with, or nil.
func sampleAhead(m Model, b *regions, batch []Instance, r *rng.RNG, done chan<- any) {
	defer func() { done <- recover() }()
	m.sampleBatch(b, batch, r)
}

// trainer is what every step of a run reuses: one tape, reset per step,
// the targets buffer, and the optimizers — the dense Adam beside the
// tables' sparse updates, the split the paper's PS architecture makes
// between dense parameters and embedding rows.
type trainer struct {
	m       Model
	tape    *ad.Tape
	targets []float32
	dense   *nn.Adam
	params  []*nn.Param
	tables  []*nn.EmbeddingTable
}

func newTrainer(m Model, cfg TrainConfig) *trainer {
	return &trainer{
		m: m, tape: ad.NewTape(),
		dense: nn.NewAdam(cfg.LR), params: m.DenseParams(), tables: m.Tables(),
	}
}

// step runs one optimizer step on batch, whose regions b holds, and
// returns its loss.
func (tr *trainer) step(batch []Instance, b *regions) float64 {
	t := tr.tape
	t.Reset()
	logits := tr.m.batchLogits(t, b, batch)
	tr.targets = tr.targets[:0]
	for _, ex := range batch {
		tr.targets = append(tr.targets, ex.Label)
	}
	loss := t.FocalBCEWithLogits(logits, tr.targets, focalGamma)
	t.Backward(loss)
	tr.dense.Step(tr.params...)
	for _, tab := range tr.tables {
		tab.StepAdam(tr.dense.LR)
	}
	return float64(loss.Scalar())
}

// EvalAUC scores instances with the model (forward only) and returns the
// AUC against their labels.
func EvalAUC(m Model, instances []Instance, batchSize int, r *rng.RNG) float64 {
	return newPipeline(m).evalAUC(ad.NewTape(), instances, batchSize, r)
}

// evalAUC is EvalAUC through p, on tape t, reset per batch.
func (p *pipeline) evalAUC(t *ad.Tape, instances []Instance, batchSize int, r *rng.RNG) float64 {
	if len(instances) == 0 {
		return 0.5
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	scores := make([]float64, 0, len(instances))
	labels := make([]bool, 0, len(instances))
	lo := 0
	next := func() []Instance {
		if lo >= len(instances) {
			return nil
		}
		batch := instances[lo:min(lo+batchSize, len(instances))]
		lo += batchSize
		return batch
	}
	p.run(r, next, func(batch []Instance, b *regions) {
		t.Reset()
		logits := p.m.batchLogits(t, b, batch)
		for i, ex := range batch {
			scores = append(scores, float64(logits.Val.Data[i]))
			labels = append(labels, ex.Label > 0.5)
		}
	}, func() bool { return true })
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
