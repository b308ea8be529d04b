package core

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/ad"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
)

// pipelineConfig is the short run the pipeline tests train: 8-example
// batches, two hops (so a sampling is several bulk reads), and two
// epochs, so one batch starts an epoch after the first.
func pipelineConfig(maxSteps int) TrainConfig {
	tc := DefaultTrainConfig()
	tc.Seed, tc.Epochs, tc.MaxSteps, tc.BatchSize = 3, 2, maxSteps, 8
	return tc
}

func pipelineModelConfig() Config {
	cfg := tinyModelConfig()
	cfg.Hops = 2
	return cfg
}

var errPlantedRead = errors.New("planted read failure")

// failingView panics with errPlantedRead at its failAt-th bulk read,
// after sleeping delay in each; once closed is set, every read that
// starts is counted as late.
type failingView struct {
	GraphView
	failAt int64
	delay  time.Duration
	reads  atomic.Int64
	closed atomic.Bool
	late   atomic.Int64
}

func (v *failingView) ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) {
	if v.closed.Load() {
		v.late.Add(1)
	}
	time.Sleep(v.delay)
	if v.reads.Add(1) == v.failAt {
		panic(errPlantedRead)
	}
	v.GraphView.ReadNodes(ids, fields, into)
}

// trainPanic trains m and returns what the run panicked with, then
// closes v and gives a goroutine that outlived Train time to read.
func trainPanic(m Model, v *failingView, train []Instance, tc TrainConfig) (p any) {
	defer func() {
		p = recover()
		v.closed.Store(true)
		time.Sleep(20 * time.Millisecond)
	}()
	Train(m, train, nil, tc)
	return nil
}

// A read that panics on the sampling goroutine panics Train's caller
// with the same value, whichever read of the first three steps it is —
// the first batch's, sampled before any compute, or a later one's,
// sampled ahead — and nothing reads the view once the panic has left
// Train.
func TestTrainForwardsSamplingPanic(t *testing.T) {
	w := buildTinyWorld(t, 41)
	tc := pipelineConfig(3)
	count := &failingView{GraphView: w.res.Graph}
	Train(NewZoomer(count, w.logs.Vocab(), pipelineModelConfig(), 5), w.train, nil, tc)
	reads := count.reads.Load()
	if reads < 6 {
		t.Fatalf("three steps made %d bulk reads; the test needs several per step", reads)
	}
	t.Logf("panicking at each of the first three steps' %d bulk reads", reads)
	tc.MaxSteps = 5
	for k := int64(1); k <= reads; k++ {
		v := &failingView{GraphView: w.res.Graph, failAt: k}
		p := trainPanic(NewZoomer(v, w.logs.Vocab(), pipelineModelConfig(), 5), v, w.train, tc)
		if err, _ := p.(error); err != errPlantedRead {
			t.Fatalf("read %d of %d panicked: Train's caller recovered %v (%T), want %v", k, reads, p, p, errPlantedRead)
		}
		if n := v.late.Load(); n != 0 {
			t.Fatalf("read %d of %d panicked: the view served %d reads after the panic left Train", k, reads, n)
		}
	}
}

var errPlantedCompute = errors.New("planted compute failure")

// A panic in compute leaves Train only once the batch being sampled
// ahead is done: the view, slow enough that the sampling is in flight
// when the second step's tower panics, gets no read after the recover.
func TestTrainComputePanicJoinsSampling(t *testing.T) {
	w := buildTinyWorld(t, 42)
	tc := pipelineConfig(4)
	v := &failingView{GraphView: w.res.Graph, delay: 2 * time.Millisecond}
	r := rng.New(6)
	cfg := pipelineModelConfig()
	var towers atomic.Int64
	m := NewChassis(v, NewFeatureEmbedder(w.logs.Vocab(), cfg.EmbedDim, r.Split()), cfg, "tower", r, Spec{
		Name:   "panicky",
		Region: Region{Sampler: sampling.Uniform{}, Hops: cfg.Hops, FanOut: cfg.FanOut},
		Tower: func(p Pass, user, query *sampling.Tree) (*ad.Node, *ad.Node) {
			if towers.Add(1) == int64(tc.BatchSize)+1 { // the second step's first request
				panic(errPlantedCompute)
			}
			return p.NodeEmb(user.Node), p.NodeEmb(query.Node)
		},
	})
	p := trainPanic(m, v, w.train, tc)
	if err, _ := p.(error); err != errPlantedCompute {
		t.Fatalf("Train's caller recovered %v (%T), want %v", p, p, errPlantedCompute)
	}
	if n := v.late.Load(); n != 0 {
		t.Fatalf("the view served %d reads after the compute panic left Train", n)
	}
}

// orderView records, for each bulk read, how many OnStep callbacks had
// returned when it started and when it ended, and whether a callback was
// running. Each read takes a millisecond, so a sampling outlasts a
// step's compute here: a read the loop failed to join before OnStep is
// still running when OnStep is called. Its fields are plain on purpose:
// under -race, a read not ordered against a callback is a reported race,
// and so is one that reads the inner view while OnStep swaps it.
type orderView struct {
	GraphView
	steps  int
	inStep bool
	reads  []orderedRead
}

type orderedRead struct {
	start, end int
	features   bool
	overlap    bool
}

func (v *orderView) ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) {
	time.Sleep(time.Millisecond)
	rd := orderedRead{start: v.steps, features: fields&graph.ReadFeatures != 0, overlap: v.inStep}
	v.GraphView.ReadNodes(ids, fields, into)
	rd.end, rd.overlap = v.steps, rd.overlap || v.inStep
	v.reads = append(v.reads, rd)
}

// TestTrainPrefetchOrder pins the OnStep contract the benchmark rig
// relies on when it swaps its view's inner view inside OnStep: batch
// k+1's reads all finish before OnStep(k) (and start after OnStep(k-1)),
// no read overlaps a callback, an epoch's first batch is sampled only
// after the last step of the epoch before, and the MaxSteps step samples
// nothing ahead. The swap between two views of one graph leaves the loss
// trace as it is.
func TestTrainPrefetchOrder(t *testing.T) {
	w := buildTinyWorld(t, 43)
	g := w.res.Graph
	const perEpoch, maxSteps = 3, 5
	train := w.train[:perEpoch*8]

	var want []float64
	tc := pipelineConfig(maxSteps)
	tc.OnStep = func(_ int, loss float64) { want = append(want, loss) }
	Train(NewZoomer(g, w.logs.Vocab(), pipelineModelConfig(), 5), train, nil, tc)

	views := []GraphView{g, EngineView{Engine: engine.New(g, engine.DefaultConfig()), M: w.res.Mapping}}
	v := &orderView{GraphView: g}
	var got []float64
	tc.OnStep = func(step int, loss float64) {
		v.inStep = true
		got = append(got, loss)
		v.GraphView = views[step%2]
		v.steps = step
		v.inStep = false
	}
	Train(NewZoomer(v, w.logs.Vocab(), pipelineModelConfig(), 5), train, nil, tc)
	if !slices.Equal(got, want) {
		t.Fatalf("loss trace %v with the view swapped in OnStep, %v without", got, want)
	}

	// Zoomer's pass reads the graph only while sampling, and a sampling's
	// last read is its one feature read.
	batch := 1
	for i, rd := range v.reads {
		if batch > maxSteps {
			t.Fatalf("read %d comes after the %d batches of a %d-step run", i, maxSteps, maxSteps)
		}
		wantSteps := max(batch-2, 0) // sampled during step batch-1
		if (batch-1)%perEpoch == 0 {
			wantSteps = batch - 1 // an epoch's first batch: sampled before its step
		}
		if rd.overlap {
			t.Fatalf("batch %d's read %d overlapped an OnStep callback", batch, i)
		}
		if rd.start != wantSteps || rd.end != wantSteps {
			t.Fatalf("batch %d's read %d ran from after OnStep(%d) to after OnStep(%d), want within OnStep(%d)..OnStep(%d)",
				batch, i, rd.start, rd.end, wantSteps, wantSteps+1)
		}
		if rd.features {
			batch++
		}
	}
	if batch != maxSteps+1 {
		t.Fatalf("%d batches sampled in a %d-step run", batch-1, maxSteps)
	}
}
