package main

import (
	"sync/atomic"
	"time"

	"zoomer/internal/core"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// trainRig is train_roi's bring-up: world and cluster, the CTR
// instances, and an untrained model over the remote engine view.
type trainRig struct {
	w           *world
	train, test []core.Instance
	view        *timedView
	model       *core.Zoomer
}

func setupTrain(seed uint64, tmp string) (*trainRig, error) {
	w, err := buildWorld(seed, tmp)
	if err != nil {
		return nil, err
	}
	return newTrainRig(w), nil
}

func newTrainRig(w *world) *trainRig {
	ds := loggen.BuildExamples(w.logs, 1, 0.2, worldSeed+1)
	t := &trainRig{
		w:     w,
		train: core.InstancesFromExamples(ds.Train, w.mapping),
		test:  core.InstancesFromExamples(ds.Test, w.mapping),
		view:  &timedView{GraphView: w.view()},
	}
	if len(t.test) > aucProbe {
		t.test = t.test[:aucProbe]
	}
	t.model = core.NewZoomer(t.view, w.logs.Vocab(), core.DefaultConfig(), worldSeed+2)
	return t
}

func (t *trainRig) Close() {
	t.w.Close()
	t.w.removeWAL()
}

// timedView is the harness's decorator around the core.GraphView it
// hands the model. Untraced it only forwards; traced it accumulates the
// time and count of graph reads, which is the view's share of a step.
type timedView struct {
	core.GraphView
	on        bool
	ns, calls atomic.Int64
}

func (v *timedView) note(start time.Time) {
	v.ns.Add(time.Since(start).Nanoseconds())
	v.calls.Add(1)
}

func (v *timedView) Neighbors(id graph.NodeID) []graph.Edge {
	if v.on {
		defer v.note(time.Now())
	}
	return v.GraphView.Neighbors(id)
}

func (v *timedView) Content(id graph.NodeID) tensor.Vec {
	if v.on {
		defer v.note(time.Now())
	}
	return v.GraphView.Content(id)
}

func (v *timedView) Features(id graph.NodeID) []int32 {
	if v.on {
		defer v.note(time.Now())
	}
	return v.GraphView.Features(id)
}

// trainResult is what train_roi's phases produced.
type trainResult struct {
	remote  phase     // the timed steps over the remote cluster
	stepMs  []float64 // wall time of each remote step
	local   phase     // the steps that follow over the local graph
	auc     float64
	opRead  int64 // OpNeighbors+OpFeatures+OpContent served during the remote steps
	viewNs  int64
	viewOps int64
}

// runTrain trains remoteSteps steps over the remote cluster, which is
// what the timing metrics measure, then localSteps more over the local
// graph and probes AUC there. One step over the cluster costs ~47 local
// steps (README.md, "Findings"), so a run affords a handful of them —
// too few to move AUC — and training traces are bit-identical across
// views (PR 10), so the local steps are the ones the cluster would have
// computed. Both counts depend on the run length alone: parent and
// change do the same work.
func runTrain(t *trainRig, remoteSteps, localSteps int) trainResult {
	var res trainResult
	tc := core.DefaultTrainConfig()
	tc.BatchSize, tc.MaxSteps, tc.Seed = trainBatch, remoteSteps+localSteps, t.w.seed+5
	read0 := t.w.opCount(opReads...)
	cpu0, start := cpuSeconds(), time.Now()
	last := start
	tc.OnStep = func(step int, _ float64) {
		now := time.Now()
		if step <= remoteSteps {
			res.stepMs = append(res.stepMs, ms(now.Sub(last)))
		}
		if step == remoteSteps {
			res.remote = phase{attempted: step, wall: now.Sub(start).Seconds(), cpu: cpuSeconds() - cpu0}
			res.opRead = t.w.opCount(opReads...) - read0
			res.viewNs, res.viewOps = t.view.ns.Load(), t.view.calls.Load()
			t.view.GraphView, t.view.on = t.w.g, false
		}
		last = now
	}
	// A nil test set keeps core.Train's closing full-split EvalAUC out
	// of the run; the probe below is the quality figure.
	tr := core.Train(t.model, t.train, nil, tc)
	res.local = phase{attempted: tr.Steps - remoteSteps, wall: tr.Duration.Seconds() - res.remote.wall}
	res.auc = core.EvalAUC(t.model, t.test, trainBatch, rng.New(t.w.seed+6))
	return res
}
