package core

import (
	"math"
	"testing"

	"zoomer/internal/ad"
	"zoomer/internal/rng"
)

// serialStep samples batch into b, then steps on it: one training step
// with nothing overlapped.
func serialStep(tr *trainer, b *regions, batch []Instance, r *rng.RNG) float64 {
	tr.m.sampleBatch(b, batch, r)
	return tr.step(batch, b)
}

// trainSteps runs n optimizer steps of a fresh default-config Zoomer over
// w and returns the loss trace and the model. With fresh set, every step
// gets a new tape instead of the trainer's reused one.
func trainSteps(w *tinyWorld, n int, fresh bool) ([]float64, *Zoomer) {
	z := NewZoomer(w.res.Graph, w.logs.Vocab(), DefaultConfig(), 21)
	tr := newTrainer(z, DefaultTrainConfig())
	buf := z.newRegions()
	r := rng.New(22)
	losses := make([]float64, n)
	for i := range losses {
		if fresh {
			tr.tape = ad.NewTape()
		}
		lo := (i * 32) % (len(w.train) - 32)
		losses[i] = serialStep(tr, buf, w.train[lo:lo+32], r)
	}
	return losses, z
}

// A tape reset and reused across steps computes exactly what a fresh
// tape per step computes: the same loss trace and the same final dense
// and embedding weights, bit for bit.
func TestTapeReuseMatchesFreshTape(t *testing.T) {
	w := buildTinyWorld(t, 31)
	reused, zr := trainSteps(w, 20, false)
	fresh, zf := trainSteps(w, 20, true)
	for i := range reused {
		if math.Float64bits(reused[i]) != math.Float64bits(fresh[i]) {
			t.Fatalf("step %d: loss %v with a reused tape, %v with a fresh one", i+1, reused[i], fresh[i])
		}
	}
	dr, df := zr.DenseParams(), zf.DenseParams()
	for i, p := range dr {
		for j, v := range p.Val.Data {
			if math.Float32bits(v) != math.Float32bits(df[i].Val.Data[j]) {
				t.Fatalf("%s[%d] = %v with a reused tape, %v with a fresh one", p.Name, j, v, df[i].Val.Data[j])
			}
		}
	}
	tr, tf := zr.Tables(), zf.Tables()
	for i, tab := range tr {
		for id := int32(0); id < int32(tab.Vocab()); id++ {
			a, b := tab.Row(id), tf[i].Row(id)
			for j := range a {
				if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
					t.Fatalf("%s row %d[%d] = %v with a reused tape, %v with a fresh one", tab.Name, id, j, a[j], b[j])
				}
			}
		}
	}
}

// stepAllocBudget bounds the heap allocations of one steady-state
// 32-example training step: bench_compare.sh's allocs budget for
// BenchmarkTrainStepLocal. The step used to make ~758 000.
const stepAllocBudget = 5000

func TestTrainStepAllocs(t *testing.T) {
	w := buildTinyWorld(t, 32)
	z := NewZoomer(w.res.Graph, w.logs.Vocab(), DefaultConfig(), 23)
	tr := newTrainer(z, DefaultTrainConfig())
	buf := z.newRegions()
	r := rng.New(24)
	step := 0
	next := func() {
		lo := (step * 32) % (len(w.train) - 32)
		serialStep(tr, buf, w.train[lo:lo+32], r)
		step++
	}
	for range 20 {
		next() // grow the tape's slabs and the tables' moment state
	}
	allocs := testing.AllocsPerRun(10, next)
	t.Logf("%.0f allocations per step, tape %d nodes, %d bytes", allocs, tr.tape.Len(), tr.tape.Bytes())
	if allocs > stepAllocBudget {
		t.Fatalf("a steady-state step makes %.0f allocations, budget %d", allocs, stepAllocBudget)
	}
}
