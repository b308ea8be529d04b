// Package openloop offers operations on a fixed schedule, whatever the
// pace of the system under test, and times each one without
// coordinated omission: a stall is charged to every operation that was
// due while it lasted, not only to the one that met it. It is the load
// generator behind the Fig. 9 sweep, examples/serving and
// zoomer-loadgen.
package openloop

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Result is what one run measured, per slot in schedule order.
type Result struct {
	// Lat is each operation's latency: from the slot's due time when a
	// worker picked it up late, because the system under test held every
	// worker up, and from the send when a worker picked it up early and
	// slept, because an oversleep is the generator's.
	Lat    []time.Duration
	Late   []time.Duration // how far behind its due time each send was
	Failed int             // slots whose operation reported failure
}

// Run offers n operations, slot i due at start + i×interval, and
// returns once every one has finished. The workers claim slots in
// order; do(worker, slot) performs one operation on worker's resources
// and reports whether it succeeded, so the worker count caps the
// operations in flight. Run panics when workers < 1. An early worker
// sleeps with time.Sleep, which can overshoot by a millisecond.
func Run(workers, n int, interval time.Duration, do func(worker, slot int) bool) Result {
	if workers < 1 {
		panic(fmt.Sprintf("openloop: %d workers, need at least one", workers))
	}
	r := Result{Lat: make([]time.Duration, n), Late: make([]time.Duration, n)}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond) // let every worker reach its first sleep
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				slot := int(next.Add(1) - 1)
				if slot >= n {
					return
				}
				from := start.Add(time.Duration(slot) * interval)
				if wait := time.Until(from); wait > 0 {
					time.Sleep(wait)
					r.Late[slot] = time.Since(from)
					from = time.Now()
				} else {
					r.Late[slot] = -wait
				}
				if !do(w, slot) {
					failed.Add(1)
				}
				r.Lat[slot] = time.Since(from)
			}
		}(w)
	}
	wg.Wait()
	r.Failed = int(failed.Load())
	return r
}

// Percentiles returns the p-quantile of ds for each p in ps, by nearest
// rank (index ⌊p·len⌋ of the sorted values, clamped), and 0 for each
// when ds is empty. ds is not modified.
func Percentiles(ds []time.Duration, ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(ds) == 0 {
		return out
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for k, p := range ps {
		out[k] = sorted[min(int(p*float64(len(sorted))), len(sorted)-1)]
	}
	return out
}
