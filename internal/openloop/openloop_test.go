package openloop

import (
	"sync/atomic"
	"testing"
	"time"
)

// Every timing check below is a lower bound the schedule forces, so a
// loaded machine, which only delays the generator further, can satisfy
// it more but never break it.
func TestRunChargesStallToLaterSlots(t *testing.T) {
	const (
		n         = 60
		interval  = 10 * time.Millisecond
		stall     = 200 * time.Millisecond
		stallSlot = 30
	)
	fail := map[int]bool{7: true, 47: true}
	var runs [n]atomic.Int32
	// One worker: while it sits out the stall nobody else can send, so
	// slot 31, due 10 ms into the stall, is sent at least 190 ms late.
	r := Run(1, n, interval, func(worker, slot int) bool {
		runs[slot].Add(1)
		if slot == stallSlot {
			time.Sleep(stall)
		} else {
			time.Sleep(time.Millisecond)
		}
		return !fail[slot]
	})
	for slot := range runs {
		if c := runs[slot].Load(); c != 1 {
			t.Errorf("slot %d ran %d times, want once", slot, c)
		}
	}
	if len(r.Lat) != n || len(r.Late) != n || r.Failed != len(fail) {
		t.Errorf("%d latencies, %d lateness entries, %d failed; want %d, %d and %d", len(r.Lat), len(r.Late), r.Failed, n, n, len(fail))
	}
	if r.Lat[stallSlot] < stall {
		t.Errorf("stalled slot took %v, want at least %v", r.Lat[stallSlot], stall)
	}
	// A generator that timed from the send would report slot 31 at ~1 ms.
	if r.Lat[31] < 150*time.Millisecond || r.Late[31] < 150*time.Millisecond {
		t.Errorf("slot 31, due during the stall: latency %v, sent %v late; want both at least 150ms", r.Lat[31], r.Late[31])
	}
}

func TestRunOffersEverySlotOnce(t *testing.T) {
	const n, workers = 500, 4
	var runs [n]atomic.Int32
	var perWorker [workers]atomic.Int32
	r := Run(workers, n, 0, func(worker, slot int) bool {
		runs[slot].Add(1)
		perWorker[worker].Add(1)
		return slot%10 != 0
	})
	for slot := range runs {
		if c := runs[slot].Load(); c != 1 {
			t.Errorf("slot %d ran %d times, want once", slot, c)
		}
	}
	total := int32(0)
	for w := range perWorker {
		total += perWorker[w].Load()
	}
	if total != n || r.Failed != n/10 {
		t.Errorf("workers ran %d slots with %d failed, want %d and %d", total, r.Failed, n, n/10)
	}
}

func TestRunPanicsWithoutWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run with 0 workers did not panic")
		}
	}()
	Run(0, 1, time.Millisecond, func(int, int) bool { return true })
}

func TestPercentiles(t *testing.T) {
	ds := make([]time.Duration, 10)
	for i := range ds {
		ds[i] = time.Duration(10-i) * time.Millisecond
	}
	got := Percentiles(ds, 0.5, 0.99, 1)
	want := []time.Duration{6 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Percentiles(...)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if ds[0] != 10*time.Millisecond {
		t.Error("Percentiles sorted its input in place")
	}
	if got := Percentiles(nil, 0.5); got[0] != 0 {
		t.Errorf("Percentiles of no values = %v, want 0", got[0])
	}
}
