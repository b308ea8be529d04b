package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// The rig's own measurement code, tested against a server whose delays
// are known: PR 8 found the old load test reporting its own collector
// backpressure as serving latency, so the generator is not trusted
// until it measures a known delay correctly.

// delayServer answers after delay, except slot stallSlot which takes
// stall, and answers 500 for the slots in fail.
func delayServer(delay, stall time.Duration, stallSlot int, fail map[int]bool) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slot, _ := strconv.Atoi(r.URL.Query().Get("slot"))
		if slot == stallSlot {
			time.Sleep(stall)
		} else {
			time.Sleep(delay)
		}
		if fail[slot] {
			http.Error(w, "injected", http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "ok")
	}))
}

func slotDo(t *testing.T, srv *httptest.Server, workers int) doFunc {
	conns := make([]*conn, workers)
	for i := range conns {
		c, err := dialConn(srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		conns[i] = c
	}
	return func(worker, slot int) bool {
		rp, err := conns[worker].get([]byte("/op?slot=" + strconv.Itoa(slot)))
		return err == nil && rp.status == 200
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n         = 120
		interval  = 10 * time.Millisecond
		delay     = 5 * time.Millisecond
		stall     = 200 * time.Millisecond
		stallSlot = 30
	)
	fail := map[int]bool{7: true, 47: true, 87: true}
	srv := delayServer(delay, stall, stallSlot, fail)
	defer srv.Close()

	// One worker: while it waits out the stall nobody else can send, so
	// every slot due in that window is picked up late.
	p := openLoop(1, n, interval, slotDo(t, srv, 1))

	if p.attempted != n || p.failed != len(fail) {
		t.Errorf("attempted %d failed %d, want %d and %d", p.attempted, p.failed, n, len(fail))
	}
	if p50 := percentile(sortedCopy(p.lat), 0.5); p50 < 5 || p50 > 8 {
		t.Errorf("p50 = %.2f ms, want the injected 5 ms (5..8)", p50)
	}
	if p.lat[stallSlot] < 200 || p.lat[stallSlot] > 230 {
		t.Errorf("stalled request took %.1f ms, want ~200", p.lat[stallSlot])
	}
	// Slot 31 was due 10 ms into the stall and could be sent only when it
	// ended 190 ms later; from there the backlog drains by interval −
	// delay = 5 ms per slot, so it lasts 190/5 = 38 slots. A generator
	// that timed from the send would report all of them at 5 ms.
	for _, c := range []struct {
		slot int
		want float64
	}{{31, 195}, {40, 150}, {60, 50}} {
		if got := p.lat[c.slot]; got < c.want-15 || got > c.want+25 {
			t.Errorf("slot %d, due during the stall: latency %.1f ms, want ~%.0f", c.slot, got, c.want)
		}
	}
	if got := p.late[31]; got < 175 || got > 215 {
		t.Errorf("slot 31 was sent %.1f ms late, want ~190", got)
	}
	if got := p.lat[100]; got > 8 {
		t.Errorf("slot 100, after the backlog drained: latency %.1f ms, want ~5", got)
	}
	if ls := p.lateShare(); ls < 36.0/n || ls > 44.0/n {
		t.Errorf("late share %.3f, want the ~38 backlogged slots of %d", ls, n)
	}
}

func TestOpenLoopSecondWorkerAbsorbsStall(t *testing.T) {
	const n = 60
	srv := delayServer(2*time.Millisecond, 100*time.Millisecond, 10, nil)
	defer srv.Close()
	p := openLoop(2, n, 10*time.Millisecond, slotDo(t, srv, 2))
	slow := 0
	for _, l := range p.lat {
		if l > 20 {
			slow++
		}
	}
	if slow != 1 || p.failed != 0 {
		t.Errorf("%d slow requests, %d failed; want only the stalled one: the free connection keeps the schedule", slow, p.failed)
	}
}

func TestClosedLoopCountsEverySlotOnce(t *testing.T) {
	const n = 50
	var seen [n]atomic.Int32
	p := closedLoop(2, n, 0, func(_, slot int) bool {
		seen[slot].Add(1)
		return slot%10 != 0
	})
	for slot := range seen {
		if c := seen[slot].Load(); c != 1 {
			t.Errorf("slot %d ran %d times", slot, c)
		}
	}
	if p.attempted != n || p.failed != 5 || len(p.lat) != n {
		t.Errorf("attempted %d failed %d latencies %d, want %d, 5, %d", p.attempted, p.failed, len(p.lat), n, n)
	}
}

func TestSegmentPercentileIgnoresOneBurst(t *testing.T) {
	var lat []float64
	for seg := 0; seg < 3; seg++ {
		for i := 1; i <= 10; i++ {
			v := float64(i)
			if seg == 1 { // the noisy-neighbour burst
				v += 100
			}
			lat = append(lat, v)
		}
	}
	// Nearest rank on 10 values: p50 is the 6th, p99 the 10th; per
	// segment 6, 106, 6 and 10, 110, 10; the medians drop the burst.
	if got := segmentPercentile(lat, 10, 0.50); got != 6 {
		t.Errorf("segment-median p50 = %v, want 6", got)
	}
	if got := segmentPercentile(lat, 10, 0.99); got != 10 {
		t.Errorf("segment-median p99 = %v, want 10", got)
	}
	if got := percentile(sortedCopy(lat), 0.99); got != 110 {
		t.Errorf("pooled p99 = %v, want 110 (the burst decides it)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestPromSum(t *testing.T) {
	page := []byte("# HELP zoomer_gateway_shed_total x\n" +
		"zoomer_gateway_shed_total{kind=\"inflight_cap\"} 3\n" +
		"zoomer_gateway_shed_total{kind=\"queue_full\"} 4\n" +
		"zoomer_gateway_shed_totals 100\n" +
		"zoomer_gateway_degraded_total 7\n")
	if got := promSum(page, "zoomer_gateway_shed_total"); got != 7 {
		t.Errorf("shed_total = %d, want 7", got)
	}
	if got := promSum(page, "zoomer_gateway_degraded_total"); got != 7 {
		t.Errorf("degraded_total = %d, want 7", got)
	}
}

// BENCHMARK.json names the metrics; the program prints them. They must
// agree or the driver refuses the run.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i])
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
