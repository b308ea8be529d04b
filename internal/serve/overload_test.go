package serve

import (
	"testing"
	"time"
)

// The Fig. 9 collector regression: a sweep serving more responses than
// the old 65536-slot buffer must complete with honest latencies. Before
// the fix, responses were only drained after the submit loop ended, so
// past 65536 outstanding responses the buffer filled, workers blocked
// on req.resp <- and every request queued behind them aged for the rest
// of the submit window — the sweep reported its own measurement
// backpressure as serving latency. With concurrent collection the same
// run drains cleanly: nothing times out and the tail stays at queue-wait
// scale, far below the blocked-worker artifact.
func TestLoadTestOverloadBeyondOldBufferBound(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: bulk overload sweep")
	}
	h := buildHarness(t)
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.TopK = 4
	cfg.NProbe = 1
	srv := NewServer(h.emb, h.cache, h.index, cfg)
	defer srv.Close()

	const target = 70000 // comfortably past the old 65536-slot bound

	// Probe throughput first so the measured run's duration is sized to
	// clear the target on this machine (race-detector builds are many
	// times slower than plain ones).
	probe, err := LoadTest(srv, h.users, h.queries, 5e6, 200*time.Millisecond, 70)
	if err != nil {
		t.Fatalf("probe LoadTest: %v", err)
	}
	if probe.Served < 100 {
		t.Skip("load generator starved; environment too slow")
	}
	perSec := float64(probe.Served) / 0.2
	d := time.Duration(float64(target) / perSec * 1.5 * float64(time.Second))
	if d < 2*time.Second {
		d = 2 * time.Second
	}
	if d > 30*time.Second {
		t.Skipf("environment too slow: %.0f served/s would need %v", perSec, d)
	}

	st, err := LoadTest(srv, h.users, h.queries, 5e6, d, 71)
	if err != nil {
		t.Fatalf("LoadTest: %v", err)
	}
	if st.Served <= 65536 {
		t.Skipf("only served %d in %v; environment too slow to cross the old buffer bound", st.Served, d)
	}
	if st.TimedOut != 0 {
		t.Fatalf("clean overload run timed out %d responses (stats %+v)", st.TimedOut, st)
	}
	// Honest latency: queue-wait scale. The old collector's artifact held
	// responses hostage for the remaining submit window (seconds).
	if st.P99 >= time.Second {
		t.Fatalf("p99 %v at blocked-worker scale — collector backpressure is being measured as latency (stats %+v)", st.P99, st)
	}
	t.Logf("served %d (> old 65536 bound) in %v: p50=%v p95=%v p99=%v dropped=%d",
		st.Served, d, st.P50, st.P95, st.P99, st.Dropped)
}

// Responses still outstanding when the drain window closes must be
// counted as drops (and reported as TimedOut) — the stats contract the
// old code's comment promised but never implemented.
func TestLoadTestCountsStuckResponsesAsDrops(t *testing.T) {
	h := buildHarness(t)
	cfg := DefaultConfig()
	cfg.Workers = 1 // a single worker, deliberately wedged below
	srv := NewServer(h.emb, h.cache, h.index, cfg)

	// Wedge the worker: an unbuffered response channel nobody reads
	// blocks the send, so everything LoadTest submits sits in the queue
	// unanswered until the drain window closes.
	wedge := make(chan Response)
	if !srv.SubmitReq(Request{User: h.users[0], Query: h.queries[0]}, wedge) {
		t.Fatal("wedge submit rejected")
	}
	defer func() {
		<-wedge // unwedge the worker so Close can finish the queue
		srv.Close()
	}()
	time.Sleep(50 * time.Millisecond) // let the worker reach the send

	old := loadDrainTimeout
	loadDrainTimeout = 200 * time.Millisecond
	defer func() { loadDrainTimeout = old }()

	st, err := LoadTest(srv, h.users, h.queries, 500, 100*time.Millisecond, 72)
	if err != nil {
		t.Fatalf("LoadTest: %v", err)
	}
	if st.TimedOut == 0 {
		t.Fatalf("wedged run reported no timed-out responses (stats %+v)", st)
	}
	if st.Served != 0 {
		t.Fatalf("wedged worker served %d", st.Served)
	}
	if st.Dropped < st.TimedOut {
		t.Fatalf("Dropped %d does not include the %d timed-out responses", st.Dropped, st.TimedOut)
	}
}

// Non-positive rates must be rejected, not busy-spun.
func TestLoadTestRejectsNonPositiveQPS(t *testing.T) {
	h := buildHarness(t)
	srv := NewServer(h.emb, h.cache, h.index, DefaultConfig())
	defer srv.Close()
	for _, qps := range []float64{0, -1, -0.5} {
		if _, err := LoadTest(srv, h.users, h.queries, qps, 50*time.Millisecond, 73); err == nil {
			t.Fatalf("qps=%g accepted", qps)
		}
	}
}
