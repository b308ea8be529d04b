package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

var testBounds = []float64{0.001, 0.01, 0.1}

func TestObserveAllocatesNothing(t *testing.T) {
	h := NewHistogram(testBounds)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("Observe made %v allocations, want 0", n)
	}
}

// Concurrent observers lose nothing: every bucket, the count and the sum
// add up exactly.
func TestConcurrentObserveSumsExactly(t *testing.T) {
	h := NewHistogram(testBounds)
	durs := []time.Duration{500 * time.Microsecond, 5 * time.Millisecond, 50 * time.Millisecond, time.Second}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(durs[i%len(durs)])
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	var count uint64
	for _, n := range s.Buckets {
		count += n
	}
	if count != workers*per {
		t.Fatalf("count %d, want %d", count, workers*per)
	}
	for i, n := range s.Buckets {
		if n != workers*per/uint64(len(durs)) {
			t.Fatalf("bucket %d holds %d, want %d", i, n, workers*per/uint64(len(durs)))
		}
	}
	var sum time.Duration
	for _, d := range durs {
		sum += d
	}
	if want := sum * workers * per / time.Duration(len(durs)); s.Sum != want {
		t.Fatalf("sum %v, want %v", s.Sum, want)
	}
}

// A page prints each family's header once, buckets cumulatively, and the
// le label alone, without a leading comma, when the series has no other.
func TestPageFormat(t *testing.T) {
	h := NewHistogram(testBounds)
	for _, d := range []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 20 * time.Millisecond, time.Second} {
		h.Observe(d)
	}
	var b strings.Builder
	p := NewPage(&b)
	p.Family("x_total", "counter", "Things.")
	p.Sample(int64(3), "route", "a", "code", "200")
	p.Sample(uint64(4))
	p.Family("x_seconds", "histogram", "Latency.")
	p.Hist(h.Snapshot())
	p.Hist(Snapshot{Bounds: testBounds, Buckets: []uint64{1}, Sum: time.Second / 2}, "shard", "0")
	p.Family("x_rate", "gauge", "Rate.")
	p.Sample(0.25)
	want := `# HELP x_total Things.
# TYPE x_total counter
x_total{route="a",code="200"} 3
x_total 4
# HELP x_seconds Latency.
# TYPE x_seconds histogram
x_seconds_bucket{le="0.001"} 2
x_seconds_bucket{le="0.01"} 3
x_seconds_bucket{le="0.1"} 4
x_seconds_bucket{le="+Inf"} 5
x_seconds_sum 1.023
x_seconds_count 5
x_seconds_bucket{shard="0",le="0.001"} 1
x_seconds_bucket{shard="0",le="0.01"} 1
x_seconds_bucket{shard="0",le="0.1"} 1
x_seconds_bucket{shard="0",le="+Inf"} 1
x_seconds_sum{shard="0"} 0.5
x_seconds_count{shard="0"} 1
# HELP x_rate Rate.
# TYPE x_rate gauge
x_rate 0.25
`
	if got := b.String(); got != want {
		t.Fatalf("page:\n%s\nwant:\n%s", got, want)
	}
}
