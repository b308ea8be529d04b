package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams overlap: %d/100 identical", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(13)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed elements: sum %d -> %d", sum, got)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(21)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestZipfRankOrdering(t *testing.T) {
	r := New(31)
	z := NewZipf(r, 100, 1.1)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Sample()]++
	}
	// Rank 0 must dominate rank 10, which must dominate rank 90.
	if !(counts[0] > counts[10] && counts[10] > counts[90]) {
		t.Fatalf("Zipf ordering violated: c0=%d c10=%d c90=%d", counts[0], counts[10], counts[90])
	}
	// Head mass check: with s=1.1 the top 10 ranks should hold a large share.
	head := 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	if head < 40000 {
		t.Fatalf("Zipf head mass too small: %d/100000", head)
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(37)
	z := NewZipf(r, 17, 0.8)
	if len(z.cdf) != 17 {
		t.Fatalf("N = %d, want 17", len(z.cdf))
	}
	for i := 0; i < 10000; i++ {
		v := z.Sample()
		if v < 0 || v >= 17 {
			t.Fatalf("Zipf sample out of range: %d", v)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkZipfSample(b *testing.B) {
	r := New(1)
	z := NewZipf(r, 1_000_000, 1.05)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = z.Sample()
	}
	_ = sink
}

// State/SetState must round-trip the stream exactly: a generator restored
// from a snapshot replays the identical tail, and a second generator
// seeded with a transported state continues the original stream — the
// contract the RPC shard backend relies on to keep remote draws
// bit-identical to local ones.
func TestStateRoundTrip(t *testing.T) {
	r := New(42)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	st := r.State()
	want := make([]uint64, 32)
	for i := range want {
		want[i] = r.Uint64()
	}

	// Replay on the same generator.
	r.SetState(st)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("replay diverges at %d: %d vs %d", i, got, w)
		}
	}

	// Continue on a different generator, as a remote shard would.
	other := New(7)
	other.SetState(st)
	for i, w := range want {
		if got := other.Uint64(); got != w {
			t.Fatalf("transported stream diverges at %d: %d vs %d", i, got, w)
		}
	}
	// The remote side hands the advanced state back; both generators are
	// now at the same point of the same stream.
	r.SetState(other.State())
	if a, b := r.Uint64(), other.Uint64(); a != b {
		t.Fatalf("returned state diverges: %d vs %d", a, b)
	}
}
