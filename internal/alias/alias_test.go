package alias

import (
	"math"
	"testing"
	"testing/quick"

	"zoomer/internal/rng"
)

// table is one flat alias table, built and drawn from as the engine does.
type table struct {
	prob  []float64
	alias []int32
}

func newTable(weights []float64) (table, error) {
	n := len(weights)
	tab := table{make([]float64, n), make([]int32, n)}
	return tab, BuildInto(tab.prob, tab.alias, weights, make([]int32, n))
}

func mustTable(weights []float64) table {
	tab, err := newTable(weights)
	if err != nil {
		panic(err)
	}
	return tab
}

func (tab table) Sample(r *rng.RNG) int { return SampleFrom(tab.prob, tab.alias, r) }

func TestErrors(t *testing.T) {
	if _, err := newTable(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := newTable([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := newTable([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
}

func TestMustBuildIntoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuildInto did not panic on bad input")
		}
	}()
	MustBuildInto(nil, nil, nil, nil)
}

func TestSingleOutcome(t *testing.T) {
	tab := mustTable([]float64{3.5})
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		if tab.Sample(r) != 0 {
			t.Fatal("single-outcome table returned nonzero index")
		}
	}
}

func TestZeroWeightNeverSampled(t *testing.T) {
	tab := mustTable([]float64{1, 0, 1})
	r := rng.New(2)
	for i := 0; i < 20000; i++ {
		if tab.Sample(r) == 1 {
			t.Fatal("zero-weight outcome was sampled")
		}
	}
}

// TestDistributionMatches verifies that empirical frequencies converge to
// the target distribution (chi-square-style tolerance).
func TestDistributionMatches(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 10}
	tab := mustTable(weights)
	r := rng.New(3)
	const n = 400000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[tab.Sample(r)]++
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		want := w / sum
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.005 {
			t.Fatalf("outcome %d frequency %v, want %v", i, got, want)
		}
	}
}

// TestPropertyDistribution is a quick-check over random weight vectors:
// every sampled index is in range and positive-weight outcomes dominate.
func TestPropertyDistribution(t *testing.T) {
	r := rng.New(11)
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		weights := make([]float64, len(raw))
		var sum float64
		for i, b := range raw {
			weights[i] = float64(b)
			sum += weights[i]
		}
		if sum == 0 {
			return true
		}
		tab, err := newTable(weights)
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			idx := tab.Sample(r)
			if idx < 0 || idx >= len(weights) || weights[idx] == 0 {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestConstantTime pins the O(1) property loosely: sampling cost must not
// scale with table size (allowing generous noise).
func TestLargeTable(t *testing.T) {
	r := rng.New(7)
	weights := make([]float64, 100000)
	for i := range weights {
		weights[i] = r.Float64() + 0.01
	}
	tab := mustTable(weights)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[tab.Sample(r)] = true
	}
	if len(seen) < 900 {
		t.Fatalf("large uniform-ish table shows too few distinct samples: %d", len(seen))
	}
}

func BenchmarkSample1K(b *testing.B) { benchSample(b, 1_000) }
func BenchmarkSample1M(b *testing.B) { benchSample(b, 1_000_000) }

func benchSample(b *testing.B, n int) {
	r := rng.New(1)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = r.Float64() + 0.01
	}
	tab := mustTable(weights)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = tab.Sample(r)
	}
	_ = sink
}

// An alias table is correct iff the marginal probability each outcome
// receives — prob[i]/n directly, plus (1-prob[j])/n from every slot j
// aliased to it — equals w_i/Σw. Checking that reconstruction against
// the raw weights validates BuildInto against the algebra rather than
// against the sampling tests above (which draw from it and would make the test circular).
func TestBuildIntoReconstructsWeights(t *testing.T) {
	r := rng.New(21)
	for _, n := range []int{1, 2, 7, 64, 1000} {
		weights := make([]float64, n)
		var sum float64
		for i := range weights {
			weights[i] = r.Float64() * float64(1+i%5)
		}
		weights[r.Intn(n)] = 0 // exercise a zero slot among non-zeros
		if n == 1 {
			weights[0] = 1
		}
		for _, w := range weights {
			sum += w
		}
		prob := make([]float64, n)
		aliasIx := make([]int32, n)
		stack := make([]int32, n)
		if err := BuildInto(prob, aliasIx, weights, stack); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		marginal := make([]float64, n)
		for i := 0; i < n; i++ {
			if prob[i] < 0 || prob[i] > 1+1e-9 {
				t.Fatalf("n=%d slot %d: prob %v outside [0,1]", n, i, prob[i])
			}
			marginal[i] += prob[i] / float64(n)
			marginal[aliasIx[i]] += (1 - prob[i]) / float64(n)
		}
		for i := 0; i < n; i++ {
			want := weights[i] / sum
			if diff := marginal[i] - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("n=%d slot %d: marginal %v, want %v", n, i, marginal[i], want)
			}
		}
	}
}

func TestBuildIntoRejectsBadInput(t *testing.T) {
	buf := func(n int) ([]float64, []int32, []int32) {
		return make([]float64, n), make([]int32, n), make([]int32, n)
	}
	p, a, s := buf(0)
	if err := BuildInto(p, a, nil, s); err == nil {
		t.Fatal("empty weights accepted")
	}
	p, a, s = buf(2)
	if err := BuildInto(p, a, []float64{1, -1}, s); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := BuildInto(p, a, []float64{0, 0}, s); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if err := BuildInto(p[:1], a, []float64{1, 2}, s); err == nil {
		t.Fatal("short prob buffer accepted")
	}
}

// The empirical distribution of BuildInto-backed sampling must follow the
// weights (the engine samples straight off these arrays).
func TestBuildIntoDistribution(t *testing.T) {
	weights := []float64{1, 3, 6}
	n := len(weights)
	prob := make([]float64, n)
	aliasIx := make([]int32, n)
	if err := BuildInto(prob, aliasIx, weights, make([]int32, n)); err != nil {
		t.Fatal(err)
	}
	r := rng.New(22)
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[SampleFrom(prob, aliasIx, r)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / draws
		if got < want-0.02 || got > want+0.02 {
			t.Fatalf("slot %d: frequency %.3f, want %.3f", i, got, want)
		}
	}
}
