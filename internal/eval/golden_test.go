package eval

import (
	"testing"

	"zoomer/internal/rng"
)

// The golden tests below pin the exact float64 output of every metric on
// seeded random inputs. Any change to the implementations — rank
// averaging in AUC, quantile interpolation in CDF — that shifts a single
// bit fails these, which is the point: the cross-topology equivalence
// suite compares metric values bit-for-bit, so the metrics themselves
// must be bit-stable across PRs.

func TestAUCGolden(t *testing.T) {
	r := rng.New(42)
	n := 64
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = r.Float64()
		labels[i] = r.Float64() < 0.4
	}
	if got := AUC(scores, labels); got != 0.4837662337662338 {
		t.Fatalf("AUC = %v", got)
	}
	// Quantizing the scores into 4 buckets forces heavy tie groups; the
	// tie-averaged rank formulation must land on this exact value.
	tied := make([]float64, n)
	for i, s := range scores {
		tied[i] = float64(int(s * 4))
	}
	if got := AUC(tied, labels); got != 0.49783549783549785 {
		t.Fatalf("tied AUC = %v", got)
	}
}

func TestAUCEdgeCases(t *testing.T) {
	if got := AUC([]float64{}, []bool{}); got != 0.5 {
		t.Fatalf("empty AUC = %v", got)
	}
	if got := AUC([]float64{0.1, 0.9, 0.5}, []bool{true, true, true}); got != 0.5 {
		t.Fatalf("all-positive AUC = %v", got)
	}
	if got := AUC([]float64{0.1, 0.9, 0.5}, []bool{false, false, false}); got != 0.5 {
		t.Fatalf("all-negative AUC = %v", got)
	}
	// A tie spanning both classes splits the rank mass evenly.
	if got := AUC([]float64{1, 1}, []bool{true, false}); got != 0.5 {
		t.Fatalf("two-way tie AUC = %v", got)
	}
	// One positive tied with one of two negatives: 0.75 exactly.
	if got := AUC([]float64{2, 2, 1}, []bool{true, false, false}); got != 0.75 {
		t.Fatalf("partial tie AUC = %v", got)
	}
}

func TestHitRateAtKGolden(t *testing.T) {
	r := rng.New(43)
	retrieved := make([][]int, 32)
	clicked := make([]int, 32)
	for i := range retrieved {
		for j := 0; j < 10; j++ {
			retrieved[i] = append(retrieved[i], r.Intn(50))
		}
		clicked[i] = r.Intn(50)
	}
	want := map[int]float64{1: 0.0625, 5: 0.125, 10: 0.15625}
	for k, w := range want {
		if got := HitRateAtK(retrieved, clicked, k); got != w {
			t.Fatalf("HR@%d = %v, want %v", k, got, w)
		}
	}
	if got := HitRateAtK([][]int{}, []int{}, 5); got != 0 {
		t.Fatalf("empty HR = %v", got)
	}
	if got := HitRateAtK([][]int{{}}, []int{3}, 5); got != 0 {
		t.Fatalf("empty-list HR = %v", got)
	}
}

func TestMAERMSEGolden(t *testing.T) {
	r := rng.New(44)
	pred := make([]float64, 48)
	target := make([]float64, 48)
	for i := range pred {
		pred[i] = r.Float64() * 5
		target[i] = r.Float64() * 5
	}
	if got := MAE(pred, target); got != 1.7827710522756053 {
		t.Fatalf("MAE = %v", got)
	}
	if got := RMSE(pred, target); got != 2.226234093777657 {
		t.Fatalf("RMSE = %v", got)
	}
	if MAE([]float64{}, []float64{}) != 0 {
		t.Fatal("empty MAE != 0")
	}
	if RMSE([]float64{}, []float64{}) != 0 {
		t.Fatal("empty RMSE != 0")
	}
	// Identical vectors: exactly zero, no accumulated rounding.
	same := []float64{1.5, -2.25, 1e9}
	if MAE(same, same) != 0 || RMSE(same, same) != 0 {
		t.Fatal("self MAE/RMSE != 0")
	}
}
