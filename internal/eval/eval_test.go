package eval

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"zoomer/internal/rng"
)

func TestAUCPerfectSeparation(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if auc := AUC(scores, labels); auc != 1 {
		t.Fatalf("perfect AUC = %v", auc)
	}
	// Inverted scores give 0.
	inv := []float64{0.1, 0.2, 0.8, 0.9}
	if auc := AUC(inv, labels); auc != 0 {
		t.Fatalf("inverted AUC = %v", auc)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	r := rng.New(1)
	n := 20000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = r.Float64()
		labels[i] = r.Float64() < 0.3
	}
	if auc := AUC(scores, labels); math.Abs(auc-0.5) > 0.02 {
		t.Fatalf("random AUC = %v, want ~0.5", auc)
	}
}

func TestAUCTies(t *testing.T) {
	// All scores equal: AUC must be exactly 0.5.
	scores := []float64{1, 1, 1, 1}
	labels := []bool{true, false, true, false}
	if auc := AUC(scores, labels); auc != 0.5 {
		t.Fatalf("all-ties AUC = %v", auc)
	}
}

func TestAUCDegenerate(t *testing.T) {
	if auc := AUC(nil, nil); auc != 0.5 {
		t.Fatal("empty AUC should be 0.5")
	}
	if auc := AUC([]float64{1, 2}, []bool{true, true}); auc != 0.5 {
		t.Fatal("single-class AUC should be 0.5")
	}
}

// Property: AUC is invariant under any strictly monotone transform.
func TestAUCMonotoneInvariance(t *testing.T) {
	r := rng.New(2)
	if err := quick.Check(func(seed uint32) bool {
		n := 10 + int(seed%50)
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			scores[i] = r.Float64() * 10
			labels[i] = r.Float64() < 0.5
		}
		a := AUC(scores, labels)
		transformed := make([]float64, n)
		for i, s := range scores {
			transformed[i] = math.Exp(s/3) + 7
		}
		b := AUC(transformed, labels)
		return math.Abs(a-b) < 1e-9
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAUCPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	AUC([]float64{1}, []bool{true, false})
}

func TestHitRateAtK(t *testing.T) {
	retrieved := [][]int{
		{5, 3, 1},
		{2, 9, 4},
		{7, 8},
	}
	clicked := []int{3, 4, 6}
	if hr := HitRateAtK(retrieved, clicked, 1); hr != 0 {
		t.Fatalf("HR@1 = %v", hr)
	}
	if hr := HitRateAtK(retrieved, clicked, 2); math.Abs(hr-1.0/3) > 1e-12 {
		t.Fatalf("HR@2 = %v", hr)
	}
	if hr := HitRateAtK(retrieved, clicked, 3); math.Abs(hr-2.0/3) > 1e-12 {
		t.Fatalf("HR@3 = %v", hr)
	}
	// k beyond list length is safe.
	if hr := HitRateAtK(retrieved, clicked, 100); math.Abs(hr-2.0/3) > 1e-12 {
		t.Fatalf("HR@100 = %v", hr)
	}
	if hr := HitRateAtK(nil, nil, 5); hr != 0 {
		t.Fatal("empty hitrate should be 0")
	}
}

// HitRate must be monotone nondecreasing in k.
func TestHitRateMonotone(t *testing.T) {
	r := rng.New(3)
	retrieved := make([][]int, 50)
	clicked := make([]int, 50)
	for i := range retrieved {
		for j := 0; j < 20; j++ {
			retrieved[i] = append(retrieved[i], r.Intn(100))
		}
		clicked[i] = r.Intn(100)
	}
	prev := 0.0
	for k := 1; k <= 20; k++ {
		hr := HitRateAtK(retrieved, clicked, k)
		if hr < prev {
			t.Fatalf("hitrate decreased at k=%d: %v < %v", k, hr, prev)
		}
		prev = hr
	}
}

func TestMAERMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	target := []float64{1, 1, 5}
	if mae := MAE(pred, target); math.Abs(mae-1) > 1e-12 {
		t.Fatalf("MAE = %v", mae)
	}
	wantRMSE := math.Sqrt((0 + 1 + 4) / 3.0)
	if rmse := RMSE(pred, target); math.Abs(rmse-wantRMSE) > 1e-12 {
		t.Fatalf("RMSE = %v", rmse)
	}
	// RMSE >= MAE always.
	if RMSE(pred, target) < MAE(pred, target) {
		t.Fatal("RMSE < MAE")
	}
	if MAE(nil, nil) != 0 || RMSE(nil, nil) != 0 {
		t.Fatal("empty errors should be 0")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if p := c.At(0); p != 0 {
		t.Fatalf("At(0) = %v", p)
	}
	if p := c.At(2); p != 0.5 {
		t.Fatalf("At(2) = %v", p)
	}
	if p := c.At(10); p != 1 {
		t.Fatalf("At(10) = %v", p)
	}
	if NewCDF(nil).At(0) != 0 {
		t.Fatal("empty At != 0")
	}
}

// Property: CDF At is monotone and steps by 1/n at each sample point.
func TestCDFMonotone(t *testing.T) {
	r := rng.New(4)
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = r.NormFloat64()
	}
	c := NewCDF(vals)
	prev := -1.0
	for x := -3.0; x <= 3; x += 0.1 {
		p := c.At(x)
		if p < prev {
			t.Fatal("CDF not monotone")
		}
		prev = p
	}
	sort.Float64s(vals)
	for i, x := range vals {
		if p := c.At(x); math.Abs(p-float64(i+1)/200) > 1e-12 {
			t.Fatalf("At(sample %d) = %v", i, p)
		}
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(mean-5) > 1e-12 {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(std-2) > 1e-12 {
		t.Fatalf("std = %v", std)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty MeanStd should be zeros")
	}
}

func BenchmarkAUC10K(b *testing.B) {
	r := rng.New(1)
	scores := make([]float64, 10000)
	labels := make([]bool, 10000)
	for i := range scores {
		scores[i] = r.Float64()
		labels[i] = r.Float64() < 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = AUC(scores, labels)
	}
}
