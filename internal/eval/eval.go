// Package eval implements the evaluation metrics of §VII-A: AUC over
// scored query-item pairs, HitRate@K over retrieved lists, MAE/RMSE for
// the MovieLens benchmark, and the distribution utilities (CDFs, cosine
// similarity measurements) behind the motivation figures.
package eval

import (
	"math"
	"sort"
)

// AUC returns the area under the ROC curve for scores with binary labels,
// computed by the rank-statistic formulation (equivalent to the
// probability a random positive outranks a random negative). Ties share
// rank mass. It returns 0.5 when either class is empty, the uninformative
// default.
func AUC(scores []float64, labels []bool) float64 {
	if len(scores) != len(labels) {
		panic("eval: AUC length mismatch")
	}
	n := len(scores)
	if n == 0 {
		return 0.5
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	// Average ranks over tie groups.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[idx[j+1]] == scores[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1 // 1-based average rank
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	var posRankSum float64
	var nPos int
	for i, l := range labels {
		if l {
			posRankSum += ranks[i]
			nPos++
		}
	}
	nNeg := n - nPos
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	return (posRankSum - float64(nPos)*float64(nPos+1)/2) / (float64(nPos) * float64(nNeg))
}

// HitRateAtK returns the fraction of test interactions whose clicked item
// appears in the model's top-k retrieved list. retrieved[i] is the ranked
// list for test case i; clicked[i] the ground-truth item.
func HitRateAtK(retrieved [][]int, clicked []int, k int) float64 {
	if len(retrieved) != len(clicked) {
		panic("eval: HitRateAtK length mismatch")
	}
	if len(retrieved) == 0 {
		return 0
	}
	hits := 0
	for i, list := range retrieved {
		lim := k
		if lim > len(list) {
			lim = len(list)
		}
		for _, it := range list[:lim] {
			if it == clicked[i] {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(retrieved))
}

// MAE returns the mean absolute error between predictions and targets.
func MAE(pred, target []float64) float64 {
	if len(pred) != len(target) {
		panic("eval: MAE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - target[i])
	}
	return s / float64(len(pred))
}

// RMSE returns the root mean squared error between predictions and
// targets.
func RMSE(pred, target []float64) float64 {
	if len(pred) != len(target) {
		panic("eval: RMSE length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	var s float64
	for i := range pred {
		d := pred[i] - target[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// CDF summarizes a sample as quantile points, for the Fig. 4c-style
// similarity distributions.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from values (copied and sorted).
func NewCDF(values []float64) *CDF {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// MeanStd returns the sample mean and (population) standard deviation.
func MeanStd(values []float64) (mean, std float64) {
	if len(values) == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	for _, v := range values {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(values)))
	return mean, std
}
