// Package alias implements Walker's alias method for O(1) sampling from a
// discrete distribution. The paper's graph engine (§VI, "Distributed graph
// engine") uses an alias table over each adjacency list so that weighted
// neighbor sampling costs constant time independent of degree; this package
// is that component.
package alias

import (
	"fmt"

	"zoomer/internal/rng"
)

// Table is an immutable alias table over n outcomes. Construction is O(n);
// each Sample is O(1). The zero value is an empty table that cannot be
// sampled from.
type Table struct {
	prob  []float64
	alias []int32
}

// New builds an alias table from the given non-negative weights. Weights
// need not be normalized. It returns an error if weights is empty, if any
// weight is negative, or if all weights are zero.
func New(weights []float64) (*Table, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("alias: empty weight vector")
	}
	t := &Table{
		prob:  make([]float64, n),
		alias: make([]int32, n),
	}
	if err := BuildInto(t.prob, t.alias, weights, make([]int32, n)); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildInto constructs an alias table over weights directly into prob and
// aliasIdx, both of length len(weights), using stack (also length
// len(weights)) as scratch — no heap allocation. This is the kernel the
// graph engine uses to precompute one flat, CSR-aligned table for every
// adjacency list at startup. A slot i is sampled by drawing a uniform
// index and accepting it with probability prob[i], else taking
// aliasIdx[i] — exactly Table.Sample over the same arrays.
//
// It returns an error (leaving the output unspecified) if weights is
// empty, any weight is negative, or all weights are zero.
func BuildInto(prob []float64, aliasIdx []int32, weights []float64, stack []int32) error {
	n := len(weights)
	if n == 0 {
		return fmt.Errorf("alias: empty weight vector")
	}
	if len(prob) != n || len(aliasIdx) != n || len(stack) < n {
		return fmt.Errorf("alias: BuildInto buffer sizes %d/%d/%d for %d weights",
			len(prob), len(aliasIdx), len(stack), n)
	}
	var sum float64
	for i, w := range weights {
		if w < 0 {
			return fmt.Errorf("alias: negative weight %v at index %d", w, i)
		}
		sum += w
	}
	if sum == 0 {
		return fmt.Errorf("alias: all weights are zero")
	}

	// Scaled probabilities p_i*n go straight into prob: the Vose loop
	// finalizes each "small" slot exactly when it pops it, so prob doubles
	// as the scaled-weight working array.
	scale := float64(n) / sum
	for i, w := range weights {
		prob[i] = w * scale
	}

	// Partition indices into the two stacks sharing one scratch array:
	// small grows from the front, large from the back.
	si, li := 0, n
	for i := n - 1; i >= 0; i-- {
		if prob[i] < 1 {
			stack[si] = int32(i)
			si++
		} else {
			li--
			stack[li] = int32(i)
		}
	}

	for si > 0 && li < n {
		si--
		s := stack[si]
		l := stack[li]
		li++

		aliasIdx[s] = l
		prob[l] -= 1 - prob[s]
		if prob[l] < 1 {
			stack[si] = l
			si++
		} else {
			li--
			stack[li] = l
		}
	}
	// Residuals are 1 up to float error.
	for ; li < n; li++ {
		prob[stack[li]] = 1
		aliasIdx[stack[li]] = stack[li]
	}
	for si > 0 {
		si--
		prob[stack[si]] = 1
		aliasIdx[stack[si]] = stack[si]
	}
	return nil
}

// MustBuildInto is BuildInto but panics on error; for inputs known to be
// valid (e.g. uniform fallback weights).
func MustBuildInto(prob []float64, aliasIdx []int32, weights []float64, stack []int32) {
	if err := BuildInto(prob, aliasIdx, weights, stack); err != nil {
		panic(err)
	}
}

// SampleFrom draws an outcome index in [0, len(prob)) from arrays built
// by BuildInto: the one authoritative implementation of the alias draw,
// shared by Table.Sample and every flat-table consumer. It panics on
// empty arrays (via Intn).
func SampleFrom(prob []float64, aliasIdx []int32, r *rng.RNG) int {
	i := r.Intn(len(prob))
	if r.Float64() < prob[i] {
		return i
	}
	return int(aliasIdx[i])
}

// MustNew is New but panics on error; for static tables known to be valid.
func MustNew(weights []float64) *Table {
	t, err := New(weights)
	if err != nil {
		panic(err)
	}
	return t
}

// N returns the number of outcomes.
func (t *Table) N() int { return len(t.prob) }

// Sample draws an outcome index in [0, N()) with probability proportional
// to its construction weight. It panics on an empty table.
func (t *Table) Sample(r *rng.RNG) int {
	if len(t.prob) == 0 {
		panic("alias: sampling from empty table")
	}
	return SampleFrom(t.prob, t.alias, r)
}
