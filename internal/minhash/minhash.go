// Package minhash implements MinHash signatures for estimating Jaccard
// similarity between term sets. The paper (§II, "Retrieval Graph") uses
// MinHash-estimated Jaccard similarities between query and item title
// terms as the weights of similarity-based edges, which matter most for
// cold-start nodes with sparse interactions.
package minhash

import "zoomer/internal/rng"

// Signature is a fixed-length MinHash signature. Two signatures are
// comparable only when produced by the same Hasher.
type Signature []uint64

// Hasher produces MinHash signatures with k hash functions. The k
// functions are parameterized as h_i(x) = a_i*x + b_i over the FNV-1a hash
// of the token (the standard multiply-shift family).
type Hasher struct {
	a, b []uint64
}

// NewHasher returns a Hasher with k hash functions derived from seed.
// It panics if k <= 0.
func NewHasher(k int, seed uint64) *Hasher {
	if k <= 0 {
		panic("minhash: k must be positive")
	}
	r := rng.New(seed)
	h := &Hasher{a: make([]uint64, k), b: make([]uint64, k)}
	for i := 0; i < k; i++ {
		h.a[i] = r.Uint64() | 1 // odd multiplier for full-period mixing
		h.b[i] = r.Uint64()
	}
	return h
}

// K returns the signature length.
func (h *Hasher) K() int { return len(h.a) }

// SignIDs computes the signature of a set of integer tokens (e.g. term or
// category ids), avoiding string hashing.
func (h *Hasher) SignIDs(ids []uint64) Signature {
	sig := make(Signature, len(h.a))
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, x := range ids {
		// Pre-mix the raw id so adjacent ids decorrelate.
		x = (x ^ (x >> 33)) * 0xff51afd7ed558ccd
		x ^= x >> 33
		for i := range sig {
			v := h.a[i]*x + h.b[i]
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// Similarity estimates the Jaccard similarity between the sets that
// produced a and b, as the fraction of matching signature slots. It panics
// if the signatures have different lengths.
func Similarity(a, b Signature) float64 {
	if len(a) != len(b) {
		panic("minhash: signature length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	match := 0
	for i := range a {
		if a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(len(a))
}

// exactJaccard computes the exact Jaccard similarity of two id sets: the
// reference the signature estimate is tested against.
func exactJaccard(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	set := make(map[uint64]bool, len(a))
	for _, t := range a {
		set[t] = true
	}
	inter := 0
	bset := make(map[uint64]bool, len(b))
	for _, t := range b {
		if bset[t] {
			continue
		}
		bset[t] = true
		if set[t] {
			inter++
		}
	}
	union := len(set) + len(bset) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
