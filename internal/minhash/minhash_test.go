package minhash

import (
	"math"
	"testing"
	"testing/quick"

	"zoomer/internal/rng"
)

func TestIdenticalSetsSimilarityOne(t *testing.T) {
	h := NewHasher(64, 1)
	a := h.SignIDs([]uint64{1, 2, 3})
	b := h.SignIDs([]uint64{3, 1, 2}) // order must not matter
	if s := Similarity(a, b); s != 1 {
		t.Fatalf("identical sets similarity = %v, want 1", s)
	}
}

func TestDisjointSetsNearZero(t *testing.T) {
	h := NewHasher(128, 2)
	a := h.SignIDs([]uint64{1, 2, 3})
	b := h.SignIDs([]uint64{4, 5, 6})
	if s := Similarity(a, b); s > 0.1 {
		t.Fatalf("disjoint sets similarity = %v, want ~0", s)
	}
}

func TestEmptySet(t *testing.T) {
	h := NewHasher(32, 3)
	empty := h.SignIDs(nil)
	nonEmpty := h.SignIDs([]uint64{1})
	if s := Similarity(empty, nonEmpty); s != 0 {
		t.Fatalf("empty-vs-nonempty similarity = %v, want 0", s)
	}
	// Two empties collide on the all-max sentinel: that is fine because
	// graph construction never links two featureless nodes; just check it
	// does not panic.
	_ = Similarity(empty, h.SignIDs(nil))
}

func TestEstimateTracksExactJaccard(t *testing.T) {
	h := NewHasher(256, 4)
	mk := func(lo, hi int) []uint64 {
		out := make([]uint64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, uint64(i))
		}
		return out
	}
	cases := []struct{ aLo, aHi, bLo, bHi int }{
		{0, 100, 50, 150}, // Jaccard 50/150 = 1/3
		{0, 100, 75, 175}, // 25/175
		{0, 50, 0, 100},   // 50/100
		{0, 10, 5, 15},    // 5/15
	}
	for _, c := range cases {
		a, b := mk(c.aLo, c.aHi), mk(c.bLo, c.bHi)
		exact := exactJaccard(a, b)
		est := Similarity(h.SignIDs(a), h.SignIDs(b))
		if math.Abs(est-exact) > 0.08 {
			t.Fatalf("estimate %v too far from exact %v for [%d,%d) vs [%d,%d)",
				est, exact, c.aLo, c.aHi, c.bLo, c.bHi)
		}
	}
}

func TestSignIDsMatchesSemantics(t *testing.T) {
	h := NewHasher(256, 5)
	a := h.SignIDs([]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	b := h.SignIDs([]uint64{5, 6, 7, 8, 9, 10, 11, 12})
	est := Similarity(a, b)
	// Exact Jaccard is 4/12 = 1/3.
	if math.Abs(est-1.0/3) > 0.12 {
		t.Fatalf("id-based estimate %v too far from 1/3", est)
	}
	if s := Similarity(h.SignIDs([]uint64{9, 9, 9}), h.SignIDs([]uint64{9})); s != 1 {
		t.Fatalf("duplicate ids should not change the set: %v", s)
	}
}

// Property: similarity is symmetric and within [0,1].
func TestSimilarityProperties(t *testing.T) {
	h := NewHasher(64, 6)
	r := rng.New(7)
	if err := quick.Check(func(na, nb uint8) bool {
		a := make([]uint64, int(na%20))
		b := make([]uint64, int(nb%20))
		for i := range a {
			a[i] = r.Uint64() % 40
		}
		for i := range b {
			b[i] = r.Uint64() % 40
		}
		sa, sb := h.SignIDs(a), h.SignIDs(b)
		s1, s2 := Similarity(sa, sb), Similarity(sb, sa)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSimilarityPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on signature length mismatch")
		}
	}()
	Similarity(make(Signature, 4), make(Signature, 8))
}

func TestExactJaccard(t *testing.T) {
	if j := exactJaccard(nil, nil); j != 0 {
		t.Fatalf("Jaccard(∅,∅) = %v", j)
	}
	if j := exactJaccard([]uint64{1}, []uint64{1}); j != 1 {
		t.Fatalf("Jaccard identical = %v", j)
	}
	if j := exactJaccard([]uint64{1, 2}, []uint64{2, 3}); math.Abs(j-1.0/3) > 1e-12 {
		t.Fatalf("Jaccard = %v, want 1/3", j)
	}
	// Duplicates must not inflate.
	if j := exactJaccard([]uint64{1, 1, 2}, []uint64{2, 2, 3}); math.Abs(j-1.0/3) > 1e-12 {
		t.Fatalf("Jaccard with dups = %v, want 1/3", j)
	}
}

func TestNewHasherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHasher(0) did not panic")
		}
	}()
	NewHasher(0, 1)
}

func BenchmarkSign20Tokens(b *testing.B) {
	h := NewHasher(64, 1)
	ids := make([]uint64, 20)
	for i := range ids {
		ids[i] = uint64(i * 977)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.SignIDs(ids)
	}
}
