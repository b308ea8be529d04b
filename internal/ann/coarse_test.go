package ann

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// referenceProbe is the coarse scan SearchInto is held to: one Dot per
// centroid, then nprobe passes of max-selection (the lower list on a
// tie), each pick knocked out with -Inf.
func referenceProbe(ix *Index, q tensor.Vec, nprobe int) []int {
	cscore := make([]float32, ix.centroids.Rows)
	for c := range cscore {
		cscore[c] = tensor.Dot(q, ix.centroids.Row(c))
	}
	var probe []int
	for range min(nprobe, len(cscore)) {
		best := -1
		for c, s := range cscore {
			if best < 0 || s > cscore[best] {
				best = c
			}
		}
		cscore[best] = float32(math.Inf(-1))
		probe = append(probe, best)
	}
	return probe
}

// referenceSearch is the brute-force search SearchInto is held to:
// tensor.Dot of the normalized query with every row of the probed lists,
// sorted by score, highest first, then by id, lowest first, and cut to
// topK.
func referenceSearch(ix *Index, query tensor.Vec, topK, nprobe int) []Result {
	q := tensor.Copy(query)
	tensor.Normalize(q)
	var all []Result
	for _, c := range referenceProbe(ix, q, nprobe) {
		for i, id := range listIDs(ix, c) {
			all = append(all, Result{ID: id, Score: tensor.Dot(q, ix.lists[c].Row(i))})
		}
	}
	slices.SortFunc(all, func(a, b Result) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return all[:min(topK, len(all))]
}

// sameResults fails t unless got and want hold the same ids with the
// same score bits in the same order.
func sameResults(t *testing.T, query int, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("query %d: %d results, want %d", query, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
			t.Fatalf("query %d pos %d: %+v, want %+v", query, i, got[i], want[i])
		}
	}
}

// Over the synthetic clustered corpus, SearchInto returns what the
// reference search returns, result for result and bit for bit.
func TestSearchIntoMatchesFullCoarse(t *testing.T) {
	r := rng.New(21)
	ids, vecs, _ := clusteredData(r, 2000, 64, 32)
	ix := Build(ids, vecs, Config{NumLists: 32, Iters: 6, Seed: 7})

	const topK, nprobe, queries = 10, 4, 200
	sc := ix.NewSearchScratch()
	for qi := 0; qi < queries; qi++ {
		q := vecs[r.Intn(len(vecs))]
		sameResults(t, qi, ix.SearchInto(q, topK, nprobe, sc), referenceSearch(ix, q, topK, nprobe))
	}
}

// Repeated probes of the same query — on a reused and on a fresh
// scratch — return identical ids, scores and order.
func TestSelectionDeterministic(t *testing.T) {
	r := rng.New(22)
	ids, vecs, _ := clusteredData(r, 800, 32, 16)
	ix := Build(ids, vecs, Config{NumLists: 16, Iters: 5, Seed: 9})
	sc := ix.NewSearchScratch()
	for qi := 0; qi < 50; qi++ {
		q := vecs[r.Intn(len(vecs))]
		a := append([]Result(nil), ix.SearchInto(q, 10, 3, sc)...)
		sameResults(t, qi, ix.SearchInto(q, 10, 3, ix.NewSearchScratch()), a)
	}
}

// A zero query scores every centroid 0 and probes lists 0 … nprobe-1.
func TestZeroQuery(t *testing.T) {
	r := rng.New(24)
	ids, vecs, _ := clusteredData(r, 200, 16, 4)
	ix := Build(ids, vecs, Config{NumLists: 4, Iters: 3, Seed: 5})
	zero := make(tensor.Vec, 16)
	a := append([]Result(nil), ix.SearchInto(zero, 500, 2, ix.NewSearchScratch())...)
	sameResults(t, 0, ix.SearchInto(zero, 500, 2, ix.NewSearchScratch()), a)
	if want := len(ix.ranks[0]) + len(ix.ranks[1]); len(a) != want {
		t.Fatalf("zero query returned %d results, want lists 0 and 1's %d", len(a), want)
	}
	for _, res := range a {
		if c := listOf(ix, res.ID); c > 1 {
			t.Fatalf("zero query returned id %d of list %d", res.ID, c)
		}
	}
}

// One NaN component makes every centroid score NaN. The probe still
// scans at most nprobe distinct lists, each once, so no id comes back
// twice.
func TestNaNQueryProbesEachListOnce(t *testing.T) {
	r := rng.New(25)
	ids, vecs, _ := clusteredData(r, 2000, 32, 32)
	ix := Build(ids, vecs, Config{NumLists: 32, Iters: 5, Seed: 26})
	q := tensor.Copy(vecs[0])
	q[3] = float32(math.NaN())
	const topK, nprobe = 100, 4
	seen, lists := map[int64]bool{}, map[int]bool{}
	for _, res := range ix.SearchInto(q, topK, nprobe, ix.NewSearchScratch()) {
		if seen[res.ID] {
			t.Fatalf("id %d returned twice", res.ID)
		}
		seen[res.ID] = true
		lists[listOf(ix, res.ID)] = true
	}
	if len(seen) == 0 || len(lists) > nprobe {
		t.Fatalf("%d results from %d lists, want some from at most %d", len(seen), len(lists), nprobe)
	}
}

// listOf returns the list holding id, or -1.
func listOf(ix *Index, id int64) int {
	for c := range ix.lists {
		for _, x := range listIDs(ix, c) {
			if x == id {
				return c
			}
		}
	}
	return -1
}

// BenchmarkCoarseScan measures the coarse layer alone at the benchmark
// rig's shape (222 centroids × dim 32): one MatVec over the centroid
// matrix. Must report 0 allocs/op.
func BenchmarkCoarseScan(b *testing.B) {
	ids, vecs, _ := clusteredData(rng.New(31), 14250, 32, 222)
	ix := Build(ids, vecs, Config{NumLists: 222, Iters: 2, Seed: 11})
	sc := ix.NewSearchScratch()
	copy(sc.q, vecs[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatVec(&ix.centroids, sc.q, sc.scores[:ix.centroids.Rows])
	}
	sinkScore = sc.scores[0]
}

var sinkScore float32

// SearchInto orders its results by (score desc, id asc) and returns the
// first k of the brute-force reference, over goldenInput — which holds
// exact duplicates and zero vectors, so equal scores are common — for
// k below, at and above the candidate count and nprobe from 1 to every
// list. At every list it also equals SearchExact. The key buffer stays
// at the largest topK asked plus the score buffer, whatever nprobe.
func TestSearchIntoTotalOrder(t *testing.T) {
	ids, vecs := goldenInput()
	ix := Build(ids, vecs, goldenConfig)
	r := rng.New(46)
	var queries []tensor.Vec
	for i := range 240 {
		q := tensor.Copy(vecs[r.Intn(len(vecs))])
		switch i % 4 {
		case 0: // an indexed vector: its duplicates tie
		case 1:
			clear(q) // a zero query: every score ties
		default:
			for j := range q {
				q[j] += 0.1 * float32(r.NormFloat64())
			}
		}
		queries = append(queries, q)
	}
	sc, mostK := ix.NewSearchScratch(), 0
	for _, nprobe := range []int{1, 4, ix.NumLists()} {
		for qi, q := range queries {
			all := referenceSearch(ix, q, len(ids), nprobe)
			for _, k := range []int{1, 7, 100, len(all) + 1} {
				want := all[:min(k, len(all))]
				sameResults(t, qi, ix.SearchInto(q, k, nprobe, sc), want)
				if nprobe == ix.NumLists() {
					sameResults(t, qi, ix.SearchExact(q, k), want)
				}
				mostK = max(mostK, k)
				if c := cap(sc.keys); c != mostK+len(sc.scores) {
					t.Fatalf("nprobe %d k %d: key buffer holds %d, want the largest topK %d plus %d", nprobe, k, c, mostK, len(sc.scores))
				}
			}
		}
	}

	q := tensor.Copy(vecs[0])
	q[5] = float32(math.NaN())
	first := append([]Result(nil), ix.SearchInto(q, 100, 4, sc)...)
	if len(first) != 100 {
		t.Fatalf("NaN query: %d results", len(first))
	}
	sameResults(t, -1, ix.SearchInto(q, 100, 4, ix.NewSearchScratch()), first)
}

// scoreKey's unsigned order is the float order, reversed, with -0 equal
// to +0 and NaN after every number; keyScore inverts it bit for bit on
// every score but -0 and NaN.
func TestScoreKeyOrder(t *testing.T) {
	inf := float32(math.Inf(1))
	ordered := []float32{inf, math.MaxFloat32, 1, 0.5, math.SmallestNonzeroFloat32, 0, -math.SmallestNonzeroFloat32, -0.5, -1, -math.MaxFloat32, -inf}
	for i, s := range ordered {
		if got := keyScore(uint32(scoreKey(s))); math.Float32bits(got) != math.Float32bits(s) {
			t.Fatalf("keyScore(scoreKey(%v)) = %v", s, got)
		}
		if i > 0 && scoreKey(ordered[i-1]) >= scoreKey(s) {
			t.Fatalf("key of %v not below key of %v", ordered[i-1], s)
		}
	}
	negZero := float32(math.Copysign(0, -1))
	if scoreKey(negZero) != scoreKey(0) {
		t.Fatal("-0 and +0 have different keys")
	}
	for _, nan := range []float32{float32(math.NaN()), math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001)} {
		if scoreKey(nan) != nanKey || scoreKey(-inf) >= nanKey {
			t.Fatalf("NaN %08x does not rank after -Inf", math.Float32bits(nan))
		}
	}
	if s := keyScore(nanKey); s == s {
		t.Fatalf("keyScore(nanKey) = %v", s)
	}
}
