package ann

import (
	"math"
	"testing"

	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// searchFullCoarse is the reference coarse scan SearchInto is held to:
// one Dot per centroid, then nprobe passes of max-selection, each pick
// knocked out with -Inf. The probed lists are scored by SearchInto's own
// scanList.
func searchFullCoarse(ix *Index, query tensor.Vec, topK, nprobe int) []Result {
	q := tensor.Copy(query)
	tensor.Normalize(q)
	cscore := make([]float32, ix.centroids.Rows)
	for c := range cscore {
		cscore[c] = tensor.Dot(q, ix.centroids.Row(c))
	}
	if nprobe > len(cscore) {
		nprobe = len(cscore)
	}
	var h []Result
	scores := ix.NewSearchScratch().lscore
	for p := 0; p < nprobe; p++ {
		best := -1
		bestScore := float32(0)
		for c, s := range cscore {
			if best < 0 || s > bestScore {
				best, bestScore = c, s
			}
		}
		cscore[best] = float32(math.Inf(-1))
		h = ix.scanList(best, q, topK, h, scores)
	}
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDownResult(h[:n], 0)
	}
	return h
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
// reference coarse scan returns, result for result and bit for bit.
func TestSearchIntoMatchesFullCoarse(t *testing.T) {
	r := rng.New(21)
	ids, vecs, _ := clusteredData(r, 2000, 64, 32)
	ix := Build(ids, vecs, Config{NumLists: 32, Iters: 6, Seed: 7})

	const topK, nprobe, queries = 10, 4, 200
	sc := ix.NewSearchScratch()
	for qi := 0; qi < queries; qi++ {
		q := vecs[r.Intn(len(vecs))]
		sameResults(t, qi, ix.SearchInto(q, topK, nprobe, sc), searchFullCoarse(ix, q, topK, nprobe))
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
	if want := len(ix.listIDs[0]) + len(ix.listIDs[1]); len(a) != want {
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
	for c, l := range ix.listIDs {
		for _, x := range l {
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
		tensor.MatVec(&ix.centroids, sc.q, sc.cscore)
	}
	sinkScore = sc.cscore[0]
}

var sinkScore float32
