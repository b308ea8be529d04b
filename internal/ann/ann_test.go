package ann

import (
	"testing"

	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// clusteredData makes nClusters groups of points around random unit
// centers.
func clusteredData(r *rng.RNG, n, dim, nClusters int) ([]int64, []tensor.Vec, []int) {
	centers := make([]tensor.Vec, nClusters)
	for c := range centers {
		v := make(tensor.Vec, dim)
		for i := range v {
			v[i] = float32(r.NormFloat64())
		}
		tensor.Normalize(v)
		centers[c] = v
	}
	ids := make([]int64, n)
	vecs := make([]tensor.Vec, n)
	cluster := make([]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(nClusters)
		cluster[i] = c
		v := tensor.Copy(centers[c])
		for j := range v {
			v[j] += 0.15 * float32(r.NormFloat64())
		}
		tensor.Normalize(v)
		ids[i] = int64(i)
		vecs[i] = v
	}
	return ids, vecs, cluster
}

// listIDs returns list c's ids in row order.
func listIDs(ix *Index, c int) []int64 {
	ids := make([]int64, len(ix.ranks[c]))
	for i, r := range ix.ranks[c] {
		ids[i] = ix.ids[r]
	}
	return ids
}

func TestBuildValidation(t *testing.T) {
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { Build(nil, nil, Config{NumLists: 32, Iters: 8, Seed: 1}) })
	mustPanic(func() { Build([]int64{1}, nil, Config{NumLists: 32, Iters: 8, Seed: 1}) })
}

func TestIndexCoversAllVectors(t *testing.T) {
	r := rng.New(1)
	ids, vecs, _ := clusteredData(r, 500, 16, 8)
	ix := Build(ids, vecs, Config{NumLists: 10, Iters: 5, Seed: 2})
	if ix.Len() != 500 {
		t.Fatalf("index holds %d vectors", ix.Len())
	}
	if ix.NumLists() != 10 {
		t.Fatalf("lists = %d", ix.NumLists())
	}
}

func TestExactSearchFindsSelf(t *testing.T) {
	r := rng.New(3)
	ids, vecs, _ := clusteredData(r, 300, 16, 6)
	ix := Build(ids, vecs, Config{NumLists: 8, Iters: 5, Seed: 4})
	for i := 0; i < 20; i++ {
		res := ix.SearchExact(vecs[i], 1)
		if len(res) != 1 || res[0].ID != ids[i] {
			t.Fatalf("query %d: self not top-1 (got %v)", i, res)
		}
	}
}

// ANN with small nprobe must still achieve high recall vs exact search on
// clustered data — the design property of the two-layer index.
func TestRecallAtNprobe(t *testing.T) {
	r := rng.New(5)
	ids, vecs, _ := clusteredData(r, 2000, 16, 16)
	ix := Build(ids, vecs, Config{NumLists: 16, Iters: 8, Seed: 6})
	const topK = 10
	sc := ix.NewSearchScratch()
	hits, total := 0, 0
	for q := 0; q < 50; q++ {
		query := vecs[r.Intn(len(vecs))]
		exact := ix.SearchExact(query, topK)
		approx := ix.SearchInto(query, topK, 4, sc)
		want := map[int64]bool{}
		for _, e := range exact {
			want[e.ID] = true
		}
		for _, a := range approx {
			if want[a.ID] {
				hits++
			}
		}
		total += len(exact)
	}
	recall := float64(hits) / float64(total)
	if recall < 0.8 {
		t.Fatalf("recall@nprobe=4 is %.2f, want >= 0.8", recall)
	}
}

func TestSearchOrderingAndBounds(t *testing.T) {
	r := rng.New(7)
	ids, vecs, _ := clusteredData(r, 200, 8, 4)
	ix := Build(ids, vecs, Config{NumLists: 4, Iters: 4, Seed: 8})
	sc := ix.NewSearchScratch()
	res := ix.SearchInto(vecs[0], 15, 2, sc)
	if len(res) == 0 || len(res) > 15 {
		t.Fatalf("result size %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
	if out := ix.SearchInto(vecs[0], 0, 2, sc); out != nil {
		t.Fatal("topK=0 should return nil")
	}
}

func TestSearchDimPanic(t *testing.T) {
	r := rng.New(9)
	ids, vecs, _ := clusteredData(r, 50, 8, 2)
	ix := Build(ids, vecs, Config{NumLists: 32, Iters: 8, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dim mismatch")
		}
	}()
	ix.SearchInto(make(tensor.Vec, 4), 5, 1, ix.NewSearchScratch())
}

func TestMoreListsThanPoints(t *testing.T) {
	r := rng.New(10)
	ids, vecs, _ := clusteredData(r, 5, 8, 2)
	ix := Build(ids, vecs, Config{NumLists: 64, Iters: 3, Seed: 11})
	if ix.Len() != 5 {
		t.Fatal("vectors lost")
	}
	res := ix.SearchExact(vecs[0], 5)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
}

// A reused per-worker scratch must reproduce a fresh scratch's result
// exactly, across repeated queries of changing topK and nprobe.
func TestSearchIntoScratchParity(t *testing.T) {
	r := rng.New(12)
	ids, vecs, _ := clusteredData(r, 800, 16, 8)
	ix := Build(ids, vecs, Config{NumLists: 12, Iters: 5, Seed: 13})
	sc := ix.NewSearchScratch()
	for q := 0; q < 20; q++ {
		query := vecs[r.Intn(len(vecs))]
		topK, nprobe := 5+q%3*20, 1+q%4
		want := ix.SearchInto(query, topK, nprobe, ix.NewSearchScratch())
		got := ix.SearchInto(query, topK, nprobe, sc)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results vs %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d: %+v vs %+v", q, i, got[i], want[i])
			}
		}
	}
}

// SearchInto with fewer candidates than topK must return them all,
// sorted.
func TestSearchIntoSmallIndex(t *testing.T) {
	r := rng.New(14)
	ids, vecs, _ := clusteredData(r, 6, 8, 2)
	ix := Build(ids, vecs, Config{NumLists: 2, Iters: 3, Seed: 15})
	sc := ix.NewSearchScratch()
	res := ix.SearchInto(vecs[0], 20, 2, sc)
	if len(res) != 6 {
		t.Fatalf("got %d results, want all 6", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
	if out := ix.SearchInto(vecs[0], 0, 2, sc); out != nil {
		t.Fatal("topK=0 should return nil")
	}
}

// The serving path requirement: SearchInto with a reused scratch must
// perform zero heap allocations per request.
func TestSearchIntoAllocs(t *testing.T) {
	r := rng.New(16)
	ids, vecs, _ := clusteredData(r, 2000, 32, 16)
	ix := Build(ids, vecs, Config{NumLists: 16, Iters: 5, Seed: 17})
	sc := ix.NewSearchScratch()
	q := vecs[0]
	ix.SearchInto(q, 100, 4, sc) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		ix.SearchInto(q, 100, 4, sc)
	})
	if allocs != 0 {
		t.Fatalf("SearchInto allocates %.1f per run, want 0", allocs)
	}
}

func BenchmarkSearchExact(b *testing.B) {
	r := rng.New(1)
	ids, vecs, _ := clusteredData(r, 10000, 32, 32)
	ix := Build(ids, vecs, Config{NumLists: 32, Iters: 6, Seed: 2})
	q := vecs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchExact(q, 100)
	}
}

// BenchmarkSearchInto measures the zero-allocation serving search with a
// reused per-worker scratch, nprobe 4 and topK 100: 10 000 vectors in 32
// lists and one fixed query, so a probe scores ~1 250 candidates (1 534
// for this query). Must report 0 allocs/op. BenchmarkSearchIntoRig is
// the rig's shape; BenchmarkHotPathSearchInto scores ~30 (the tiny
// world: 120 items, 16 lists).
func BenchmarkSearchInto(b *testing.B) {
	ids, vecs, _ := clusteredData(rng.New(1), 10000, 32, 32)
	ix := Build(ids, vecs, Config{NumLists: 32, Iters: 6, Seed: 2})
	benchSearch(b, ix, []tensor.Vec{vecs[0]})
}

// BenchmarkSearchIntoRig is SearchInto at the benchmark rig's retrieve
// index: 14 250 vectors of dim 32 in 222 lists (N/64, 6 iterations),
// nprobe 4, topK 100, the query rotating over 512 perturbed items. A
// probe is a 222-centroid coarse scan plus ~253 candidates. Must report
// 0 allocs/op.
func BenchmarkSearchIntoRig(b *testing.B) {
	r := rng.New(1)
	ids, vecs, _ := clusteredData(r, 14250, 32, 222)
	ix := Build(ids, vecs, Config{NumLists: len(ids) / 64, Iters: 6, Seed: 2})
	queries := make([]tensor.Vec, 512)
	for i := range queries {
		q := tensor.Copy(vecs[r.Intn(len(vecs))])
		for j := range q {
			q[j] += 0.1 * float32(r.NormFloat64())
		}
		queries[i] = q
	}
	benchSearch(b, ix, queries)
}

// benchSearch times SearchInto over ix, one op per query in turn, on a
// scratch warmed by one search first.
func benchSearch(b *testing.B, ix *Index, queries []tensor.Vec) {
	sc := ix.NewSearchScratch()
	ix.SearchInto(queries[0], 100, 4, sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.SearchInto(queries[i%len(queries)], 100, 4, sc)
	}
}

// BenchmarkIndexBuild is Build at the benchmark rig's retrieve shape:
// 14 250 items of 32 dims in 222 lists (N/64) with 6 k-means
// iterations, so one op is 7 assignment passes of N·L cosine scores
// plus the k-means++ seeding.
func BenchmarkIndexBuild(b *testing.B) {
	ids, vecs, _ := clusteredData(rng.New(1), 14250, 32, 222)
	cfg := Config{NumLists: len(ids) / 64, Iters: 6, Seed: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIndex = Build(ids, vecs, cfg)
	}
}

var sinkIndex *Index
