package ann

import (
	"math"
	"testing"

	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// searchFullCoarse is SearchInto with the pre-quantization
// full-precision coarse scan — the reference the quantized probe's
// recall is pinned against. The probed lists are scored by SearchInto's
// own scanList.
func searchFullCoarse(ix *Index, query tensor.Vec, topK, nprobe int) []Result {
	q := tensor.Copy(query)
	tensor.Normalize(q)
	cscore := make([]float32, len(ix.centroids))
	for c, cent := range ix.centroids {
		cscore[c] = tensor.Dot(q, cent)
	}
	if nprobe > len(ix.centroids) {
		nprobe = len(ix.centroids)
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

// TestQuantizedCoarseRecall pins the acceptance bar: over the synthetic
// clustered corpus, recall@10 of the quantized-coarse probe against the
// full-precision-coarse probe at the same nprobe is ≥ 0.99. Quantization
// may only reshuffle which borderline centroid makes the probe cut; it
// must not cost measurable recall.
func TestQuantizedCoarseRecall(t *testing.T) {
	r := rng.New(21)
	ids, vecs, _ := clusteredData(r, 2000, 64, 32)
	ix := Build(ids, vecs, Config{NumLists: 32, Iters: 6, Seed: 7})

	const topK, nprobe, queries = 10, 4, 200
	sc := ix.NewSearchScratch()
	var hit, total int
	for qi := 0; qi < queries; qi++ {
		q := vecs[r.Intn(len(vecs))]
		want := searchFullCoarse(ix, q, topK, nprobe)
		got := ix.SearchInto(q, topK, nprobe, sc)
		inWant := make(map[int64]bool, len(want))
		for _, res := range want {
			inWant[res.ID] = true
		}
		for _, res := range got {
			if inWant[res.ID] {
				hit++
			}
		}
		total += len(want)
	}
	recall := float64(hit) / float64(total)
	t.Logf("quantized-coarse recall@%d = %.4f (%d/%d)", topK, recall, hit, total)
	if recall < 0.99 {
		t.Fatalf("recall@%d = %.4f, want >= 0.99", topK, recall)
	}
}

// TestQuantizedSelectionDeterministic pins ranking stability: repeated
// probes of the same query — on a reused and on a fresh scratch — return
// identical ids, scores and order. Combined
// with the tensor-level bit-identity of DotI8 across dispatch, this
// makes SearchInto's output independent of which kernel build serves it.
func TestQuantizedSelectionDeterministic(t *testing.T) {
	r := rng.New(22)
	ids, vecs, _ := clusteredData(r, 800, 32, 16)
	ix := Build(ids, vecs, Config{NumLists: 16, Iters: 5, Seed: 9})
	sc := ix.NewSearchScratch()
	for qi := 0; qi < 50; qi++ {
		q := vecs[r.Intn(len(vecs))]
		a := append([]Result(nil), ix.SearchInto(q, 10, 3, sc)...)
		b := ix.SearchInto(q, 10, 3, ix.NewSearchScratch())
		if len(a) != len(b) {
			t.Fatalf("query %d: result lengths diverge %d/%d", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d pos %d: %v / %v", qi, i, a[i], b[i])
			}
		}
	}
}

// TestQuantizationRoundTrip checks the symmetric-quantization format
// itself: every centroid component reconstructs within scale/2, the
// extreme component hits ±127 exactly, and a zero centroid quantizes to
// zeros with scale 0.
func TestQuantizationRoundTrip(t *testing.T) {
	r := rng.New(23)
	ids, vecs, _ := clusteredData(r, 400, 16, 8)
	ix := Build(ids, vecs, Config{NumLists: 8, Iters: 4, Seed: 3})
	for c, cent := range ix.centroids {
		row := ix.qcent[c*ix.dim : (c+1)*ix.dim]
		scale := ix.qscale[c]
		var m float32
		for _, v := range cent {
			if a := float32(math.Abs(float64(v))); a > m {
				m = a
			}
		}
		if m == 0 {
			if scale != 0 {
				t.Fatalf("centroid %d: zero vector with scale %v", c, scale)
			}
			continue
		}
		if scale <= 0 {
			t.Fatalf("centroid %d: non-positive scale %v", c, scale)
		}
		sawExtreme := false
		for i, v := range cent {
			rec := float32(row[i]) * scale
			if err := math.Abs(float64(rec - v)); err > float64(scale)/2+1e-7 {
				t.Fatalf("centroid %d[%d]: |%v - %v| = %v > scale/2 = %v", c, i, rec, v, err, scale/2)
			}
			if row[i] == 127 || row[i] == -127 {
				sawExtreme = true
			}
		}
		if !sawExtreme {
			t.Fatalf("centroid %d: no component at ±127 — scale not symmetric-max", c)
		}
	}
}

// TestZeroQueryQuantized: a zero query scores every centroid 0 and still
// probes deterministically (first nprobe centroids), matching the
// full-precision behavior for a zero vector.
func TestZeroQueryQuantized(t *testing.T) {
	r := rng.New(24)
	ids, vecs, _ := clusteredData(r, 200, 16, 4)
	ix := Build(ids, vecs, Config{NumLists: 4, Iters: 3, Seed: 5})
	zero := make(tensor.Vec, 16)
	a := ix.SearchInto(zero, 5, 2, ix.NewSearchScratch())
	b := ix.SearchInto(zero, 5, 2, ix.NewSearchScratch())
	if len(a) != len(b) {
		t.Fatalf("zero query nondeterministic: %d vs %d results", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("zero query nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// BenchmarkQuantizedScan measures the coarse layer alone at serving
// shape (256 centroids × dim 64): quantize the query once, then one
// int8 dot per centroid. Must report 0 allocs/op.
func BenchmarkQuantizedScan(b *testing.B) {
	r := rng.New(31)
	ids, vecs, _ := clusteredData(r, 4096, 64, 256)
	ix := Build(ids, vecs, Config{NumLists: 256, Iters: 2, Seed: 11})
	sc := ix.NewSearchScratch()
	copy(sc.q, vecs[0])
	q := sc.q
	cscore, _ := sc.centroidBufs(len(ix.centroids))
	qq := sc.queryQuant(ix.dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if qs := quantizeQuery(q, qq); qs != 0 {
			for c := range ix.centroids {
				cscore[c] = float32(tensor.DotI8(qq, ix.qcent[c*ix.dim:(c+1)*ix.dim])) * ix.qscale[c] * qs
			}
		}
	}
	sinkScore = cscore[0]
}

// BenchmarkFullPrecisionScan is the same coarse layer on full-precision
// dots — the before side of the quantization win, kept in the suite so
// the trajectory shows both.
func BenchmarkFullPrecisionScan(b *testing.B) {
	r := rng.New(31)
	ids, vecs, _ := clusteredData(r, 4096, 64, 256)
	ix := Build(ids, vecs, Config{NumLists: 256, Iters: 2, Seed: 11})
	sc := ix.NewSearchScratch()
	copy(sc.q, vecs[0])
	q := sc.q
	cscore, _ := sc.centroidBufs(len(ix.centroids))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c, cent := range ix.centroids {
			cscore[c] = tensor.Dot(q, cent)
		}
	}
	sinkScore = cscore[0]
}

var sinkScore float32
