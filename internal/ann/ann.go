// Package ann implements the approximate-nearest-neighbor retrieval
// module of §VI: after training, item embeddings are organized into a
// two-layer inverted index (the iGraph stand-in) — a coarse layer of
// k-means centroids over cosine space, and posting lists of items per
// centroid. A query probes the nprobe closest centroids and scores only
// their lists, trading a controllable amount of recall for sub-linear
// search. The coarse layer is scored on int8-quantized centroids
// (symmetric per-centroid scales, exact int32 dots — see Index); the
// surviving posting lists are scored at full precision, so quantization
// costs probe choice, not ranking precision, and the recall tests pin
// that cost below 1%.
package ann

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// Result is one retrieved id with its cosine score.
type Result struct {
	ID    int64
	Score float32
}

// Index is an immutable IVF index over unit-normalized vectors.
//
// The coarse layer is stored twice: full-precision centroids (k-means
// construction, SearchExact) and an int8-quantized copy the hot search
// path scores instead. Quantization is symmetric per centroid — row c
// is qcent[c*dim:(c+1)*dim] with reconstruction c[i] ≈ qcent[i]·qscale[c]
// — so a centroid score is one int8 dot (int32-accumulated, exact)
// scaled by two floats. Posting lists are always scored at full
// precision, one MatVec per list; quantization only picks which lists
// to probe.
type Index struct {
	dim       int
	centroids []tensor.Vec
	qcent     []int8    // flat quantized centroid rows, cache-contiguous
	qscale    []float32 // per-centroid dequantization scale
	listIDs   [][]int64
	lists     []tensor.Matrix // row i of lists[c] is the vector of listIDs[c][i]
}

// Config tunes index construction.
type Config struct {
	NumLists int // coarse centroids (first layer)
	Iters    int // k-means refinement iterations
	Seed     uint64
}

// Build constructs the index from ids and their vectors (copied and
// normalized; a zero vector scores 0 against every centroid, so it lands
// in list 0). It panics on length mismatch or empty input. Scoring runs
// on every core; sums stay serial, so the bits do not depend on GOMAXPROCS.
func Build(ids []int64, vecs []tensor.Vec, cfg Config) *Index {
	if len(ids) != len(vecs) {
		panic(fmt.Sprintf("ann: %d ids vs %d vectors", len(ids), len(vecs)))
	}
	if len(ids) == 0 {
		panic("ann: empty input")
	}
	if cfg.NumLists <= 0 {
		cfg.NumLists = 1
	}
	if cfg.NumLists > len(ids) {
		cfg.NumLists = len(ids)
	}
	dim, n := len(vecs[0]), len(vecs)
	r := rng.New(cfg.Seed)

	flat := make([]float32, n*dim)
	normed := make([]tensor.Vec, n)
	norms := make([]float32, n)
	for i, v := range vecs {
		if len(v) != dim {
			panic("ann: inconsistent vector dimensions")
		}
		nv := flat[i*dim : (i+1)*dim : (i+1)*dim]
		copy(nv, v)
		tensor.Normalize(nv)
		normed[i], norms[i] = nv, tensor.Norm2(nv)
	}

	// k-means++ seeding over cosine distance (= squared Euclidean on the
	// unit sphere up to scaling).
	centroids := make([]tensor.Vec, 0, cfg.NumLists)
	centroids = append(centroids, tensor.Copy(normed[r.Intn(len(normed))]))
	dist := make([]float64, len(normed))
	for len(centroids) < cfg.NumLists {
		last, first := centroids[len(centroids)-1], len(centroids) == 1
		nl := tensor.Norm2(last)
		parallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if d := float64(1 - cosine(normed[i], last, norms[i], nl)); first || d < dist[i] {
					dist[i] = d
				}
			}
		})
		var total float64
		for _, d := range dist {
			total += d
		}
		if total == 0 {
			centroids = append(centroids, tensor.Copy(normed[r.Intn(len(normed))]))
			continue
		}
		x := r.Float64() * total
		pick := len(normed) - 1
		for i, d := range dist {
			x -= d
			if x <= 0 {
				pick = i
				break
			}
		}
		centroids = append(centroids, tensor.Copy(normed[pick]))
	}

	assign := make([]int, len(normed))
	cnorms := make([]float32, len(centroids))
	reassign := func() {
		for c, cent := range centroids {
			cnorms[c] = tensor.Norm2(cent)
		}
		parallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				best, bestSim := 0, float32(-2)
				for c, cent := range centroids {
					if s := cosine(normed[i], cent, norms[i], cnorms[c]); s > bestSim {
						best, bestSim = c, s
					}
				}
				assign[i] = best
			}
		})
	}
	sums, counts := tensor.NewMatrix(len(centroids), dim), make([]int, len(centroids))
	for iter := 0; iter < cfg.Iters; iter++ {
		reassign()
		clear(sums.Data)
		clear(counts)
		for i, v := range normed {
			tensor.Axpy(1, v, sums.Row(assign[i]))
			counts[assign[i]]++
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty centroid on a random point.
				centroids[c] = tensor.Copy(normed[r.Intn(len(normed))])
				continue
			}
			tensor.Normalize(sums.Row(c))
			copy(centroids[c], sums.Row(c))
		}
	}
	reassign()

	ix := &Index{
		dim:       dim,
		centroids: centroids,
		listIDs:   make([][]int64, len(centroids)),
		lists:     make([]tensor.Matrix, len(centroids)),
	}
	clear(counts)
	for _, c := range assign {
		counts[c]++
	}
	for c, k := range counts {
		ix.listIDs[c] = make([]int64, 0, k)
		ix.lists[c] = tensor.Matrix{Cols: dim, Data: make([]float32, 0, k*dim)}
	}
	for i, c := range assign {
		ix.listIDs[c] = append(ix.listIDs[c], ids[i])
		ix.lists[c].Data = append(ix.lists[c].Data, normed[i]...)
		ix.lists[c].Rows++
	}
	ix.quantizeCentroids()
	return ix
}

// cosine is tensor.Cosine(v, c), bit for bit, with both norms given.
func cosine(v, c tensor.Vec, nv, nc float32) float32 {
	if nv == 0 || nc == 0 {
		return 0
	}
	return tensor.Dot(v, c) / (nv * nc)
}

// parallelFor runs f over [0, n) in one contiguous chunk per core and
// returns when every chunk is done; f must write only its own indices.
func parallelFor(n int, f func(lo, hi int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() { defer wg.Done(); f(w*n/workers, (w+1)*n/workers) }()
	}
	wg.Wait()
}

// quantizeCentroids fills the int8 coarse layer: symmetric per-centroid
// quantization q[i] = round(c[i]/scale) with scale = max|c[i]|/127, so
// the full int8 range is spent on each centroid's own dynamic range and
// reconstruction error is ≤ scale/2 per component. A zero centroid
// (possible only degenerately) quantizes to zeros with scale 0.
// Quantization runs once at build time in pure Go, so both build tags
// index identical bytes.
func (ix *Index) quantizeCentroids() {
	ix.qcent = make([]int8, len(ix.centroids)*ix.dim)
	ix.qscale = make([]float32, len(ix.centroids))
	for c, cent := range ix.centroids {
		var m float32
		for _, v := range cent {
			if a := float32(math.Abs(float64(v))); a > m {
				m = a
			}
		}
		if m == 0 {
			continue
		}
		scale := m / 127
		row := ix.qcent[c*ix.dim : (c+1)*ix.dim]
		for i, v := range cent {
			q := math.Round(float64(v / scale))
			switch {
			case q > 127:
				q = 127
			case q < -127:
				q = -127
			}
			row[i] = int8(q)
		}
		ix.qscale[c] = scale
	}
}

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// NumLists returns the coarse layer size.
func (ix *Index) NumLists() int { return len(ix.centroids) }

// Len returns the number of indexed vectors.
func (ix *Index) Len() int {
	n := 0
	for _, l := range ix.listIDs {
		n += len(l)
	}
	return n
}

// SearchScratch holds the per-worker buffers of the search hot path: the
// normalized query copy, its int8 quantization for the coarse scan,
// centroid scores, probe order, one posting list's scores and the
// bounded result heap. Not safe for concurrent use — one per worker,
// like *rng.RNG. Result slices returned by SearchInto are backed by the
// scratch and valid only until its next use.
type SearchScratch struct {
	q       tensor.Vec
	qq      []int8
	cscore  []float32
	corder  []int32
	lscore  []float32
	results []Result
}

// NewSearchScratch sizes a scratch for this index.
func (ix *Index) NewSearchScratch() *SearchScratch {
	rows := 0
	for _, l := range ix.lists {
		rows = max(rows, l.Rows)
	}
	return &SearchScratch{q: make(tensor.Vec, ix.dim), lscore: make([]float32, rows)}
}

func (sc *SearchScratch) centroidBufs(n int) ([]float32, []int32) {
	if cap(sc.cscore) < n {
		sc.cscore = make([]float32, n)
		sc.corder = make([]int32, n)
	}
	return sc.cscore[:n], sc.corder[:n]
}

func (sc *SearchScratch) queryQuant(n int) []int8 {
	if cap(sc.qq) < n {
		sc.qq = make([]int8, n)
	}
	return sc.qq[:n]
}

// quantizeQuery writes the symmetric int8 quantization of q into qq and
// returns its dequantization scale (0 for a zero query, whose quantized
// form is all zeros — every centroid then scores 0, exactly as the
// full-precision scan of a zero query would).
func quantizeQuery(q tensor.Vec, qq []int8) float32 {
	var m float32
	for _, v := range q {
		if a := float32(math.Abs(float64(v))); a > m {
			m = a
		}
	}
	if m == 0 {
		for i := range qq {
			qq[i] = 0
		}
		return 0
	}
	scale := m / 127
	for i, v := range q {
		x := math.Round(float64(v / scale))
		switch {
		case x > 127:
			x = 127
		case x < -127:
			x = -127
		}
		qq[i] = int8(x)
	}
	return scale
}

// SearchInto probes the nprobe closest coarse centroids and returns the
// topK highest-cosine results among their posting lists, best first.
// The caller's scratch is required (one per worker): the whole probe —
// query normalization, the int8-quantized coarse scan that ranks
// centroids, full-precision candidate scoring and top-K selection (a
// bounded min-heap, O(C log K) over C candidates) — performs zero heap
// allocations, and the returned slice is backed by sc.
func (ix *Index) SearchInto(query tensor.Vec, topK, nprobe int, sc *SearchScratch) []Result {
	if len(query) != ix.dim {
		panic(fmt.Sprintf("ann: query dim %d, index dim %d", len(query), ix.dim))
	}
	if topK <= 0 {
		return nil
	}
	if nprobe <= 0 {
		nprobe = 1
	}
	if nprobe > len(ix.centroids) {
		nprobe = len(ix.centroids)
	}
	copy(sc.q, query)
	q := sc.q
	tensor.Normalize(q)

	// Rank centroids on the quantized coarse layer: one exact int8 dot
	// per centroid over the cache-contiguous qcent rows, scaled back by
	// the two dequantization factors. The int32 accumulation is
	// bit-identical across kernel dispatch, so the probe order — and
	// with it every result this function returns — is too. Then
	// partially select the nprobe best (nprobe passes of max-selection;
	// nprobe is small). The surviving lists are re-ranked at full
	// precision below.
	cscore, corder := sc.centroidBufs(len(ix.centroids))
	qq := sc.queryQuant(ix.dim)
	if qs := quantizeQuery(q, qq); qs == 0 {
		for c := range cscore {
			cscore[c] = 0
		}
	} else {
		for c := range ix.centroids {
			cscore[c] = float32(tensor.DotI8(qq, ix.qcent[c*ix.dim:(c+1)*ix.dim])) * ix.qscale[c] * qs
		}
	}
	for p := 0; p < nprobe; p++ {
		best := -1
		bestScore := float32(0)
		for c, s := range cscore {
			if best < 0 || s > bestScore {
				best, bestScore = c, s
			}
		}
		corder[p] = int32(best)
		cscore[best] = float32(math.Inf(-1))
	}

	// Scan the probed posting lists through a bounded min-heap of the
	// best topK candidates.
	if cap(sc.results) < topK {
		sc.results = make([]Result, 0, topK)
	}
	h := sc.results[:0]
	for p := 0; p < nprobe; p++ {
		h = ix.scanList(int(corder[p]), q, topK, h, sc.lscore)
	}
	// Heap-sort the winners best first: popping the min to the back
	// leaves the slice in descending score order.
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		siftDownResult(h[:n], 0)
	}
	sc.results = h
	return h
}

// scanList scores every row of posting list c against q with one MatVec
// into scores, then offers each row, in order, to the bounded min-heap h
// of the best topK and returns the grown heap.
func (ix *Index) scanList(c int, q tensor.Vec, topK int, h []Result, scores []float32) []Result {
	ids := ix.listIDs[c]
	scores = scores[:len(ids)]
	tensor.MatVec(&ix.lists[c], q, scores)
	for i, s := range scores {
		if len(h) < topK {
			h = append(h, Result{ID: ids[i], Score: s})
			siftUpResult(h, len(h)-1)
		} else if s > h[0].Score {
			h[0] = Result{ID: ids[i], Score: s}
			siftDownResult(h, 0)
		}
	}
	return h
}

func siftUpResult(h []Result, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p].Score <= h[i].Score {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDownResult(h []Result, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].Score < h[l].Score {
			m = r
		}
		if h[i].Score <= h[m].Score {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// SearchExact scans every vector — the brute-force reference used to
// measure recall in tests and benchmarks. It probes every list through a
// fresh scratch, so the returned slice is independently owned.
func (ix *Index) SearchExact(query tensor.Vec, topK int) []Result {
	return ix.SearchInto(query, topK, len(ix.centroids), ix.NewSearchScratch())
}
