// Package ann implements the approximate-nearest-neighbor retrieval
// module of §VI: after training, item embeddings are organized into a
// two-layer inverted index (the iGraph stand-in) — a coarse layer of
// k-means centroids over cosine space, and posting lists of items per
// centroid. A query probes the nprobe closest centroids and scores only
// their lists, trading a controllable amount of recall for sub-linear
// search. The coarse layer and the posting lists are float32 matrices
// scored the same way, one MatVec each.
package ann

import (
	"fmt"
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

// Index is an immutable IVF index over unit-normalized vectors. Row c of
// centroids is the k-means centroid of list c; a search scores them all
// with one MatVec, then scores each probed list with one MatVec more.
type Index struct {
	centroids tensor.Matrix
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
	centroids := tensor.NewMatrix(cfg.NumLists, dim)
	copy(centroids.Row(0), normed[r.Intn(len(normed))])
	dist := make([]float64, len(normed))
	for k := 1; k < cfg.NumLists; k++ {
		last, first := centroids.Row(k-1), k == 1
		nl := tensor.Norm2(last)
		parallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if d := float64(1 - cosine(tensor.Dot(normed[i], last), norms[i], nl)); first || d < dist[i] {
					dist[i] = d
				}
			}
		})
		var total float64
		for _, d := range dist {
			total += d
		}
		if total == 0 {
			copy(centroids.Row(k), normed[r.Intn(len(normed))])
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
		copy(centroids.Row(k), normed[pick])
	}

	assign := make([]int, len(normed))
	cnorms := make([]float32, cfg.NumLists)
	reassign := func() {
		for c := range cnorms {
			cnorms[c] = tensor.Norm2(centroids.Row(c))
		}
		parallelFor(n, func(lo, hi int) {
			dots := make([]float32, cfg.NumLists)
			for i := lo; i < hi; i++ {
				tensor.MatVec(centroids, normed[i], dots)
				best, bestSim := 0, float32(-2)
				for c, nc := range cnorms {
					if s := cosine(dots[c], norms[i], nc); s > bestSim {
						best, bestSim = c, s
					}
				}
				assign[i] = best
			}
		})
	}
	sums, counts := tensor.NewMatrix(cfg.NumLists, dim), make([]int, cfg.NumLists)
	for iter := 0; iter < cfg.Iters; iter++ {
		reassign()
		clear(sums.Data)
		clear(counts)
		for i, v := range normed {
			tensor.Axpy(1, v, sums.Row(assign[i]))
			counts[assign[i]]++
		}
		for c, k := range counts {
			if k == 0 {
				// Re-seed an empty centroid on a random point.
				copy(centroids.Row(c), normed[r.Intn(len(normed))])
				continue
			}
			tensor.Normalize(sums.Row(c))
			copy(centroids.Row(c), sums.Row(c))
		}
	}
	reassign()

	ix := &Index{
		centroids: *centroids,
		listIDs:   make([][]int64, cfg.NumLists),
		lists:     make([]tensor.Matrix, cfg.NumLists),
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
	return ix
}

// cosine is tensor.Cosine(v, c), bit for bit, given dot = v·c and both
// norms. MatVec's c·v has Dot's bits: float64 products of float32s are
// exact, so the operand order does not matter.
func cosine(dot, nv, nc float32) float32 {
	if nv == 0 || nc == 0 {
		return 0
	}
	return dot / (nv * nc)
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

// NumLists returns the coarse layer size.
func (ix *Index) NumLists() int { return ix.centroids.Rows }

// Len returns the number of indexed vectors.
func (ix *Index) Len() int {
	n := 0
	for _, l := range ix.listIDs {
		n += len(l)
	}
	return n
}

// SearchScratch holds the per-worker buffers of the search hot path: the
// normalized query copy, centroid scores, probe order, one posting list's
// scores and the bounded result heap. Not safe for concurrent use — one
// per worker, like *rng.RNG. Result slices returned by SearchInto are
// backed by the scratch and valid only until its next use.
type SearchScratch struct {
	q       tensor.Vec
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
	return &SearchScratch{
		q:      make(tensor.Vec, ix.centroids.Cols),
		cscore: make([]float32, ix.centroids.Rows),
		corder: make([]int32, ix.centroids.Rows),
		lscore: make([]float32, rows),
	}
}

// SearchInto probes the nprobe closest coarse centroids and returns the
// topK highest-cosine results among their posting lists, best first.
// The caller's scratch is required (one per worker): the whole probe —
// query normalization, the coarse scan that ranks centroids, candidate
// scoring and top-K selection (a bounded min-heap, O(C log K) over C
// candidates) — performs zero heap allocations, and the returned slice
// is backed by sc.
func (ix *Index) SearchInto(query tensor.Vec, topK, nprobe int, sc *SearchScratch) []Result {
	if len(query) != ix.centroids.Cols {
		panic(fmt.Sprintf("ann: query dim %d, index dim %d", len(query), ix.centroids.Cols))
	}
	if topK <= 0 {
		return nil
	}
	nprobe = min(max(nprobe, 1), ix.centroids.Rows)
	copy(sc.q, query)
	q := sc.q
	tensor.Normalize(q)

	// Score every centroid with one MatVec, then move the nprobe best to
	// the front of corder by selection: the higher score first, the lower
	// list on a tie, so a zero query probes lists 0 … nprobe-1. A pick is
	// swapped out of the running, so no list is probed twice whatever the
	// scores — a NaN query, which scores every list NaN, included.
	cscore, corder := sc.cscore, sc.corder
	tensor.MatVec(&ix.centroids, q, cscore)
	for c := range corder {
		corder[c] = int32(c)
	}
	for p := range nprobe {
		best := p
		for i := p + 1; i < len(corder); i++ {
			if s, bs := cscore[corder[i]], cscore[corder[best]]; s > bs || s == bs && corder[i] < corder[best] {
				best = i
			}
		}
		corder[p], corder[best] = corder[best], corder[p]
	}

	// Scan the probed posting lists through a bounded min-heap of the
	// best topK candidates.
	if cap(sc.results) < topK {
		sc.results = make([]Result, 0, topK)
	}
	h := sc.results[:0]
	for _, c := range corder[:nprobe] {
		h = ix.scanList(int(c), q, topK, h, sc.lscore)
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
	return ix.SearchInto(query, topK, ix.centroids.Rows, ix.NewSearchScratch())
}
