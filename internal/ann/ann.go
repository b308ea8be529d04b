// Package ann implements the approximate-nearest-neighbor retrieval
// module of §VI: after training, item embeddings are organized into a
// two-layer inverted index (the iGraph stand-in) — a coarse layer of
// k-means centroids over cosine space, and posting lists of items per
// centroid. A query probes the nprobe closest centroids and scores only
// their lists, trading a controllable amount of recall for sub-linear
// search. The coarse layer and the posting lists are float32 matrices
// scored the same way, one MatVec each. Results are totally ordered — by
// score, highest first, then by id, lowest first — and a probe picks its
// top-K by packed (score, id-rank) uint64 keys: quickselect, then a sort
// of the K winners.
package ann

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
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
// with one MatVec, then scores each probed list with one MatVec more. A
// posting row's id is kept as its rank in ids, which is what a search's
// keys carry.
type Index struct {
	centroids tensor.Matrix
	ids       []int64    // every indexed id, ascending
	ranks     [][]uint32 // row i of lists[c] is the vector of ids[ranks[c][i]]
	lists     []tensor.Matrix
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
	if uint64(len(ids)) > math.MaxUint32 {
		panic("ann: more than 2^32 vectors")
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

	// Rank every row by (id, input position): a search orders equal
	// scores by rank, and so by id.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Or(cmp.Compare(ids[a], ids[b]), a-b) })
	ix := &Index{
		centroids: *centroids,
		ids:       make([]int64, n),
		ranks:     make([][]uint32, cfg.NumLists),
		lists:     make([]tensor.Matrix, cfg.NumLists),
	}
	rank := make([]uint32, n)
	for r, i := range order {
		ix.ids[r], rank[i] = ids[i], uint32(r)
	}
	clear(counts)
	for _, c := range assign {
		counts[c]++
	}
	for c, k := range counts {
		ix.ranks[c] = make([]uint32, 0, k)
		ix.lists[c] = tensor.Matrix{Cols: dim, Data: make([]float32, 0, k*dim)}
	}
	for i, c := range assign {
		ix.ranks[c] = append(ix.ranks[c], rank[i])
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
func (ix *Index) Len() int { return len(ix.ids) }

// SearchScratch holds the per-worker buffers of the search hot path: the
// normalized query copy, one score buffer (the coarse layer's, then each
// posting list's), the probed lists, the candidate keys and the results.
// Not safe for concurrent use — one per worker, like *rng.RNG. Result
// slices returned by SearchInto are backed by the scratch and valid only
// until its next use.
type SearchScratch struct {
	q       tensor.Vec
	scores  []float32
	probe   []int32
	keys    []uint64
	results []Result
}

// NewSearchScratch sizes a scratch for this index; the buffers that
// depend on topK grow on first use.
func (ix *Index) NewSearchScratch() *SearchScratch {
	rows := ix.centroids.Rows
	for _, l := range ix.lists {
		rows = max(rows, l.Rows)
	}
	return &SearchScratch{
		q:      make(tensor.Vec, ix.centroids.Cols),
		scores: make([]float32, rows),
		probe:  make([]int32, ix.centroids.Rows),
	}
}

// SearchInto probes the nprobe closest coarse centroids and returns the
// topK best results among their posting lists, ordered by score, highest
// first, then by id, lowest first. Scores compare as floats (-0 ties
// +0), and NaN ranks after every number. The caller's scratch is
// required (one per worker): the whole probe performs zero heap
// allocations, and the returned slice is backed by sc.
//
// Each candidate becomes one uint64 key, scoreKey(score)<<32 | rank, the
// rank being the row's index in the sorted id table, so the result
// order is the keys' unsigned order. The probe selects the topK smallest
// keys (quickselect, expected O(C) over C candidates) and sorts only
// those. Before a list would overflow the key buffer (topK plus the
// largest list) it first selects down to topK, so scratch memory does
// not grow with nprobe.
func (ix *Index) SearchInto(query tensor.Vec, topK, nprobe int, sc *SearchScratch) []Result {
	if len(query) != ix.centroids.Cols {
		panic(fmt.Sprintf("ann: query dim %d, index dim %d", len(query), ix.centroids.Cols))
	}
	if topK <= 0 {
		return nil
	}
	nlists := ix.centroids.Rows
	nprobe = min(max(nprobe, 1), nlists)
	copy(sc.q, query)
	q := sc.q
	tensor.Normalize(q)
	if cap(sc.keys) < topK+len(sc.scores) {
		sc.keys = make([]uint64, 0, topK+len(sc.scores))
	}
	if cap(sc.results) < topK {
		sc.results = make([]Result, 0, topK)
	}

	// Pick the lists to probe in one pass over the centroid scores,
	// keeping the nprobe smallest keys sorted in the key buffer: the
	// higher score first, the lower list on a tie, so a zero or NaN query
	// probes lists 0 … nprobe-1. Keys are distinct, so no list is probed
	// twice. Probing every list needs no coarse scan: the result does not
	// depend on the probe order.
	var probe []int32 // nil: every list, in list order
	if nprobe < nlists {
		probe = sc.probe[:nprobe]
		cscore, best := sc.scores[:nlists], sc.keys[:0]
		tensor.MatVec(&ix.centroids, q, cscore)
		for c, s := range cscore {
			k := scoreKey(s)<<32 | uint64(c)
			if len(best) == nprobe {
				if k > best[nprobe-1] {
					continue
				}
				best = best[:nprobe-1]
			}
			i := len(best)
			best = best[:i+1]
			for ; i > 0 && best[i-1] > k; i-- {
				best[i] = best[i-1]
			}
			best[i] = k
		}
		for p, k := range best {
			probe[p] = int32(uint32(k))
		}
	}

	keys := sc.keys[:0]
	for p := range nprobe {
		c := p
		if probe != nil {
			c = int(probe[p])
		}
		ranks := ix.ranks[c]
		if len(keys)+len(ranks) > cap(keys) {
			selectSmallest(keys, topK)
			keys = keys[:topK]
		}
		scores := sc.scores[:len(ranks)]
		tensor.MatVec(&ix.lists[c], q, scores)
		n := len(keys)
		keys = keys[:n+len(ranks)]
		for i, r := range ranks {
			keys[n+i] = scoreKey(scores[i])<<32 | uint64(r)
		}
	}
	if len(keys) > topK {
		selectSmallest(keys, topK)
		keys = keys[:topK]
	}
	slices.Sort(keys)
	res := sc.results[:len(keys)]
	for i, k := range keys {
		res[i] = Result{ID: ix.ids[uint32(k)], Score: keyScore(uint32(k >> 32))}
	}
	return res
}

// nanKey is the one key of every NaN score: after -Inf's (0xff800000).
const nanKey = 0xffffffff

// scoreKey maps a score to 32 bits whose unsigned order is the result
// order: higher scores to smaller keys, -0 to +0's key, every NaN to
// nanKey. A sign-set float keeps its bits (more negative, larger bits);
// a sign-clear one flips its 31 magnitude bits below 0x80000000.
func scoreKey(s float32) uint64 {
	if s != s {
		return nanKey
	}
	b := math.Float32bits(s + 0) // -0 + 0 is +0
	return uint64(b ^ ^uint32(int32(b)>>31)>>1)
}

// keyScore inverts scoreKey: the score's exact bits, except that -0
// comes back as +0 (MatVec never yields -0: its sums start at +0) and a
// NaN as the quiet NaN.
func keyScore(k uint32) float32 {
	switch {
	case k == nanKey:
		return float32(math.NaN())
	case k >= 1<<31:
		return math.Float32frombits(k)
	default:
		return math.Float32frombits(k ^ 0x7fffffff)
	}
}

// selectSmallest reorders the distinct keys so that keys[:k] hold the k
// smallest, in no particular order. It is quickselect with a
// median-of-three pivot; a range that has not shrunk within
// 2·log2(len) partitions, or is short, is sorted instead, so the worst
// case is O(n log n).
func selectSmallest(keys []uint64, k int) {
	lo, hi := 0, len(keys)
	for budget := 2 * bits.Len(uint(len(keys))); hi-lo > 16 && budget > 0; budget-- {
		p := lo + partition(keys[lo:hi])
		switch {
		case p == k || p == k-1:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
	slices.Sort(keys[lo:hi])
}

// partition moves the median of a's first, middle and last keys to its
// sorted place i, the smaller keys before it and the larger after, and
// returns i.
func partition(a []uint64) int {
	n, m := len(a), len(a)/2
	if a[m] < a[0] {
		a[m], a[0] = a[0], a[m]
	}
	if a[n-1] < a[0] {
		a[n-1], a[0] = a[0], a[n-1]
	}
	if a[m] < a[n-1] {
		a[m], a[n-1] = a[n-1], a[m]
	}
	pivot, i := a[n-1], 0
	for j, v := range a[:n-1] {
		if v < pivot {
			a[i], a[j] = v, a[i]
			i++
		}
	}
	a[i], a[n-1] = pivot, a[i]
	return i
}

// SearchExact scans every vector — the brute-force reference used to
// measure recall in tests and benchmarks. It probes every list through a
// fresh scratch sized for that alone (no coarse scan, so no probe list
// and a score buffer of the largest list), so the returned slice is
// independently owned.
func (ix *Index) SearchExact(query tensor.Vec, topK int) []Result {
	rows := 0
	for _, l := range ix.lists {
		rows = max(rows, l.Rows)
	}
	sc := &SearchScratch{q: make(tensor.Vec, ix.centroids.Cols), scores: make([]float32, rows)}
	return ix.SearchInto(query, topK, ix.centroids.Rows, sc)
}
