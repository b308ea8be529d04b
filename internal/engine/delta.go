package engine

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"zoomer/internal/alias"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/rng"
)

// The delta layer grows a shard's graph online without touching the
// immutable CSR base. Appended edges accumulate in per-node overlays
// published behind one atomic pointer — the same snapshot-swap pattern
// the routing layer uses for handoff — so the lock-free 0-alloc read
// path never sees a lock. A node's appended edges are covered by a short
// stack of runs, each an alias table over a range of them (Bentley and
// Saxe's logarithmic method): an apply pushes one run over a record's
// new edges and merges the two newest runs while the older is at most
// twice the newer, so run sizes more than double towards the oldest, a
// node holds at most ⌈log₂ n⌉+1 runs, and each edge is rebuilt into a
// table O(log n) times. A draw takes one Float64 over the base mass plus
// every run's, picks the base CSR table or a run by it, and makes one
// alias draw. A view indexes overlays by local row in fixed chunks
// shared between views, so an apply copies the chunks it touches — not
// every live overlay — and a read indexes two slices.
//
// Applies are strictly sequenced (seq = last+1) and every structure the
// apply builds is a pure function of the applied record stream, record
// boundaries included, so replaying the same WAL prefix — after a crash,
// on a replica, in a test — reproduces the exact view and bit-identical
// draws per ingest epoch (epoch = applied sequence number).

// Typed append failures, matched with errors.Is.
var (
	// errSeqGap rejects an append whose sequence number skips ahead:
	// the intervening records must be applied first. The concrete error
	// is a *seqGapError carrying the expected number for self-sync.
	errSeqGap = errors.New("engine: append sequence gap")
	// ErrBadAppend rejects malformed edges (foreign src, out-of-range
	// endpoint, non-positive or non-finite weight, unknown type).
	ErrBadAppend = errors.New("engine: invalid append edge")
)

// seqGapError reports an out-of-order append and the sequence number
// that would have been accepted.
type seqGapError struct {
	Shard int
	Got   uint64
	Want  uint64
}

func (e *seqGapError) Error() string {
	return fmt.Sprintf("engine: append sequence gap on shard %d: got %d, want %d", e.Shard, e.Got, e.Want)
}

// Is reports errors.Is membership in the errSeqGap class.
func (e *seqGapError) Is(target error) bool { return target == errSeqGap }

// IngestStats describes one shard's write-path state for observability.
type IngestStats struct {
	Shard       int
	Seq         uint64 // last applied sequence number (= ingest epoch)
	DeltaNodes  int    // nodes with a live overlay
	DeltaEdges  uint64 // appended edges in the current view
	Compactions uint64 // delta run merges
	WALSegments int    // 0 when the backend has no WAL
	Fsyncs      uint64
	FsyncNanos  uint64
	FsyncHist   []uint64 // aligned with ingest.FsyncBounds (+Inf last); nil when unavailable
}

// overlayChunkBits sizes the chunks of a view's overlay table: 64 local
// rows, 512 bytes of pointers, per chunk.
const (
	overlayChunkBits = 6
	overlayChunkMask = 1<<overlayChunkBits - 1
)

// overlayChunk is one fixed run of a shard's local rows; a nil slot is a
// row with no appended edges.
type overlayChunk [1 << overlayChunkBits]*nodeOverlay

// noOverlays is the all-nil chunk every untouched run of rows points at,
// so a read never checks for a missing chunk. Never written.
var noOverlays overlayChunk

// deltaView is one immutable snapshot of a shard's overlay state.
type deltaView struct {
	seq         uint64
	compactions uint64
	edges       uint64
	nodes       int             // rows with a live overlay
	chunks      []*overlayChunk // row li lives in chunks[li>>overlayChunkBits]
}

// overlay returns local row li's overlay in this view, or nil.
func (dv *deltaView) overlay(li int32) *nodeOverlay {
	return dv.chunks[li>>overlayChunkBits][li&overlayChunkMask]
}

// nodeOverlay is one node's delta state. All fields are immutable after
// publication; `all` may share a backing array across views (an apply
// only ever writes past the published length).
type nodeOverlay struct {
	all  []graph.Edge // every appended edge for this node, in apply order
	runs []deltaRun   // oldest first, covering all exactly; never empty

	// baseW is the base adjacency's weight mass under the same
	// degenerate-weight fallback buildTables applied (uniform = degree).
	baseW float64
}

// deltaRun is one alias table over an overlay's all[lo:hi]. end is the
// cumulative mass baseW + Σ w of this and every older run, so the newest
// run's end is the node's whole mass.
type deltaRun struct {
	lo, hi int32
	end    float64
	prob   []float64
	alias  []int32
}

// LastAppliedSeq returns the sequence number of the newest applied
// append (0 before any).
func (s *Shard) LastAppliedSeq() uint64 {
	if dv := s.delta.Load(); dv != nil {
		return dv.seq
	}
	return 0
}

// ApplyAppend applies one sequenced edge batch to the shard's delta
// layer. It is idempotent: seq at or below the last applied number is a
// duplicate (applied=false, nil error); a sequence skipping ahead fails
// with *seqGapError carrying the expected number. The returned lastSeq
// is the post-call ingest epoch either way.
func (s *Shard) ApplyAppend(seq uint64, edges []ingest.Edge) (applied bool, lastSeq uint64, err error) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	cur := s.LastAppliedSeq()
	if seq <= cur {
		return false, cur, nil
	}
	if seq != cur+1 {
		return false, cur, &seqGapError{Shard: s.id, Got: seq, Want: cur + 1}
	}
	if err := s.applyLocked(seq, edges); err != nil {
		return false, cur, err
	}
	return true, seq, nil
}

// AppendEdges implements ShardBackend for the in-process shard: it
// sequences the batch itself (local engines have no concurrent writer).
func (s *Shard) AppendEdges(edges []ingest.Edge) (uint64, error) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	seq := s.LastAppliedSeq() + 1
	if err := s.applyLocked(seq, edges); err != nil {
		return 0, err
	}
	return seq, nil
}

// IngestStats reports the in-process shard's write-path row (no WAL
// fields: durability lives with the rpc server when configured).
func (s *Shard) IngestStats() IngestStats {
	dv := s.delta.Load()
	if dv == nil {
		return IngestStats{Shard: s.id}
	}
	return IngestStats{
		Shard:       s.id,
		Seq:         dv.seq,
		DeltaNodes:  dv.nodes,
		DeltaEdges:  dv.edges,
		Compactions: dv.compactions,
	}
}

// ValidateAppend checks an edge batch against this shard without
// mutating anything — the same checks applyLocked enforces, shared with
// the rpc server so invalid batches are rejected before the WAL write.
func (s *Shard) ValidateAppend(edges []ingest.Edge) error {
	numNodes := graph.NodeID(s.part.Routing.NumNodes())
	for i, e := range edges {
		switch {
		case e.Src < 0 || e.Src >= numNodes || e.Dst < 0 || e.Dst >= numNodes:
			return fmt.Errorf("%w: edge %d endpoints (%d, %d) out of range [0, %d)", ErrBadAppend, i, e.Src, e.Dst, numNodes)
		case s.part.Routing.Owner(e.Src) != s.id:
			return fmt.Errorf("%w: edge %d src %d belongs to shard %d, not %d", ErrBadAppend, i, e.Src, s.part.Routing.Owner(e.Src), s.id)
		case int(e.Type) >= graph.NumEdgeTypes:
			return fmt.Errorf("%w: edge %d has unknown type %d", ErrBadAppend, i, e.Type)
		case !(e.Weight > 0) || math.IsInf(float64(e.Weight), 1):
			return fmt.Errorf("%w: edge %d weight %v is not positive and finite", ErrBadAppend, i, e.Weight)
		}
	}
	return nil
}

// applyLocked publishes a new view with edges applied under seq. Caller
// holds deltaMu and has sequenced seq.
func (s *Shard) applyLocked(seq uint64, edges []ingest.Edge) error {
	if len(edges) == 0 {
		return fmt.Errorf("%w: empty batch", ErrBadAppend)
	}
	if err := s.ValidateAppend(edges); err != nil {
		return err
	}

	old := s.delta.Load()
	if old == nil {
		old = &deltaView{chunks: make([]*overlayChunk, (s.store.NumNodes()+overlayChunkMask)>>overlayChunkBits)}
		for i := range old.chunks {
			old.chunks[i] = &noOverlays
		}
	}
	next := *old
	next.seq = seq
	next.chunks = slices.Clone(old.chunks)

	// Copy-on-write per touched chunk and node: untouched chunks and
	// overlays are shared with the old view; touched ones are re-derived
	// so in-flight readers of the old view never observe a mutation.
	touched := make([]int32, 0, len(edges))
	for _, e := range edges {
		li := s.part.Local(e.Src)
		ci := li >> overlayChunkBits
		if next.chunks[ci] == old.chunks[ci] {
			cp := *old.chunks[ci]
			next.chunks[ci] = &cp
		}
		slot := &next.chunks[ci][li&overlayChunkMask]
		if *slot == old.overlay(li) { // first edge of this row in the batch
			if *slot == nil {
				next.nodes++
			}
			*slot = s.cloneOverlay(li, *slot)
			touched = append(touched, li)
		}
		(*slot).all = append((*slot).all, graph.Edge{To: e.Dst, Type: e.Type, Weight: e.Weight})
		next.edges++
	}
	for _, li := range touched {
		next.compactions += s.pushRun(next.overlay(li))
	}
	s.delta.Store(&next)
	return nil
}

// cloneOverlay copies the published fields of local row li's overlay (or
// derives a fresh one for a node's first delta). The `all` slice is
// shared — the apply path only appends past the published length, which
// readers of older views never index.
func (s *Shard) cloneOverlay(li int32, old *nodeOverlay) *nodeOverlay {
	if old == nil {
		lo, hi := s.store.Offsets[li], s.store.Offsets[li+1]
		return &nodeOverlay{baseW: s.baseWeightSpan(lo, hi)}
	}
	cp := *old
	return &cp
}

// baseWeightSpan returns the weight mass buildTables assigned to the
// base adjacency spanning [lo, hi): the raw sum, or the degree when
// alias.BuildInto rejected the raw weights (a negative weight or an
// all-zero mass) and buildTables fell back to uniform.
func (s *Shard) baseWeightSpan(lo, hi int32) float64 {
	sum := 0.0
	for _, e := range s.store.Edges[lo:hi] {
		if e.Weight < 0 {
			return float64(hi - lo)
		}
		sum += float64(e.Weight)
	}
	if sum == 0 {
		return float64(hi - lo)
	}
	return sum
}

// pushRun covers the edges this apply appended to ov with one new run,
// merged with the newest runs while the older of the two newest is at
// most twice the newer. A merge rebuilds the merged range's table from
// its weights, so the cascade builds one table, over its final range;
// the merges are counted, not built. Runs a merge leaves alone are
// shared with older views.
func (s *Shard) pushRun(ov *nodeOverlay) (merges uint64) {
	hi, k := int32(len(ov.all)), len(ov.runs)
	lo := int32(0)
	if k > 0 {
		lo = ov.runs[k-1].hi
	}
	for ; k > 0 && ov.runs[k-1].hi-ov.runs[k-1].lo <= 2*(hi-lo); k-- {
		lo = ov.runs[k-1].lo
		merges++
	}
	end := ov.baseW
	if k > 0 {
		end = ov.runs[k-1].end
	}

	n := int(hi - lo)
	if cap(s.runWeights) < n {
		s.runWeights, s.runStack = make([]float64, n), make([]int32, n)
	}
	weights := s.runWeights[:n]
	for i, e := range ov.all[lo:hi] {
		weights[i] = float64(e.Weight)
		end += weights[i]
	}
	run := deltaRun{lo: lo, hi: hi, end: end, prob: make([]float64, n), alias: make([]int32, n)}
	alias.MustBuildInto(run.prob, run.alias, weights, s.runStack[:n])
	s.runBuilt += uint64(n)

	ov.runs = append(slices.Clip(ov.runs[:k]), run)
	return merges
}

// sampleOverlay draws len(out) neighbors for a node with live deltas.
// Each draw scales one Float64 to the node's whole mass (base plus every
// run) to pick the base CSR table or one run, then makes one alias draw
// in it. Runs on the read hot path — no allocation, no locks.
func (s *Shard) sampleOverlay(ov *nodeOverlay, lo, hi int32, out []graph.NodeID, r *rng.RNG) {
	runs, last := ov.runs, len(ov.runs)-1
	baseW, total := ov.baseW, runs[last].end
	prob, aliasIdx := s.prob[lo:hi], s.alias[lo:hi]
	for j := range out {
		x := r.Float64() * total
		if x < baseW {
			out[j] = s.store.Edges[int(lo)+alias.SampleFrom(prob, aliasIdx, r)].To
			continue
		}
		// Oldest first: the oldest run is the largest, so the walk is short.
		i := 0
		for i < last && x >= runs[i].end {
			i++
		}
		run := &runs[i]
		out[j] = ov.all[int(run.lo)+alias.SampleFrom(run.prob, run.alias, r)].To
	}
}

// overlayAt returns local row li's live overlay, or nil. One atomic
// load; free when the shard has never seen an append.
func (s *Shard) overlayAt(li int32) *nodeOverlay {
	dv := s.delta.Load()
	if dv == nil {
		return nil
	}
	return dv.overlay(li)
}
