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
// path never sees a lock: a draw loads the current view once and
// samples a two-component mixture (base adjacency vs. pending deltas by
// weight mass). Once a node's pending list reaches compactThreshold the
// apply path folds base + deltas into one merged alias table, keeping
// per-draw cost flat as a node keeps growing. A view indexes overlays
// by local row in fixed chunks shared between views, so an apply copies
// the chunks it touches — not every live overlay — and a read indexes
// two slices.
//
// Applies are strictly sequenced (seq = last+1) and every structure the
// apply builds is a pure function of the applied record stream, so
// replaying the same WAL prefix — after a crash, on a replica, in a
// test — reproduces the exact view and bit-identical draws per ingest
// epoch (epoch = applied sequence number).

// compactThreshold is the pending-delta count at which a node's overlay
// is folded into one merged alias table. It must stay a deterministic
// function of the applied stream (never time- or load-based): replica
// and replay equivalence depend on it.
const compactThreshold = 16

// Typed append failures, matched with errors.Is.
var (
	// ErrSeqGap rejects an append whose sequence number skips ahead:
	// the intervening records must be applied first. The concrete error
	// is a *SeqGapError carrying the expected number for self-sync.
	ErrSeqGap = errors.New("engine: append sequence gap")
	// ErrBadAppend rejects malformed edges (foreign src, out-of-range
	// endpoint, non-positive or non-finite weight, unknown type).
	ErrBadAppend = errors.New("engine: invalid append edge")
	// ErrAppendUnsupported marks a backend with no append facet.
	ErrAppendUnsupported = errors.New("engine: backend does not support append")
)

// SeqGapError reports an out-of-order append and the sequence number
// that would have been accepted.
type SeqGapError struct {
	Shard int
	Got   uint64
	Want  uint64
}

func (e *SeqGapError) Error() string {
	return fmt.Sprintf("engine: append sequence gap on shard %d: got %d, want %d", e.Shard, e.Got, e.Want)
}

// Is reports errors.Is membership in the ErrSeqGap class.
func (e *SeqGapError) Is(target error) bool { return target == ErrSeqGap }

// EdgeAppender is the optional write facet of a ShardBackend: local
// shards apply directly, remote stubs forward over the graph-append op.
// AppendEdges atomically applies one batch (all edges must belong to
// this backend's partition) and returns the sequence number it was
// applied under.
type EdgeAppender interface {
	AppendEdges(edges []ingest.Edge) (seq uint64, err error)
}

// IngestStats describes one shard's write-path state for observability.
type IngestStats struct {
	Shard       int
	Seq         uint64 // last applied sequence number (= ingest epoch)
	DeltaNodes  int    // nodes with a live overlay
	DeltaEdges  uint64 // appended edges in the current view
	Compactions uint64
	WALSegments int // 0 when the backend has no WAL
	Fsyncs      uint64
	FsyncNanos  uint64
	FsyncHist   []uint64 // aligned with ingest.FsyncBounds (+Inf last); nil when unavailable
}

// IngestReporter is the optional observability facet of the write path.
// The second return is false when the backend cannot currently report
// (e.g. a remote stub that has not fetched stats yet).
type IngestReporter interface {
	IngestStats() (IngestStats, bool)
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
	all []graph.Edge // every appended edge for this node, in apply order

	// merged: alias table over base adjacency + all[:compactedLen];
	// nil until the first compaction (draws then mix the base CSR table
	// with the pending table instead).
	merged       []graph.Edge
	mergedProb   []float64
	mergedAlias  []int32
	mergedW      float64
	compactedLen int

	// pending: alias table over all[compactedLen:].
	pendProb  []float64
	pendAlias []int32
	pendW     float64

	// baseW is the base adjacency's weight mass under the same
	// degenerate-weight fallback buildTables applied (uniform = degree).
	// Unused (draws go through merged) once merged is non-nil.
	baseW float64
}

func (ov *nodeOverlay) pending() []graph.Edge { return ov.all[ov.compactedLen:] }

// DeltaStats snapshots the shard's delta layer.
type DeltaStats struct {
	Seq         uint64
	Nodes       int
	Edges       uint64
	Compactions uint64
}

// LastAppliedSeq returns the sequence number of the newest applied
// append (0 before any).
func (s *Shard) LastAppliedSeq() uint64 {
	if dv := s.delta.Load(); dv != nil {
		return dv.seq
	}
	return 0
}

// DeltaStats snapshots the delta layer without blocking appliers.
func (s *Shard) DeltaStats() DeltaStats {
	dv := s.delta.Load()
	if dv == nil {
		return DeltaStats{}
	}
	return DeltaStats{Seq: dv.seq, Nodes: dv.nodes, Edges: dv.edges, Compactions: dv.compactions}
}

// ApplyAppend applies one sequenced edge batch to the shard's delta
// layer. It is idempotent: seq at or below the last applied number is a
// duplicate (applied=false, nil error); a sequence skipping ahead fails
// with *SeqGapError carrying the expected number. The returned lastSeq
// is the post-call ingest epoch either way.
func (s *Shard) ApplyAppend(seq uint64, edges []ingest.Edge) (applied bool, lastSeq uint64, err error) {
	s.deltaMu.Lock()
	defer s.deltaMu.Unlock()
	cur := s.LastAppliedSeq()
	if seq <= cur {
		return false, cur, nil
	}
	if seq != cur+1 {
		return false, cur, &SeqGapError{Shard: s.id, Got: seq, Want: cur + 1}
	}
	if err := s.applyLocked(seq, edges); err != nil {
		return false, cur, err
	}
	return true, seq, nil
}

// AppendEdges implements EdgeAppender for the in-process shard: it
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

// IngestStats implements IngestReporter for the in-process shard (no
// WAL fields: durability lives with the rpc server when configured).
func (s *Shard) IngestStats() (IngestStats, bool) {
	d := s.DeltaStats()
	return IngestStats{
		Shard:       s.id,
		Seq:         d.Seq,
		DeltaNodes:  d.Nodes,
		DeltaEdges:  d.Edges,
		Compactions: d.Compactions,
	}, true
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
		ov := next.overlay(li)
		if len(ov.pending()) >= compactThreshold {
			s.compactOverlay(li, ov)
			next.compactions++
		}
		s.rebuildPending(ov)
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

// baseDegenerate reports whether buildTables fell back to uniform
// weights for the adjacency spanning [lo, hi) (alias.BuildInto rejects
// negative weights and all-zero mass).
func (s *Shard) baseDegenerate(lo, hi int32) bool {
	if lo == hi {
		return false
	}
	sum := 0.0
	for _, e := range s.store.Edges[lo:hi] {
		if e.Weight < 0 {
			return true
		}
		sum += float64(e.Weight)
	}
	return sum == 0
}

// baseWeightSpan returns the weight mass buildTables assigned to the
// base adjacency spanning [lo, hi): the raw sum, or the degree when the
// raw weights were degenerate (matching the uniform fallback).
func (s *Shard) baseWeightSpan(lo, hi int32) float64 {
	if lo == hi {
		return 0
	}
	if s.baseDegenerate(lo, hi) {
		return float64(hi - lo)
	}
	sum := 0.0
	for _, e := range s.store.Edges[lo:hi] {
		sum += float64(e.Weight)
	}
	return sum
}

// compactOverlay folds base + every applied delta into one merged alias
// table; subsequent draws stop consulting the base CSR table for this
// node. Deterministic: depends only on the base arrays and ov.all.
func (s *Shard) compactOverlay(li int32, ov *nodeOverlay) {
	lo, hi := s.store.Offsets[li], s.store.Offsets[li+1]
	base := s.store.Edges[lo:hi]

	merged := make([]graph.Edge, 0, len(base)+len(ov.all))
	merged = append(merged, base...)
	merged = append(merged, ov.all...)
	weights := make([]float64, len(merged))
	uniformBase := s.baseDegenerate(lo, hi)
	for i, e := range merged {
		if i < len(base) && uniformBase {
			weights[i] = 1 // preserve the degenerate-base uniform fallback
		} else {
			weights[i] = float64(e.Weight)
		}
	}
	ov.merged = merged
	ov.mergedProb = make([]float64, len(merged))
	ov.mergedAlias = make([]int32, len(merged))
	stack := make([]int32, len(merged))
	alias.MustBuildInto(ov.mergedProb, ov.mergedAlias, weights, stack)
	ov.mergedW = 0
	for _, w := range weights {
		ov.mergedW += w
	}
	ov.compactedLen = len(ov.all)
	ov.baseW = 0
}

// rebuildPending rebuilds the alias table over the uncompacted tail.
func (s *Shard) rebuildPending(ov *nodeOverlay) {
	pend := ov.pending()
	if len(pend) == 0 {
		ov.pendProb, ov.pendAlias, ov.pendW = nil, nil, 0
		return
	}
	weights := make([]float64, len(pend))
	w := 0.0
	for i, e := range pend {
		weights[i] = float64(e.Weight)
		w += float64(e.Weight)
	}
	ov.pendProb = make([]float64, len(pend))
	ov.pendAlias = make([]int32, len(pend))
	stack := make([]int32, len(pend))
	alias.MustBuildInto(ov.pendProb, ov.pendAlias, weights, stack)
	ov.pendW = w
}

// sampleOverlay draws len(out) neighbors for a node with live deltas:
// a weighted two-component mixture between the compacted table (or the
// base CSR table pre-compaction) and the pending-delta table. Runs on
// the read hot path — no allocation, no locks.
func (s *Shard) sampleOverlay(ov *nodeOverlay, lo, hi int32, out []graph.NodeID, r *rng.RNG) {
	for i := range out {
		out[i] = s.drawOverlay(ov, lo, hi, r)
	}
}

func (s *Shard) drawOverlay(ov *nodeOverlay, lo, hi int32, r *rng.RNG) graph.NodeID {
	if ov.merged != nil {
		if ov.pendW == 0 || r.Float64()*(ov.mergedW+ov.pendW) < ov.mergedW {
			return ov.merged[alias.SampleFrom(ov.mergedProb, ov.mergedAlias, r)].To
		}
		pend := ov.pending()
		return pend[alias.SampleFrom(ov.pendProb, ov.pendAlias, r)].To
	}
	if ov.baseW > 0 && (ov.pendW == 0 || r.Float64()*(ov.baseW+ov.pendW) < ov.baseW) {
		prob := s.prob[lo:hi]
		aliasIdx := s.alias[lo:hi]
		return s.store.Edges[int(lo)+alias.SampleFrom(prob, aliasIdx, r)].To
	}
	pend := ov.pending()
	return pend[alias.SampleFrom(ov.pendProb, ov.pendAlias, r)].To
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

// ensure the facets stay implemented.
var (
	_ EdgeAppender   = (*Shard)(nil)
	_ IngestReporter = (*Shard)(nil)
)
