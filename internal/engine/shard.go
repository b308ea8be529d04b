package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"zoomer/internal/alias"
	"zoomer/internal/graph"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// Shard is one partition's in-process store: the per-shard CSR slice from
// internal/partition plus flat alias arrays aligned with the shard's own
// edge array (node with local index li has its table in
// prob/alias[Offsets[li]:Offsets[li+1]], alias indices local to the
// adjacency). The base arrays are immutable after New and read without
// locks. Online appends layer per-node overlays on top via the atomically
// swapped delta view (see delta.go) — the read path loads it once per
// call and never locks. Shard serves global node ids it owns — calls for
// foreign ids are a routing bug and will read another node's rows or
// index out of range.
type Shard struct {
	id    int
	part  *partition.Partition
	store *partition.Shard

	prob  []float64
	alias []int32
	// tableCount counts adjacencies with a table (degree > 0); atomic only
	// because chunks of one shard build concurrently during New.
	tableCount atomic.Int64

	// delta is the current overlay snapshot (nil before any append);
	// deltaMu serializes writers only and guards the run-build scratch
	// and the count of alias entries applies have built.
	delta      atomic.Pointer[deltaView]
	deltaMu    sync.Mutex
	runWeights []float64
	runStack   []int32
	runBuilt   uint64

	requests atomic.Int64 // nodes served: one per sample, the group size per visit
}

func newShard(id int, part *partition.Partition) *Shard {
	s := &Shard{
		id:    id,
		part:  part,
		store: &part.Shards[id],
	}
	s.prob = make([]float64, s.store.NumEdges())
	s.alias = make([]int32, s.store.NumEdges())
	return s
}

// buildTables fills the alias arrays for local node indices [lo, hi),
// reusing one weight/stack scratch across the range. Chunks of one shard
// never overlap, so concurrent builders need no synchronization beyond
// the atomic table counter folded in by the caller.
func (s *Shard) buildTables(lo, hi int) {
	var weights []float64
	var stack []int32
	built := 0
	for li := lo; li < hi; li++ {
		elo, ehi := s.store.Offsets[li], s.store.Offsets[li+1]
		deg := int(ehi - elo)
		if deg == 0 {
			continue
		}
		if cap(weights) < deg {
			weights = make([]float64, deg)
			stack = make([]int32, deg)
		}
		weights = weights[:deg]
		stack = stack[:deg]
		for i, edge := range s.store.Edges[elo:ehi] {
			weights[i] = float64(edge.Weight)
		}
		if err := alias.BuildInto(s.prob[elo:ehi], s.alias[elo:ehi], weights, stack); err != nil {
			// Degenerate weights (all zero, or invalid values in a graph
			// that bypassed Builder validation): degrade this adjacency to
			// uniform rather than fail the shard.
			for i := range weights {
				weights[i] = 1
			}
			alias.MustBuildInto(s.prob[elo:ehi], s.alias[elo:ehi], weights, stack)
		}
		built++
	}
	s.tableCount.Add(int64(built))
}

// tables returns the number of precomputed per-adjacency alias tables.
func (s *Shard) tables() int { return int(s.tableCount.Load()) }

// Requests reports the shard's served-node count (ShardBackend).
func (s *Shard) Requests() int64 { return s.requests.Load() }

// ShardSize reports the partition's node count (ShardBackend).
func (s *Shard) ShardSize() (nodes int) { return s.store.NumNodes() }

// Healthy implements ShardBackend: an in-process shard never fails.
func (s *Shard) Healthy() bool { return true }

// neighbors returns the adjacency list of an owned node. Without live
// deltas this is an immutable zero-copy view into the shard's CSR
// slice; a node with appended edges gets a freshly built combined copy.
func (s *Shard) neighbors(id graph.NodeID) []graph.Edge {
	li := s.part.Local(id)
	base := s.store.Edges[s.store.Offsets[li]:s.store.Offsets[li+1]]
	ov := s.overlayAt(li)
	if ov == nil {
		return base
	}
	out := make([]graph.Edge, 0, len(base)+len(ov.all))
	out = append(out, base...)
	return append(out, ov.all...)
}

// content returns the node's content vector.
func (s *Shard) content(id graph.NodeID) tensor.Vec {
	return s.store.Content[s.part.Local(id)]
}

// features returns the node's categorical features.
func (s *Shard) features(id graph.NodeID) []int32 {
	return s.store.Features[s.part.Local(id)]
}

// SampleNeighborsInto fills out with weighted neighbor draws of an owned
// node (with replacement) and returns the number written: len(out), or 0
// for an isolated node. It performs no heap allocation; the only shared
// write is the request counter.
func (s *Shard) SampleNeighborsInto(id graph.NodeID, out []graph.NodeID, r *rng.RNG) int {
	li := s.part.Local(id)
	lo, hi := s.store.Offsets[li], s.store.Offsets[li+1]
	// The overlay check precedes the isolated-node early return: a node
	// born isolated can gain edges online.
	if dv := s.delta.Load(); dv != nil {
		if ov := dv.overlay(li); ov != nil {
			if len(out) == 0 {
				return 0
			}
			s.requests.Add(1)
			s.sampleOverlay(ov, lo, hi, out, r)
			return len(out)
		}
	}
	if lo == hi || len(out) == 0 {
		return 0
	}
	s.requests.Add(1)
	s.sampleLocal(lo, hi, out, r)
	return len(out)
}

// The in-process shard is a ShardBackend that never fails: the error
// returns exist so the routing layer can hold local shards and remote
// stubs behind one interface.

// SampleIntoBy is SampleNeighborsInto with the ShardBackend signature; a
// local read cannot block, so the deadline is not consulted.
func (s *Shard) SampleIntoBy(id graph.NodeID, out []graph.NodeID, r *rng.RNG, _ time.Time) (int, error) {
	return s.SampleNeighborsInto(id, out, r), nil
}

// SampleBatchInto serves one scatter-gather group: entry j is node
// gids[j] at global batch index idx[j], drawing k weighted neighbors from
// the sub-stream derived from (base, idx[j]) into out[idx[j]*k:...] with
// the count in ns[idx[j]]. The visit is charged the group size. The
// derived-RNG contract makes the
// result independent of grouping, so a remote backend serving the same
// partition returns bit-identical draws. No heap allocation.
func (s *Shard) SampleBatchInto(gids []graph.NodeID, idx []int32, base uint64, k int, out []graph.NodeID, ns []int32) (int, error) {
	s.requests.Add(int64(len(gids)))
	var sub rng.RNG
	total := 0
	for j, id := range gids {
		i := int(idx[j])
		n := s.SampleEntryInto(id, base, idx[j], out[i*k:(i+1)*k], &sub)
		ns[i] = int32(n)
		total += n
	}
	return total, nil
}

// SampleEntryInto draws batch entry i — owned node id — into out: r is
// reseeded from the entry's sub-stream of base, and the count written is
// len(out), or 0 for an isolated node. It is the one spelling of the
// batch sub-stream rule, shared by SampleBatchInto and a shard server's
// batch handler; it charges nothing and performs no heap allocation.
func (s *Shard) SampleEntryInto(id graph.NodeID, base uint64, i int32, out []graph.NodeID, r *rng.RNG) int {
	li := s.part.Local(id)
	lo, hi := s.store.Offsets[li], s.store.Offsets[li+1]
	// The overlay check precedes the isolated-node return: a node born
	// isolated can gain edges online.
	if ov := s.overlayAt(li); ov != nil {
		r.Reseed(entrySeed(base, int(i)))
		s.sampleOverlay(ov, lo, hi, out, r)
		return len(out)
	}
	if lo == hi {
		return 0
	}
	r.Reseed(entrySeed(base, int(i)))
	s.sampleLocal(lo, hi, out, r)
	return len(out)
}

// sampleLocal draws len(out) alias samples from the adjacency spanning
// [lo, hi) in the shard's edge array. Callers have already charged the
// visit.
func (s *Shard) sampleLocal(lo, hi int32, out []graph.NodeID, r *rng.RNG) {
	prob := s.prob[lo:hi]
	aliasIdx := s.alias[lo:hi]
	edges := s.store.Edges
	for i := range out {
		out[i] = edges[int(lo)+alias.SampleFrom(prob, aliasIdx, r)].To
	}
}
