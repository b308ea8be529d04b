package engine

import (
	"fmt"

	"zoomer/internal/graph"
	"zoomer/internal/rng"
)

// BatchScratch holds the reusable buffers of the sample scatter-gather:
// the visit plan (grouping arrays and visit list) of a batch, and the
// SampleTree frontier/output storage. Not safe for concurrent use — one
// per caller, like *rng.RNG. The scratch is required: a nil *BatchScratch
// panics at first use.
type BatchScratch struct {
	plan visitPlan

	// SampleTree buffers: the flat tree, the current frontier and the
	// batch-draw output it expands into.
	tree     []TreeNode
	frontier []graph.NodeID
	children []graph.NodeID
	ns       []int32
}

// NewBatchScratch returns an empty scratch; buffers are grown on first
// use and reused afterwards.
func NewBatchScratch() *BatchScratch { return &BatchScratch{} }

// entrySeed derives the deterministic RNG seed of batch entry i from the
// batch base. The mapping depends only on (base, i) — not on the entry's
// owning shard or the order shards are visited in — which is what makes
// batch results identical across shard counts and partition strategies.
func entrySeed(base uint64, i int) uint64 {
	return base + (uint64(i)+1)*0x9e3779b97f4a7c15
}

// SampleNeighborsBatchInto draws k weighted neighbors (with replacement)
// for each of ids, writing entry i's draws into out[i*k:(i+1)*k] and the
// per-entry count (k, or 0 for an isolated node) into ns[i]. It returns
// the total number of draws written.
//
// This is the scatter-gather of the draws, one run of the engine's visit
// plan (scatter): entries are grouped by owning shard with a counting
// sort, each group is one visit (groups above 4096 entries are cut) — one
// replica is picked and charged per visit, and over a remote backend each
// visit is exactly one RPC round trip, started before any is awaited so
// the round trips overlap and batch latency approaches the slowest
// shard's instead of their sum. A local-only engine visits its shards
// inline and keeps its zero-allocation guarantee. Either way the results
// are identical: every visit writes into disjoint position-addressed
// regions of out/ns, and one value is consumed from r as the batch base
// with every entry drawing from its own derived sub-stream shard-side —
// deterministic given (r state, ids, k) and independent of partitioning,
// process boundaries, and dispatch order.
//
// out must hold at least len(ids)*k entries and ns at least len(ids);
// the call panics otherwise. bs is required; the call performs no heap
// allocation at steady state.
//
// On a backend failure (a remote shard down mid-batch) every count in ns
// is zeroed and a typed error — satisfying
// errors.Is(err, rpc.ErrShardUnavailable) for transport failures — is
// returned: no partial results survive. A transport failure first moves
// the visit to the partition's sibling replicas, and a wrong-epoch
// redirect (a shard drained by a live handoff) is not surfaced: the
// engine refreshes its ownership view once and re-runs the visits that
// failed with the same base, so the merged draws are bit-identical to
// what a static cluster would have produced.
func (e *Engine) SampleNeighborsBatchInto(ids []graph.NodeID, k int, out []graph.NodeID, ns []int32, r *rng.RNG, bs *BatchScratch) (int, error) {
	if k <= 0 {
		// Zero the counts so callers reading ns see "no draws" rather
		// than stale values from a previous batch on the same buffers.
		for i := range ids {
			ns[i] = 0
		}
		return 0, nil
	}
	if len(ids) == 0 {
		return 0, nil
	}
	if len(out) < len(ids)*k || len(ns) < len(ids) {
		panic(fmt.Sprintf("engine: batch buffers %d/%d for %d ids × k=%d", len(out), len(ns), len(ids), k))
	}
	total, err := e.scatter(&bs.plan, ids, &payload{base: r.Uint64(), k: k, out: out, ns: ns})
	if err != nil {
		clear(ns[:len(ids)])
		return 0, err
	}
	return total, nil
}

// TreeNode is one entry of the flat breadth-first expansion SampleTree
// produces: Nodes[0] is the ego and Parent indexes into the same slice
// (-1 for the root).
type TreeNode struct {
	ID     graph.NodeID
	Parent int32
}

// SampleTree expands hops levels of weighted neighbor sampling from ego
// with per-node budget k — the engine-native multi-hop neighborhood used
// by serving-side ROI construction. Each level's frontier is issued as
// one scatter-gather batch, so every shard is visited at most once per
// level regardless of frontier size.
//
// The returned slice is backed by bs (valid until its next SampleTree
// call) and the expansion is deterministic given (r state, ego, hops, k),
// independent of shard count, partition strategy and process boundaries.
// bs is required; steady-state construction performs no heap allocation
// over in-process shards. A backend failure aborts the expansion with a
// nil tree and the typed batch error — no partial tree survives.
func (e *Engine) SampleTree(ego graph.NodeID, hops, k int, r *rng.RNG, bs *BatchScratch) ([]TreeNode, error) {
	bs.tree = append(bs.tree[:0], TreeNode{ID: ego, Parent: -1})
	if k <= 0 {
		return bs.tree, nil
	}
	start, end := 0, 1
	for h := 0; h < hops && start < end; h++ {
		bs.frontier = bs.frontier[:0]
		for i := start; i < end; i++ {
			bs.frontier = append(bs.frontier, bs.tree[i].ID)
		}
		need := len(bs.frontier) * k
		if cap(bs.children) < need {
			bs.children = make([]graph.NodeID, need)
		}
		bs.children = bs.children[:need]
		if cap(bs.ns) < len(bs.frontier) {
			bs.ns = make([]int32, len(bs.frontier))
		}
		bs.ns = bs.ns[:len(bs.frontier)]
		if _, err := e.SampleNeighborsBatchInto(bs.frontier, k, bs.children, bs.ns, r, bs); err != nil {
			return nil, fmt.Errorf("engine: tree hop %d: %w", h, err)
		}
		for fi := range bs.frontier {
			parent := int32(start + fi)
			for j := int32(0); j < bs.ns[fi]; j++ {
				bs.tree = append(bs.tree, TreeNode{ID: bs.children[fi*k+int(j)], Parent: parent})
			}
		}
		start, end = end, len(bs.tree)
	}
	return bs.tree, nil
}
