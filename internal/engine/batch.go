package engine

import (
	"errors"
	"fmt"
	"sync"

	"zoomer/internal/graph"
	"zoomer/internal/rng"
)

// BatchScratch holds the reusable buffers of the scatter-gather path: the
// counting-sort grouping arrays, the derived per-entry RNG, the parallel
// fan-out completion state, and the SampleTree frontier/output storage.
// Not safe for concurrent use — one per caller, like *rng.RNG. A nil
// *BatchScratch is accepted everywhere and falls back to per-call
// allocation.
type BatchScratch struct {
	counts []int32
	order  []int32
	gids   []graph.NodeID // entry node ids reordered by owning shard

	// Parallel fan-out state: one result slot, one in-flight handle slot
	// and one picked-replica slot per shard, plus the caller's completion
	// barrier for worker-dispatched visits — all reused across batches.
	visits  []visitRes
	handles []BatchHandle
	bes     []ShardBackend
	wg      sync.WaitGroup

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

func (bs *BatchScratch) orNew() *BatchScratch {
	if bs == nil {
		return &BatchScratch{}
	}
	return bs
}

// visitBufs returns the per-shard result, handle and picked-replica
// slots for one parallel batch.
func (bs *BatchScratch) visitBufs(shards int) ([]visitRes, []BatchHandle, []ShardBackend) {
	if cap(bs.visits) < shards {
		bs.visits = make([]visitRes, shards)
		bs.handles = make([]BatchHandle, shards)
		bs.bes = make([]ShardBackend, shards)
	}
	bs.visits = bs.visits[:shards]
	bs.handles = bs.handles[:shards]
	bs.bes = bs.bes[:shards]
	for i := range bs.visits {
		bs.visits[i] = visitRes{}
		bs.handles[i] = nil
		bs.bes[i] = nil
	}
	return bs.visits, bs.handles, bs.bes
}

func (bs *BatchScratch) groupBufs(entries, shards int) (counts, order []int32, gids []graph.NodeID) {
	if cap(bs.counts) < shards+1 {
		bs.counts = make([]int32, shards+1)
	}
	bs.counts = bs.counts[:shards+1]
	for i := range bs.counts {
		bs.counts[i] = 0
	}
	if cap(bs.order) < entries {
		bs.order = make([]int32, entries)
		bs.gids = make([]graph.NodeID, entries)
	}
	bs.order = bs.order[:entries]
	bs.gids = bs.gids[:entries]
	return bs.counts, bs.order, bs.gids
}

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
// This is the scatter-gather layer: entries are grouped by owning shard
// with a counting sort and each shard is visited exactly once — one
// replica is picked and charged per shard per batch, and over a remote
// backend each visit is exactly one RPC round trip. When more than one
// of the visited shards is remote, the visits are dispatched to a
// bounded fan-out worker pool and overlap on the wire (local groups run
// inline on the caller meanwhile), so batch latency approaches the
// slowest shard's round trip instead of their sum; a local-only engine
// keeps the sequential inline path and its zero-allocation guarantee.
// Either way the results are identical: every visit writes into disjoint
// position-addressed regions of out/ns, and one value is consumed from r
// as the batch base with every entry drawing from its own derived
// sub-stream shard-side — deterministic given (r state, ids, k) and
// independent of partitioning, process boundaries, and dispatch order.
//
// out must hold at least len(ids)*k entries and ns at least len(ids);
// the call panics otherwise. With a non-nil bs the call performs no heap
// allocation at steady state over in-process shards.
//
// On a backend failure (a remote shard down mid-batch) every count in ns
// is zeroed and a typed error — satisfying
// errors.Is(err, rpc.ErrShardUnavailable) for transport failures — is
// returned: no partial results survive. A wrong-epoch redirect (a shard
// drained by a live handoff) is not surfaced: the engine refreshes its
// ownership view once and re-runs the batch with the same base, so the
// retried draws are bit-identical to what a static cluster would have
// produced.
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
	bs = bs.orNew()
	base := r.Uint64()
	set := e.bset.Load()
	total, err := e.batchVisits(set, ids, base, k, out, ns, bs)
	for retry := 0; retry < maxEpochRetries && err != nil && retryable(err) && e.refresh(set); retry++ {
		// The shard moved mid-batch, or a whole replica group was
		// unreachable and the refresh rebound it. Every count was zeroed,
		// the base is in hand and sub-streams derive from (base, entry
		// index) alone, so re-running the whole batch against the
		// refreshed view yields exactly the draws an up-to-date caller
		// would have seen.
		set = e.bset.Load()
		total, err = e.batchVisits(set, ids, base, k, out, ns, bs)
	}
	return total, err
}

// batchVisits runs one scatter-gather pass over a fixed ownership view:
// group by owning shard, visit each owning backend exactly once
// (overlapping remote visits), merge. On any visit error every count in
// ns is zeroed before the error is returned.
func (e *Engine) batchVisits(set *backendSet, ids []graph.NodeID, base uint64, k int, out []graph.NodeID, ns []int32, bs *BatchScratch) (int, error) {
	// Counting sort entry indices (and their node ids) by owning shard.
	counts, order, gids := bs.groupBufs(len(ids), len(set.groups))
	for _, id := range ids {
		counts[e.routing.Owner(id)+1]++
	}
	for s := 1; s < len(counts); s++ {
		counts[s] += counts[s-1]
	}
	for i, id := range ids {
		sh := e.routing.Owner(id)
		order[counts[sh]] = int32(i)
		gids[counts[sh]] = id
		counts[sh]++
	}

	// One visit per shard: counts[s] is now the end of shard s's group.
	// Count the remote groups to decide between the inline path and the
	// parallel fan-out.
	remoteGroups := 0
	if set.hasRemote {
		start := int32(0)
		for si := range set.groups {
			end := counts[si]
			if end > start && set.locals[si] == nil {
				remoteGroups++
			}
			start = end
		}
	}

	if remoteGroups <= 1 {
		// Sequential inline visits: the local-only steady state (zero
		// allocation, no cross-goroutine handoff) and the degenerate
		// single-remote-group case, where fan-out buys nothing. Each visit
		// fails over across its partition's replicas inside visitShard.
		total := 0
		failover := false
		start := int32(0)
		for si := range set.groups {
			end := counts[si]
			if end == start {
				continue
			}
			n, fo, err := set.visitShard(si, gids[start:end], order[start:end], base, k, out, ns)
			if err != nil {
				for i := range ids {
					ns[i] = 0
				}
				return 0, fmt.Errorf("engine: batch visit to shard %d: %w", si, err)
			}
			total += n
			failover = failover || fo
			start = end
		}
		if failover {
			e.kickRefresh(set)
		}
		return total, nil
	}

	// Parallel fan-out: put every remote group in flight before waiting on
	// any of them, so the round trips overlap. An async-capable backend
	// (BatchStarter — the RPC stub) is started directly by this goroutine:
	// the request frame goes out and control returns immediately, no
	// handoff. Any other remote backend is dispatched to the bounded
	// worker pool. Local groups run inline meanwhile, then everything is
	// collected in shard order. Each visit writes only its own entries'
	// disjoint regions of out/ns, so no synchronization beyond the
	// barrier/awaits is needed and the merged result is bit-identical to
	// the sequential path.
	visits, handles, bes := bs.visitBufs(len(set.groups))
	pooled := 0
	start := int32(0)
	for si := range set.groups {
		end := counts[si]
		if end > start && set.locals[si] == nil {
			// One replica is picked (load-aware) and charged per group per
			// batch; a failed visit is retried on the siblings at collect
			// time, after every in-flight visit has settled.
			g := set.groups[si]
			be := g[0]
			if len(g) > 1 {
				be = g[set.pick(si, g)]
			}
			bes[si] = be
			if starter, ok := be.(BatchStarter); ok {
				handles[si] = starter.StartSampleBatch(gids[start:end], order[start:end], base, k, out, ns)
			} else {
				pooled++
			}
		}
		start = end
	}
	if pooled > 0 {
		e.startFanout()
		bs.wg.Add(pooled)
		start = 0
		for si := range set.groups {
			end := counts[si]
			if end > start && set.locals[si] == nil && handles[si] == nil {
				e.fanoutCh <- visitJob{
					be:   bes[si],
					gids: gids[start:end],
					idx:  order[start:end],
					base: base,
					k:    k,
					out:  out,
					ns:   ns,
					res:  &visits[si],
					wg:   &bs.wg,
				}
			}
			start = end
		}
	}
	start = 0
	for si := range set.groups {
		end := counts[si]
		if end > start && set.locals[si] != nil {
			visits[si].n, visits[si].err = set.locals[si].SampleBatchInto(gids[start:end], order[start:end], base, k, out, ns)
		}
		start = end
	}
	// Collect every visit before acting on any error: an in-flight
	// backend may still be writing into out/ns until its await returns.
	// On-the-wire handles drain first — releasing the window capacity
	// this caller holds — then any the backend had to defer for lack of
	// a free slot (their awaits issue fresh blocking calls).
	for si, h := range handles {
		if h != nil && handleStarted(h) {
			visits[si].n, visits[si].err = h.AwaitBatch()
			handles[si] = nil // awaited handles may be recycled; drop them
		}
	}
	for si, h := range handles {
		if h != nil {
			visits[si].n, visits[si].err = h.AwaitBatch()
		}
	}
	if pooled > 0 {
		bs.wg.Wait()
	}

	// Failover sweep: a visit that died with a transport failure is redone
	// on the partition's surviving replicas (visitShard walks the full
	// rotation; the advanced cursor and the health check steer it away
	// from the replica that just failed). It runs only after every
	// in-flight visit has settled, so the redo owns its disjoint out/ns
	// regions exclusively and the merged result stays bit-identical.
	failover := false
	start = 0
	for si := range set.groups {
		end := counts[si]
		if end > start && len(set.groups[si]) > 1 && visits[si].err != nil && errors.Is(visits[si].err, ErrShardUnavailable) {
			visits[si].n, _, visits[si].err = set.visitShard(si, gids[start:end], order[start:end], base, k, out, ns)
			failover = true
		}
		start = end
	}

	total := 0
	for si := range visits {
		if err := visits[si].err; err != nil {
			for i := range ids {
				ns[i] = 0
			}
			return 0, fmt.Errorf("engine: batch visit to shard %d: %w", si, err)
		}
		total += visits[si].n
	}
	if failover {
		e.kickRefresh(set)
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
// With a non-nil bs steady-state construction performs no heap allocation
// over in-process shards. A backend failure aborts the expansion with a
// nil tree and the typed batch error — no partial tree survives.
func (e *Engine) SampleTree(ego graph.NodeID, hops, k int, r *rng.RNG, bs *BatchScratch) ([]TreeNode, error) {
	bs = bs.orNew()
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
