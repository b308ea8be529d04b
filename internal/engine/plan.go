package engine

import (
	"errors"
	"fmt"
	"time"

	"zoomer/internal/graph"
	"zoomer/internal/ingest"
)

// VisitStarter is optionally implemented by backends that can put a
// scatter-gather visit on the wire without blocking for its result (the
// RPC stub does) — the reason a call spanning every shard costs about one
// round trip: the engine starts all such visits back-to-back, serves the
// others meanwhile, then collects. Arguments are exactly SampleBatchInto's
// and ReadNodesInto's, and a started visit writes into the same disjoint
// regions. The handle must always be awaited — the backend may be writing
// into the caller's buffers until Await returns.
type VisitStarter interface {
	StartSampleBatch(gids []graph.NodeID, idx []int32, base uint64, k int, out []graph.NodeID, ns []int32) VisitHandle
	StartReadNodes(gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) VisitHandle
}

// VisitHandle is one started visit. Await blocks until it completes and
// reports it exactly as the synchronous call would (the draw count of a
// sample batch, 0 for a bulk read; a read's response is decoded into the
// block on the awaiting goroutine). Started reports whether the visit is
// on the wire: a backend that could not send without blocking (its
// connection window was full) answers false and runs the whole call
// inside Await, so the engine awaits every started handle — releasing the
// window capacity this caller holds — before those.
type VisitHandle interface {
	Started() bool
	Await() (int, error)
}

// maxVisit bounds the entries of one read or sample-batch visit: a larger
// shard group is cut into several visits (all started before any is
// awaited), which keeps every request and response frame far below the
// wire's frame limit whatever the caller passes. Shard servers reject bulk
// reads above the same bound. An append visit is never cut: one owner's
// edges are one record under one sequence number.
const maxVisit = 4096

// visit is one (shard, entry range) unit of a multi-shard call.
type visit struct {
	shard  int
	lo, hi int32       // range within the plan's grouped gids/idx arrays
	h      VisitHandle // non-nil while a started visit awaits collection
	async  bool        // went through a VisitStarter: failover is still owed
	n      int
	err    error
}

// visitPlan holds the grouping arrays and visit list of one multi-shard
// call. SampleNeighborsBatchInto keeps one in the caller's BatchScratch,
// TryReadNodes and Append take one from the engine's pool; either way the
// plan allocates nothing at steady state.
type visitPlan struct {
	counts []int32
	idx    []int32        // entry indices, reordered by owning shard
	gids   []graph.NodeID // entry node ids, likewise
	visits []visit
}

// payload is what the visits of one call carry — the only thing the three
// scatter-gather operations differ in: a sample batch draws into out/ns
// from sub-streams keyed by (base, entry index); a bulk read (into != nil)
// fills the entries of a graph.NodeBlock; an append (edges != nil) hands
// each visit's edges, in batch order, to the partition's AppendEdges.
type payload struct {
	base uint64
	k    int
	out  []graph.NodeID
	ns   []int32

	fields graph.ReadFields
	into   *graph.NodeBlock

	edges []ingest.Edge
}

func (c *payload) op() string {
	switch {
	case c.into != nil:
		return "bulk read"
	case c.edges != nil:
		return "append"
	}
	return "batch"
}

// run serves one visit inline; its count is a batch's draws or an
// append's edges (ignored on error).
func (c *payload) run(be ShardBackend, gids []graph.NodeID, idx []int32) (int, error) {
	switch {
	case c.into != nil:
		return 0, be.ReadNodesInto(gids, idx, c.fields, c.into)
	case c.edges != nil:
		batch := make([]ingest.Edge, len(idx))
		for j, i := range idx {
			batch[j] = c.edges[i]
		}
		_, err := be.AppendEdges(batch)
		return len(batch), err
	}
	return be.SampleBatchInto(gids, idx, c.base, c.k, c.out, c.ns)
}

func (c *payload) start(st VisitStarter, gids []graph.NodeID, idx []int32) VisitHandle {
	if c.into != nil {
		return st.StartReadNodes(gids, idx, c.fields, c.into)
	}
	return st.StartSampleBatch(gids, idx, c.base, c.k, c.out, c.ns)
}

// scatter runs one multi-shard call: ids are grouped by owning shard and
// cut into visits, every visit runs against the current ownership view,
// and a visit that failed retryably (the shard moved under a handoff, or
// its whole replica group was dark) triggers one ownership refresh and is
// re-run alone against the new view — visits that succeeded are never
// repeated. Each visit writes only its own entries' position-addressed
// regions, so the merged result does not depend on grouping, dispatch
// order, topology or how many views the call chased. It returns the
// summed counts of the visits that succeeded, on error too (an append's
// are the edges that landed); on error a batch's or a read's buffers are
// unspecified.
func (e *Engine) scatter(p *visitPlan, ids []graph.NodeID, c *payload) (int, error) {
	cut := int32(maxVisit)
	if c.edges != nil {
		cut = int32(len(ids)) // never cut an append: one owner, one record
	}
	e.group(p, ids, cut)
	set := e.bset.Load()
	pending, total := p.visits, 0
	for retry := 0; ; retry++ {
		failover := set.visit(p, pending, c)
		failed, err := pending[:0], error(nil)
		for _, v := range pending {
			switch {
			case v.err == nil:
				total += v.n
			case retryable(v.err):
				failed = append(failed, v)
			case err == nil: // the first failure that no refresh can cure
				err = fmt.Errorf("engine: %s visit to shard %d: %w", c.op(), v.shard, v.err)
			}
		}
		switch {
		case err != nil:
			return total, err
		case len(failed) == 0:
			if failover {
				e.kickRefresh(set)
			}
			return total, nil
		case retry == maxEpochRetries || !e.refresh(set):
			return total, fmt.Errorf("engine: %s visit to shard %d: %w", c.op(), failed[0].shard, failed[0].err)
		}
		set = e.bset.Load()
		pending = failed
	}
}

// group counting-sorts ids by owning shard into p.gids (with each id's
// original index in p.idx, ascending within a group) and cuts the groups
// into visits of at most cut entries.
func (e *Engine) group(p *visitPlan, ids []graph.NodeID, cut int32) {
	shards := e.routing.NumShards()
	if cap(p.counts) < shards+1 {
		p.counts = make([]int32, shards+1)
	}
	counts := p.counts[:shards+1]
	clear(counts)
	if cap(p.idx) < len(ids) {
		p.idx = make([]int32, len(ids))
		p.gids = make([]graph.NodeID, len(ids))
	}
	idx, gids := p.idx[:len(ids)], p.gids[:len(ids)]
	for _, id := range ids {
		counts[e.routing.Owner(id)+1]++
	}
	for s := 1; s <= shards; s++ {
		counts[s] += counts[s-1]
	}
	for i, id := range ids {
		sh := e.routing.Owner(id)
		idx[counts[sh]] = int32(i)
		gids[counts[sh]] = id
		counts[sh]++
	}
	// counts[s] is now the end of shard s's group.
	p.visits = p.visits[:0]
	start := int32(0)
	for si := 0; si < shards; si++ {
		for lo := start; lo < counts[si]; lo += cut {
			p.visits = append(p.visits, visit{shard: si, lo: lo, hi: min(lo+cut, counts[si])})
		}
		start = counts[si]
	}
}

// visit runs the given visits against one ownership view, leaving each
// visit's outcome in its n and err fields, and reports whether any visit
// succeeded only by failing over to a sibling replica. A view of
// in-process shards touches no handle.
func (set *backendSet) visit(p *visitPlan, visits []visit, c *payload) (failover bool) {
	// Put every visit that can go out without blocking on the wire, one
	// replica picked (load-aware) per visit. An append is never started.
	started := 0
	for i := range visits {
		v := &visits[i]
		v.h, v.async, v.n, v.err = nil, false, 0, nil
		if set.locals[v.shard] != nil || c.edges != nil {
			continue
		}
		g := set.groups[v.shard]
		be := g[0]
		if len(g) > 1 {
			be = g[set.pick(v.shard, g)]
		}
		if st, ok := be.(VisitStarter); ok {
			v.h, v.async = c.start(st, p.gids[v.lo:v.hi], p.idx[v.lo:v.hi]), true
			started++
		}
	}
	// In-process shards, appends and backends that cannot start are
	// visited inline in shard order while the started visits are in flight.
	for i := range visits {
		if v := &visits[i]; !v.async {
			failover = set.serve(p, v, c) || failover
		}
	}
	if started == 0 {
		return failover
	}
	// Collect every handle before acting on any error — a started backend
	// may be writing into the payload until its await returns. On-the-wire
	// handles first (releasing the window slots this caller holds), then
	// the ones the backend deferred, whose awaits issue fresh blocking
	// calls.
	for _, onWire := range [2]bool{true, false} {
		for i := range visits {
			if v := &visits[i]; v.h != nil && v.h.Started() == onWire {
				v.n, v.err = v.h.Await()
				v.h = nil // an awaited handle may be recycled by its backend
			}
		}
	}
	// A started visit that died with a transport failure is redone on the
	// partition's surviving replicas (the advanced cursor and the health
	// check steer the walk away from the one that just failed) — only now,
	// when this caller holds no window slot a blocking call could be
	// waiting on and the redo owns its regions exclusively.
	for i := range visits {
		v := &visits[i]
		if v.async && v.err != nil && len(set.groups[v.shard]) > 1 && errors.Is(v.err, ErrShardUnavailable) {
			set.serve(p, v, c)
			failover = failover || v.err == nil
		}
	}
	return failover
}

// serve runs one visit synchronously against its partition — the picked
// replica first, then each sibling while it fails at the transport level
// (a single in-process shard is simply called).
func (set *backendSet) serve(p *visitPlan, v *visit, c *payload) (failover bool) {
	failover, v.err = set.walk(v.shard, time.Time{}, func(be ShardBackend) (err error) {
		v.n, err = c.run(be, p.gids[v.lo:v.hi], p.idx[v.lo:v.hi])
		return err
	})
	return failover
}
