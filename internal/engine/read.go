package engine

import (
	"errors"
	"fmt"

	"zoomer/internal/graph"
)

// ReadStarter is optionally implemented by backends that can put a bulk
// node read on the wire without blocking for its result — BatchStarter's
// sibling for ReadNodesInto, and the reason a bulk read spanning every
// shard costs about one round trip: the engine starts all remote visits
// back-to-back, serves the local ones meanwhile, then collects. Arguments
// are exactly ReadNodesInto's. The handle must always be awaited; the
// response is decoded into the block by AwaitRead, on the awaiting
// goroutine.
type ReadStarter interface {
	StartReadNodes(gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) ReadHandle
}

// ReadHandle is one started bulk-read visit. AwaitRead reports it exactly
// as ReadNodesInto would; like a BatchHandle it may report Started()
// false, in which case AwaitRead issues the whole call synchronously and
// the engine awaits it after the handles that are on the wire.
type ReadHandle interface {
	AwaitRead() error
}

// maxReadVisit bounds the ids of one bulk-read visit: a larger shard
// group is split into several visits (all started before any is
// awaited), which keeps every request and response frame far below the
// wire's frame limit whatever the caller passes. Shard servers reject
// requests above the same bound.
const maxReadVisit = 4096

// readVisit is one (shard, id range) unit of a bulk read.
type readVisit struct {
	shard  int
	lo, hi int32      // range within the grouped gids/pos arrays
	h      ReadHandle // non-nil while a started visit awaits collection
	async  bool       // went through a ReadStarter: failover is still owed
	err    error
}

// readScratch holds the grouping arrays and visit list of one bulk read;
// pooled on the engine so ReadNodes allocates nothing at steady state.
type readScratch struct {
	counts []int32
	pos    []int32
	gids   []graph.NodeID
	visits []readVisit
}

// ReadNodesInto serves one bulk-read visit from the in-process store:
// views of the partition's own arrays, no copies (a node with appended
// edges gets a combined adjacency copy, as Neighbors does). The visit is
// charged the group size.
func (s *Shard) ReadNodesInto(gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) error {
	s.requests.Add(int64(len(gids)))
	for j, id := range gids {
		i := j
		if pos != nil {
			i = int(pos[j])
		}
		if fields&graph.ReadNeighbors != 0 {
			into.Neighbors[i] = s.Neighbors(id)
		}
		if fields&graph.ReadFeatures != 0 {
			into.Features[i] = s.Features(id)
		}
		if fields&graph.ReadContent != 0 {
			into.Content[i] = s.Content(id)
		}
	}
	return nil
}

// readNodesShard runs one bulk-read visit against partition si, failing
// over across its replicas.
func (set *backendSet) readNodesShard(si int, gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) (failover bool, err error) {
	return set.walk(si, func(be ShardBackend) error { return be.ReadNodesInto(gids, pos, fields, into) })
}

// ReadNodes implements sampling.GraphView's bulk read on the error-free
// surface: like Neighbors it panics when a remote backend fails for good.
func (e *Engine) ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) {
	must(e.TryReadNodes(ids, fields, into))
}

// TryReadNodes fills into with the requested attributes of ids — entry i
// of each requested column belongs to ids[i] — and surfaces backend
// failures as typed errors.
//
// This is the scatter-gather of the attribute reads: ids are grouped by
// owning shard (groups above maxReadVisit split), every remote visit is
// started before any is awaited so they overlap on the multiplexed
// connections, local visits fill the block with zero-copy views
// meanwhile, and responses are decoded into the block's arenas on this
// goroutine as they are collected. Each visit writes only its own
// position-addressed entries, so the result does not depend on grouping,
// dispatch order or topology.
//
// Failures are handled per visit: a transport failure moves that visit to
// the partition's sibling replicas; a visit that still failed retryably
// (the shard moved under a handoff, or its whole replica group was dark)
// triggers one ownership refresh and is re-run alone against the new
// view — visits that succeeded are never repeated. On error the block's
// contents are unspecified.
func (e *Engine) TryReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) error {
	into.Resize(len(ids), fields)
	if len(ids) == 0 || fields == 0 {
		return nil
	}
	rs, _ := e.readPool.Get().(*readScratch)
	if rs == nil {
		rs = &readScratch{}
	}
	defer e.readPool.Put(rs)
	e.groupReads(rs, ids)

	set := e.bset.Load()
	pending := rs.visits
	for retry := 0; ; retry++ {
		failover := e.readVisits(set, rs, pending, fields, into)
		failed := pending[:0]
		for _, v := range pending {
			if v.err == nil {
				continue
			}
			if !retryable(v.err) {
				return fmt.Errorf("engine: bulk read visit to shard %d: %w", v.shard, v.err)
			}
			failed = append(failed, v)
		}
		if len(failed) == 0 {
			if failover {
				e.kickRefresh(set)
			}
			return nil
		}
		if retry == maxEpochRetries || !e.refresh(set) {
			return fmt.Errorf("engine: bulk read visit to shard %d: %w", failed[0].shard, failed[0].err)
		}
		set = e.bset.Load()
		pending = failed
	}
}

// groupReads counting-sorts ids by owning shard into rs.gids (with each
// id's original index in rs.pos) and cuts the groups into visits.
func (e *Engine) groupReads(rs *readScratch, ids []graph.NodeID) {
	shards := e.routing.NumShards()
	if cap(rs.counts) < shards+1 {
		rs.counts = make([]int32, shards+1)
	}
	counts := rs.counts[:shards+1]
	clear(counts)
	if cap(rs.pos) < len(ids) {
		rs.pos = make([]int32, len(ids))
		rs.gids = make([]graph.NodeID, len(ids))
	}
	pos, gids := rs.pos[:len(ids)], rs.gids[:len(ids)]
	for _, id := range ids {
		counts[e.routing.Owner(id)+1]++
	}
	for s := 1; s <= shards; s++ {
		counts[s] += counts[s-1]
	}
	for i, id := range ids {
		sh := e.routing.Owner(id)
		pos[counts[sh]] = int32(i)
		gids[counts[sh]] = id
		counts[sh]++
	}
	// counts[s] is now the end of shard s's group.
	rs.visits = rs.visits[:0]
	start := int32(0)
	for si := 0; si < shards; si++ {
		for lo := start; lo < counts[si]; lo += maxReadVisit {
			rs.visits = append(rs.visits, readVisit{shard: si, lo: lo, hi: min(lo+maxReadVisit, counts[si])})
		}
		start = counts[si]
	}
}

// readVisits runs the given visits against one ownership view, leaving
// each visit's outcome in its err field, and reports whether any visit
// succeeded only by failing over to a sibling replica.
func (e *Engine) readVisits(set *backendSet, rs *readScratch, visits []readVisit, fields graph.ReadFields, into *graph.NodeBlock) (failover bool) {
	// Put every visit that can go out without blocking on the wire.
	for i := range visits {
		v := &visits[i]
		v.h, v.async, v.err = nil, false, nil
		if set.locals[v.shard] != nil {
			continue
		}
		g := set.groups[v.shard]
		be := g[0]
		if len(g) > 1 {
			be = g[set.pick(v.shard, g)]
		}
		if st, ok := be.(ReadStarter); ok {
			v.h, v.async = st.StartReadNodes(rs.gids[v.lo:v.hi], rs.pos[v.lo:v.hi], fields, into), true
		}
	}
	// Local stores, and remote backends without the async seam, are read
	// inline while the started visits are in flight.
	for i := range visits {
		v := &visits[i]
		if !v.async {
			var fo bool
			fo, v.err = set.readNodesShard(v.shard, rs.gids[v.lo:v.hi], rs.pos[v.lo:v.hi], fields, into)
			failover = failover || fo
		}
	}
	// Collect: on-the-wire handles first (releasing the window slots this
	// caller holds), then the ones the backend deferred, whose awaits
	// issue fresh blocking calls.
	for _, started := range [2]bool{true, false} {
		for i := range visits {
			if v := &visits[i]; v.h != nil && handleStarted(v.h) == started {
				v.err = v.h.AwaitRead()
				v.h = nil
			}
		}
	}
	// A started visit that died with a transport failure is redone on the
	// partition's surviving replicas — only now, when this caller holds no
	// window slots a blocking call could be waiting on.
	for i := range visits {
		v := &visits[i]
		if v.async && v.err != nil && len(set.groups[v.shard]) > 1 && errors.Is(v.err, ErrShardUnavailable) {
			_, v.err = set.readNodesShard(v.shard, rs.gids[v.lo:v.hi], rs.pos[v.lo:v.hi], fields, into)
			failover = failover || v.err == nil
		}
	}
	return failover
}
