package rpc

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/partition"
)

// defaultPollTimeout bounds each server's ownership poll inside Refresh
// independently of the per-call Timeout, so one stalled server delays
// the whole refresh by at most this much.
const defaultPollTimeout = 2 * time.Second

// Cluster is a set of shard-server clients assembled into a remote
// Engine: the routing table is fetched from the first server, every
// partition is bound to the stubs of the servers claiming it (its
// replica group), and the resulting Engine routes exactly as an
// in-process one — fanning reads across the group and failing over when
// a replica dies.
//
// The binding is live: the Engine is assembled with a RefreshFunc that
// calls Refresh, so when a shard server drains a partition (a planned
// handoff driven by the reassign op) or a replica dies, the first
// redirected or failed-over call re-resolves ownership across the
// cluster's servers and the engine retries — no restart, no error
// surfaced to callers. Membership is dynamic, and it has one surface:
// every refresh polls routing-epoch on each known server, and the member
// view in each reply names the servers that one knows. Addresses not yet
// dialed are validated and adopted within the same refresh, so ownership
// may move to — and replicas may appear on — servers that joined after
// the cluster was dialed.
type Cluster struct {
	Engine *engine.Engine
	Info   Info // shape handshake from the first server

	cfg         ClientConfig
	pollTimeout time.Duration // per-server Refresh poll bound (defaultPollTimeout)

	mu      sync.Mutex
	clients []*client
	byAddr  map[string]int           // dialed address → clients index
	pending map[string]struct{}      // discovered addresses awaiting validation
	failed  map[string]time.Time     // addresses whose adoption probe failed, by when
	stubs   map[stubKey]*RemoteShard // reused across refreshes to keep counters

	refreshMu sync.Mutex // serializes poll→install so a stale view never overwrites a fresher one
}

// stubKey identifies one (server, partition) stub.
type stubKey struct{ server, shard int }

// stub returns the cached stub binding one partition to one server's
// client, creating it on first use. Reuse keeps the client-side request
// counters monotone across ownership swaps.
func (c *Cluster) stub(server int, sh ShardInfo) *RemoteShard {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := stubKey{server: server, shard: sh.ID}
	rs := c.stubs[key]
	if rs == nil {
		rs = newRemoteShard(c.clients[server], sh.ID, sh.Nodes)
		c.stubs[key] = rs
	}
	return rs
}

// noteMembers records server addresses from a routing-epoch poll's
// member view for validation within the same refresh. An address whose
// probe failed less than breakerDecay ago is not noted again, so a bogus
// member costs one probe per decay, not one per discover round.
func (c *Cluster) noteMembers(addrs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range addrs {
		if a == "" || len(a) > 256 || len(c.pending)+len(c.clients) >= maxMembers {
			continue
		}
		if _, ok := c.byAddr[a]; ok {
			continue
		}
		if at, ok := c.failed[a]; ok && time.Since(at) < breakerDecay {
			continue
		}
		c.pending[a] = struct{}{}
	}
}

// addClient installs a validated server address as a full cluster
// member and returns its client index.
func (c *Cluster) addClient(addr string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.byAddr[addr]; ok {
		return i
	}
	c.clients = append(c.clients, newClient(addr, c.cfg))
	c.byAddr[addr] = len(c.clients) - 1
	return len(c.clients) - 1
}

// snapshotClients returns the current client list (append-only, so the
// prefix stays valid) for a lock-free poll loop.
func (c *Cluster) snapshotClients() []*client {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clients[:len(c.clients):len(c.clients)]
}

// adoptPending validates every noted address with a short-deadline
// probe — reachability plus the graph-shape handshake — and adopts the
// ones that check out. The probes run concurrently under one
// pollTimeout. Unreachable or mismatched addresses are logged and
// dropped (a member view naming a bogus server must not poison the
// cluster); they re-enter pending if discovered again after
// breakerDecay.
func (c *Cluster) adoptPending() {
	c.mu.Lock()
	maps.DeleteFunc(c.failed, func(_ string, at time.Time) bool { return time.Since(at) >= breakerDecay })
	pend := make([]string, 0, len(c.pending))
	for a := range c.pending {
		pend = append(pend, a)
	}
	c.pending = make(map[string]struct{})
	c.mu.Unlock()
	if len(pend) == 0 {
		return
	}
	sort.Strings(pend) // deterministic adoption → deterministic client order
	errs := within(len(pend), c.pollTimeout, func(i int) error {
		probe := newClient(pend[i], ClientConfig{conns: 1, Timeout: c.pollTimeout})
		defer probe.Close()
		info, err := probe.Info()
		if err == nil {
			err = c.Info.sameGraph(info)
		}
		return err
	}, func(int) error { return fmt.Errorf("probe timed out after %v", c.pollTimeout) })
	for i, addr := range pend {
		if errs[i] == nil {
			c.addClient(addr)
			continue
		}
		logf("rpc: cluster: dropping discovered member %s: %v", addr, errs[i])
		c.mu.Lock()
		c.failed[addr] = time.Now()
		c.mu.Unlock()
	}
}

// pollRes is one server's ownership-poll outcome.
type pollRes struct {
	owned   []ShardInfo
	members []string
	err     error
}

// within runs fn(i) for every i in [0, n) concurrently and returns the
// results in index order, waiting at most d: a slot that has not
// answered by then reports late(i), and its goroutine finishes (and is
// discarded) in the background, writing only its private channel.
func within[T any](n int, d time.Duration, fn, late func(i int) T) []T {
	results := make([]T, n)
	answered := make([]bool, n)
	type landed struct {
		i int
		r T
	}
	ch := make(chan landed, n)
	for i := 0; i < n; i++ {
		go func(i int) { ch <- landed{i, fn(i)} }(i)
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	for got := 0; got < n; got++ {
		select {
		case l := <-ch:
			results[l.i], answered[l.i] = l.r, true
		case <-timer.C:
			for i := range results {
				if !answered[i] {
					results[i] = late(i)
				}
			}
			return results
		}
	}
	return results
}

// pollServers polls every client's routing epoch concurrently, each
// bounded by pollTimeout independently of the call Timeout: one dead or
// stalled server costs the refresh at most pollTimeout, never a hang.
func (c *Cluster) pollServers(clients []*client) []pollRes {
	return within(len(clients), c.pollTimeout, func(i int) (r pollRes) {
		_, r.owned, r.members, r.err = clients[i].routingEpoch()
		return r
	}, func(i int) pollRes {
		return pollRes{err: fmt.Errorf("%w: %s: ownership poll timed out after %v",
			ErrShardUnavailable, clients[i].Addr(), c.pollTimeout)}
	})
}

// refresh re-resolves which servers own each partition by polling every
// client's routing epoch, and installs the new replica binding into the
// engine. Every reachable claimant of a partition joins its replica
// group (client order, so the first claimant stays the deterministic
// primary); a server that cannot be reached — or times out, bounded
// per-server — keeps nothing bound, is logged and skipped. A partition
// nobody currently claims keeps its existing binding (a server
// mid-restart will either come back owning it or the next redirect will
// refresh again). Member views collected during the poll feed dynamic
// membership: newly discovered servers are validated, adopted and
// polled within the same refresh, so a redirect to a server the engine
// has never dialed still resolves in one refresh cycle. The engine
// single-flights calls here through its RefreshFunc seam; calling it
// directly (e.g. on an operator's schedule) is also safe — refreshes
// serialize, so an install always reflects a poll at least as recent as
// the one it replaces.
func (c *Cluster) refresh() error {
	c.refreshMu.Lock()
	defer c.refreshMu.Unlock()
	nshards := c.Info.NumShards

	// Bounded discover→poll rounds: a poll can surface new members whose
	// ownership matters for this very refresh (the partition moved to a
	// server we had never dialed), so adoption loops until the member set
	// is stable — at most three rounds, then we bind what we have.
	var clients []*client
	var polls []pollRes
	for round := 0; ; round++ {
		c.adoptPending()
		clients = c.snapshotClients()
		polls = c.pollServers(clients)
		for si := range polls {
			if polls[si].err == nil {
				c.noteMembers(polls[si].members)
			}
		}
		c.mu.Lock()
		stable := len(c.pending) == 0
		c.mu.Unlock()
		if stable || round >= 2 {
			break
		}
	}

	// Bind every reachable claimant, in client order so the primary
	// (groups[id][0]) stays deterministic.
	groups := make([][]engine.ShardBackend, nshards)
	var firstErr error
	reached := 0
	for si := range polls {
		if err := polls[si].err; err != nil {
			if firstErr == nil {
				firstErr = err
			}
			logf("rpc: cluster: refresh skipping %s: %v", clients[si].Addr(), err)
			continue
		}
		reached++
		for _, sh := range polls[si].owned {
			if sh.ID < 0 || sh.ID >= nshards {
				return fmt.Errorf("rpc: %s claims shard %d of %d", clients[si].Addr(), sh.ID, nshards)
			}
			groups[sh.ID] = append(groups[sh.ID], c.stub(si, sh))
		}
	}
	if reached == 0 {
		return fmt.Errorf("rpc: routing refresh: no shard server reachable: %w", firstErr)
	}
	for id := range groups {
		if groups[id] == nil {
			groups[id] = c.Engine.ReplicaSet(id)
		}
	}
	c.Engine.InstallReplicaSets(groups)
	return nil
}

// DialClusterWith connects to the given shard servers with the pool
// bounds of cfg (zero fields take the defaults) and assembles the remote
// engine. Every partition must be owned by at least one reachable server; every
// claimant joins the partition's replica group (dial order, so the
// first claimant is the primary). The assembled engine re-resolves
// ownership automatically when a partition later moves — including to
// servers that joined the cluster after this call, which the first
// refresh learns from the routing-epoch poll (see Cluster).
func DialClusterWith(cfg ClientConfig, addrs ...string) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("rpc: no shard server addresses")
	}
	cluster := &Cluster{
		cfg:         cfg,
		pollTimeout: defaultPollTimeout,
		byAddr:      make(map[string]int),
		pending:     make(map[string]struct{}),
		failed:      make(map[string]time.Time),
		stubs:       make(map[stubKey]*RemoteShard),
	}
	fail := func(err error) (*Cluster, error) {
		cluster.Close()
		return nil, err
	}
	var groups [][]engine.ShardBackend
	var routing *partition.Routing
	for i, addr := range addrs {
		cl := newClient(addr, cfg)
		cluster.clients = append(cluster.clients, cl)
		cluster.byAddr[addr] = i
		info, err := cl.Info()
		if err != nil {
			return fail(fmt.Errorf("rpc: handshake with %s: %w", addr, err))
		}
		if i == 0 {
			cluster.Info = info
			routing, err = cl.Routing()
			if err != nil {
				return fail(fmt.Errorf("rpc: routing from %s: %w", addr, err))
			}
			groups = make([][]engine.ShardBackend, info.NumShards)
		} else if err := cluster.Info.sameGraph(info); err != nil {
			return fail(fmt.Errorf("rpc: %s %w", addr, err))
		}
		for _, sh := range info.Owned {
			if sh.ID < 0 || sh.ID >= len(groups) {
				return fail(fmt.Errorf("rpc: %s claims shard %d of %d", addr, sh.ID, len(groups)))
			}
			groups[sh.ID] = append(groups[sh.ID], cluster.stub(i, sh))
		}
	}
	for id, g := range groups {
		if len(g) == 0 {
			return fail(fmt.Errorf("rpc: no server owns shard %d", id))
		}
	}
	cluster.Engine = engine.NewWithReplicaSets(routing, groups, cluster.Info.ContentDim)
	cluster.Engine.SetRefresh(cluster.refresh)
	return cluster, nil
}

// IngestStats polls every cluster member's routing epoch and returns one
// write-path row per shard — from its first reachable claimant, in shard
// order. Unreachable servers are skipped (their shards report through
// replicas when any). This live poll is the only way remote ingest rows
// are read.
func (c *Cluster) IngestStats() []engine.IngestStats {
	clients := c.snapshotClients()
	polls := c.pollServers(clients)
	byShard := make(map[int]engine.IngestStats)
	for si := range polls {
		if polls[si].err != nil {
			continue
		}
		for _, sh := range polls[si].owned {
			if sh.Ingest == nil {
				continue
			}
			if _, ok := byShard[sh.ID]; !ok {
				byShard[sh.ID] = *sh.Ingest
			}
		}
	}
	out := make([]engine.IngestStats, 0, len(byShard))
	for _, st := range byShard {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// Close closes every client in the cluster.
func (c *Cluster) Close() error {
	for _, cl := range c.snapshotClients() {
		cl.Close()
	}
	return nil
}
