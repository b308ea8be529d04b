// Package engine is the distributed graph engine of §VI (the Euler
// stand-in): a partitioned, replicated graph store. The graph is split by
// internal/partition into disjoint per-shard CSR slices; each shard owns
// its partition's offsets, edges, feature/content rows and per-adjacency
// alias tables (built in parallel at New), and serves reads only for the
// nodes it owns.
//
// The Engine itself is the routing layer: a single-node call is directed
// to the owning shard with one arithmetic or array-index lookup, and
// multi-node calls (cache refresh batches, SampleTree frontiers, bulk
// attribute reads, edge appends) are scatter-gathered by one visit plan
// (plan.go): group by owner, one visit per owning shard, read visits that
// can start overlapped on the wire, the rest (appends among them) served
// inline, failures retried per visit. The Engine holds every partition as
// a replica group of stores behind the ShardBackend interface — the seam
// where an RPC-backed shard plugs in (internal/rpc.RemoteShard):
// NewWithReplicaSets accepts any mix of local *Shards and remote stubs,
// and each per-shard visit maps onto exactly one RPC round trip. The
// engine starts no goroutine on a call path and owns nothing that needs
// closing.
//
// The hot path is lock- and allocation-free: routing is O(1) arithmetic,
// every shard's alias arrays are immutable after New and read without
// locks, and SampleNeighborsInto / SampleNeighborsBatchInto write into
// caller-owned buffers. Shards either live in-process (the single-box
// benchmarks) or on separate shard servers over TCP, exactly as in the
// paper's deployment.
//
// Shard ownership is dynamic: the Engine publishes its per-shard
// backends as an immutable set behind an atomic, epoch-checked pointer,
// so a live handoff (a partition migrating between shard servers) swaps
// the set with InstallReplicaSets while the hot path keeps reading it with
// a single load. In-flight calls complete against the set they loaded;
// a call that lands on a drained shard gets the typed ErrWrongEpoch
// redirect, which triggers the installed RefreshFunc once and a bounded
// retry — handoffs never surface to callers (see docs/ARCHITECTURE.md).
//
// Error contract: batch calls (SampleNeighborsBatchInto, SampleTree),
// TrySampleNeighborsIntoBy and TryReadNodes return transport failures as
// typed errors with no partial-result corruption. The error-free surface
// (Neighbors, Features, Content, ReadNodes, SampleNeighborsInto) panics
// on a remote transport failure with an error that wraps the typed one,
// so a recovered value still satisfies errors.Is(v.(error),
// ErrShardUnavailable) — it exists for in-process use and for healthy
// clusters; fault-tolerant callers go through the error-returning calls.
package engine

import (
	"errors"
	"fmt"

	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"zoomer/internal/ingest"

	"zoomer/internal/graph"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// ErrWrongEpoch is the typed redirect a backend returns when a request
// lands on a server that has drained the partition (or never owned it):
// the caller's shard-ownership view is stale. The engine reacts by
// running its installed RefreshFunc once and retrying the call against
// the refreshed backends, so a planned shard handoff never surfaces to
// callers; backends wrap this error (check with errors.Is).
var ErrWrongEpoch = errors.New("engine: shard ownership moved (stale routing epoch)")

// ErrShardUnavailable is the typed transport failure a backend returns
// when its store could not be reached at all: the server is down, the
// connection died mid-call, or the client-side failure circuit refused
// the call. It lives here (rather than in the RPC package that produces
// it) because the routing layer's failover policy keys on it: a
// transport failure moves the call to the next replica of the partition,
// while every other error passes through untouched. internal/rpc aliases
// it as rpc.ErrShardUnavailable; check with errors.Is at any layer.
var ErrShardUnavailable = errors.New("shard unavailable (transport failure)")

// ErrDeadlineExceeded is the typed per-call deadline failure: the
// caller's budget for this request ran out before (or while) the owning
// shard answered. It is not a transport failure — the shard may be
// perfectly healthy — so it neither trips the client health circuit nor
// triggers replica failover or an ownership refresh: the deadline bounds
// the whole call, and the only correct reaction is to stop spending on
// it. The serving tier's admission control keys on this sentinel to
// degrade a request (cache-only answer, typed HTTP 504) instead of
// queueing into collapse; check with errors.Is at any layer.
var ErrDeadlineExceeded = errors.New("engine: per-call deadline exceeded")

// ErrNoReplicas is the zero-healthy-replicas condition: every replica of
// one partition failed at the transport level in a single call, so the
// partition is effectively down. Errors matching it also match
// ErrShardUnavailable (through the last transport failure they wrap), so
// existing availability checks keep firing; the extra identity lets
// operators distinguish "one replica died and failover absorbed it"
// (never surfaced) from "the whole partition is dark" (surfaced, typed).
var ErrNoReplicas = errors.New("engine: no healthy replica for shard")

// replicasExhaustedError reports that every replica of a partition
// failed under one call. It matches ErrNoReplicas via Is and unwraps to
// the last transport failure, so errors.Is sees both identities.
type replicasExhaustedError struct {
	shard    int
	replicas int
	last     error
}

func (e *replicasExhaustedError) Error() string {
	return fmt.Sprintf("engine: shard %d: all %d replicas unavailable: %v", e.shard, e.replicas, e.last)
}
func (e *replicasExhaustedError) Is(target error) bool { return target == ErrNoReplicas }
func (e *replicasExhaustedError) Unwrap() error        { return e.last }

// retryable reports whether a failed call should refresh the ownership
// view and retry: the shard moved under a live handoff (wrong epoch), or
// its replicas are all unreachable — in which case a refresh may rebind
// the partition to servers that joined the cluster since this view was
// installed (dynamic membership), absorbing a full replica-set loss the
// same way a handoff is absorbed.
func retryable(err error) bool {
	return errors.Is(err, ErrWrongEpoch) || errors.Is(err, ErrShardUnavailable)
}

// ShardBackend is one partition's store as the routing layer sees it —
// the in-process *Shard over its partition's arrays (which never fails)
// or an RPC stub over the wire (which can): the single-sample read, and
// the two group calls the scatter-gather paths issue once per owning
// shard, each of which an RPC backend serves in one round trip.
//
// SampleIntoBy fills out with weighted neighbor draws of id from r's
// stream and returns len(out), or 0 for an isolated node. deadline bounds
// the call (zero: unbounded): a backend that can block shrinks its I/O
// budget to what is left and fails with ErrDeadlineExceeded once it is
// spent. Any failure reports 0 draws and must not consume r.
//
// SampleBatchInto's contract: entry j is node gids[j] at global batch
// index idx[j]; its k draws go to out[idx[j]*k:(idx[j]+1)*k] and its
// count (k, or 0 for an isolated node) to ns[idx[j]], drawing from the
// sub-stream derived from (base, idx[j]) so results are bit-identical
// however entries are grouped. On error the backend's writes to out/ns
// are unspecified; the Engine re-zeroes ns before surfacing the error.
//
// ReadNodesInto is the group call of the attribute reads — one per owning
// shard per Engine.ReadNodes, one round trip over an RPC backend: the
// requested attributes of node gids[j] go to entry pos[j] of into's
// columns (entry j when pos is nil), which the caller has sized. A
// backend that copies carves the copies from into's arenas.
type ShardBackend interface {
	SampleIntoBy(id graph.NodeID, out []graph.NodeID, r *rng.RNG, deadline time.Time) (int, error)
	SampleBatchInto(gids []graph.NodeID, idx []int32, base uint64, k int, out []graph.NodeID, ns []int32) (int, error)
	ReadNodesInto(gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) error
}

// BackendStats is optionally implemented by backends that can report
// their served-request count and partition size (the in-process Shard
// does, and remote stubs do from their client-side counter and the server
// handshake); Stats folds these into its per-shard view.
type BackendStats interface {
	Requests() int64
	ShardSize() (nodes, edges int)
}

// HealthReporter is optionally implemented by backends that track their
// transport health (the RPC stub does, from its client's consecutive-
// failure circuit). The replica pick consults it so steady-state traffic
// flows around a replica whose circuit is open instead of paying a
// failed attempt per call; a backend without the facet is always
// considered healthy. When every replica of a group reports unhealthy
// the pick falls through to the rotation slot unchanged, so the circuit's
// single-probe recovery path still sees traffic.
type HealthReporter interface{ Healthy() bool }

var (
	_ ShardBackend = (*Shard)(nil)
	_ BackendStats = (*Shard)(nil)
)

// Config sizes the engine.
type Config struct {
	Shards   int                // graph partitions
	Strategy partition.Strategy // node-to-shard assignment
	// Locality renumbers each shard's rows in BFS order over its induced
	// subgraph (partition.Options.Locality) so co-sampled adjacencies sit
	// in adjacent CSR and alias rows. Draw-for-draw identical to the
	// ascending-id layout — only memory order changes.
	Locality bool
}

// DefaultConfig mirrors a small production deployment.
func DefaultConfig() Config {
	return Config{Shards: 4, Strategy: partition.Hash, Locality: true}
}

// backendSet is one immutable view of shard ownership: which stores
// serve each partition right now. Every partition has a replica group —
// one or more interchangeable backends at the same epoch (N-way server
// replication; any of them serves a read bit-identically, because draws
// happen shard-side from request-carried state). The Engine publishes
// the set behind an atomic pointer so the hot path reads it with a
// single load — no lock — and a live handoff installs a whole new set in
// one store. A caller that loaded a set keeps using it for the duration
// of its call: in-flight batches complete against the backends they
// started on, and only the next call observes the swap.
//
// The per-partition cursors are the only mutable state: rotation
// counters for the load-aware replica pick, deliberately inside the set
// (not the Engine) so a pick never dereferences a group from one view
// with a cursor sized for another.
type backendSet struct {
	epoch     uint64           // local install counter; bumps on every swap
	groups    [][]ShardBackend // replica group per partition, never empty; groups[i][0] is the primary
	locals    []*Shard         // locals[i] non-nil iff partition i is one in-process shard
	hasRemote bool
	cursors   []atomic.Uint32 // per-partition replica rotation
}

// pick returns the index within partition si's replica group to try
// first: round-robin rotation over the group, skipping replicas whose
// failure circuit reports unhealthy. When every replica is unhealthy the
// rotation slot is returned unchanged — exactly one caller at a time
// probes an open circuit; the rest fail fast inside the backend and fail
// over here.
func (set *backendSet) pick(si int, g []ShardBackend) int {
	start := int(set.cursors[si].Add(1)) % len(g)
	for t := 0; t < len(g); t++ {
		i := start + t
		if i >= len(g) {
			i -= len(g)
		}
		if h, ok := g[i].(HealthReporter); !ok || h.Healthy() {
			return i
		}
	}
	return start
}

// deadlinePassed reports whether a non-zero per-call deadline has
// elapsed. The zero deadline (the plain, unbounded call) never reads the
// clock, so the deadline-free hot path pays one branch, not a syscall.
func deadlinePassed(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// walk runs one call against partition si of this view: the picked
// replica first, then — while it fails at the transport level — each
// sibling in turn. Every replicated call goes through it: a single
// sample, or a served visit of a batch, a bulk read or an append.
// failover reports whether any replica failed under the call, so the
// caller can kick an asynchronous ownership refresh that rebinds the dead
// replica out of the view. A non-zero deadline (zero: unbounded, the ShardBackend
// convention) bounds the whole walk: it is checked before each failover
// attempt, because walking the rotation must not multiply an exhausted
// budget.
func (set *backendSet) walk(si int, deadline time.Time, call func(ShardBackend) error) (failover bool, err error) {
	g := set.groups[si]
	if len(g) == 1 {
		return false, call(g[0])
	}
	start := set.pick(si, g)
	for t := 0; t < len(g); t++ {
		i := start + t
		if i >= len(g) {
			i -= len(g)
		}
		if t > 0 && deadlinePassed(deadline) {
			return true, fmt.Errorf("engine: shard %d failover: %w", si, ErrDeadlineExceeded)
		}
		err = call(g[i])
		if err == nil || !errors.Is(err, ErrShardUnavailable) {
			return t > 0, err
		}
	}
	return true, &replicasExhaustedError{shard: si, replicas: len(g), last: err}
}

// sampleShard runs one replicated single-sample read against partition
// si. Failover is invisible to the caller and bit-exact: a failed attempt
// never consumes r (the ShardBackend contract), so the retry on a sibling
// replica draws from identical state. The deadline bounds the walk and is
// passed to every backend.
func (set *backendSet) sampleShard(si int, id graph.NodeID, out []graph.NodeID, r *rng.RNG, deadline time.Time) (n int, failover bool, err error) {
	failover, err = set.walk(si, deadline, func(be ShardBackend) (err error) {
		n, err = be.SampleIntoBy(id, out, r, deadline)
		return err
	})
	return n, failover, err
}

// RefreshFunc re-resolves shard ownership after a wrong-epoch redirect,
// typically by querying every shard server's routing epoch and calling
// InstallReplicaSets with the new binding (internal/rpc's Cluster installs
// exactly that). It must be safe to call from multiple engine paths; the
// engine itself single-flights it per stale snapshot.
type RefreshFunc func() error

// Engine is the routing layer over the per-shard stores.
type Engine struct {
	routing *partition.Routing
	bset    atomic.Pointer[backendSet] // current shard-ownership view

	numNodes   int
	contentDim int

	// Ownership refresh state: the installed refresher and the lock that
	// single-flights it (never taken on the hot path — only after a
	// wrong-epoch redirect or a replica failover). refreshFailedAt
	// (guarded by refreshMu) is the bounded-backoff half of failover: a
	// failed refresh is not re-attempted within refreshFailCooldown, so a
	// burst of calls against a dark partition degrades fast and typed
	// instead of hammering the ownership poll. refreshKick single-flights
	// the asynchronous refresh a successful failover schedules.
	refreshMu       sync.Mutex
	refreshFn       RefreshFunc
	refreshFailedAt time.Time
	refreshKick     atomic.Bool

	planPool sync.Pool // *visitPlan, reused across ReadNodes and Append calls
}

// New partitions g and builds one in-process store per shard,
// precomputing every owned adjacency's alias table into the shard's flat
// arrays with a worker pool (up to GOMAXPROCS across all shards). It
// panics on a non-positive shard count.
func New(g *graph.Graph, cfg Config) *Engine {
	if cfg.Shards <= 0 {
		panic(fmt.Sprintf("engine: invalid config %+v", cfg))
	}
	part := partition.SplitOpts(g, cfg.Shards, cfg.Strategy, partition.Options{Locality: cfg.Locality})
	locals := make([]*Shard, cfg.Shards)
	groups := make([][]ShardBackend, cfg.Shards)
	for i := range locals {
		locals[i] = newShard(i, part)
		groups[i] = []ShardBackend{locals[i]}
	}
	buildShardTables(locals)
	return NewWithReplicaSets(part.RoutingTable(), groups, g.ContentDim())
}

// NewWithReplicaSets assembles the routing layer over pre-built stores —
// any mix of in-process *Shards (BuildShard) and remote stubs
// (internal/rpc.RemoteShard). routing is the partition's table (fetched
// from a shard server or built locally); contentDim describes the graph
// behind the backends (reported by the server handshake). groups[i]
// holds every interchangeable store of partition i (at least one;
// typically the stubs of every server claiming the partition at the
// current epoch). Reads rotate across a group's healthy members and fail
// over within the group on a transport failure — a single replica death
// is absorbed below the engine's surface; only a whole group failing
// surfaces, typed (ErrNoReplicas, still matching ErrShardUnavailable).
func NewWithReplicaSets(routing *partition.Routing, groups [][]ShardBackend, contentDim int) *Engine {
	if routing.NumShards() != len(groups) {
		panic(fmt.Sprintf("engine: %d replica groups for %d shards", len(groups), routing.NumShards()))
	}
	e := &Engine{
		routing:    routing,
		numNodes:   routing.NumNodes(),
		contentDim: contentDim,
		planPool:   sync.Pool{New: func() any { return new(visitPlan) }},
	}
	e.bset.Store(newReplicaSet(0, groups))
	return e
}

// newReplicaSet classifies replica groups into an immutable ownership
// view. Every partition must have at least one backend; the first member
// of each group is its primary.
func newReplicaSet(epoch uint64, groups [][]ShardBackend) *backendSet {
	set := &backendSet{
		epoch:   epoch,
		groups:  groups,
		locals:  make([]*Shard, len(groups)),
		cursors: make([]atomic.Uint32, len(groups)),
	}
	for i, g := range groups {
		if len(g) == 0 {
			panic(fmt.Sprintf("engine: empty replica group for shard %d", i))
		}
		if s, ok := g[0].(*Shard); ok && len(g) == 1 {
			set.locals[i] = s
		}
		for _, be := range g {
			if _, ok := be.(*Shard); !ok {
				set.hasRemote = true
			}
		}
	}
	return set
}

// InstallReplicaSets atomically replaces the engine's per-partition
// replica groups — the client half of a live shard handoff
// (rpc.Cluster.Refresh installs the claimant set of every partition
// through it after polling the cluster). groups must have one entry per
// partition of the routing table (the node-to-shard assignment never
// changes; only which stores serve a shard does). Calls already in flight
// complete against the set they loaded; every subsequent call routes
// through the new one. The outer slice is copied; the inner group slices
// transfer to the engine and must not be mutated afterwards. Safe for
// concurrent use: the epoch advances by exactly one per install (CAS
// loop), so concurrent installers never collapse onto one epoch.
func (e *Engine) InstallReplicaSets(groups [][]ShardBackend) {
	if len(groups) != e.routing.NumShards() {
		panic(fmt.Sprintf("engine: InstallReplicaSets with %d groups for %d shards",
			len(groups), e.routing.NumShards()))
	}
	e.installSet(newReplicaSet(0, append([][]ShardBackend(nil), groups...)))
}

func (e *Engine) installSet(set *backendSet) {
	for {
		old := e.bset.Load()
		set.epoch = old.epoch + 1
		if e.bset.CompareAndSwap(old, set) {
			return
		}
	}
}

// SetRefresh installs the ownership refresher the engine runs (once per
// stale view, then retrying the failed call) when a backend answers with
// ErrWrongEpoch. Engines assembled by rpc.DialClusterWith get one installed
// automatically; without one a wrong-epoch redirect surfaces to the
// caller like any other backend error.
func (e *Engine) SetRefresh(fn RefreshFunc) {
	e.refreshMu.Lock()
	e.refreshFn = fn
	e.refreshMu.Unlock()
}

// Epoch returns the engine's local backend-install counter: 0 at
// construction, +1 per InstallReplicaSets. Tests and monitoring use it to
// observe that a handoff-triggered refresh actually happened.
func (e *Engine) Epoch() uint64 { return e.bset.Load().epoch }

// refreshFailCooldown bounds how often a failing refresher is re-run:
// when a whole partition is dark, every call fails over, exhausts the
// replica group and lands here — one ownership poll per cooldown window
// services the lot, and the rest degrade immediately with the typed
// error. Short enough that a replacement server is adopted within a
// blink of announcing itself.
const refreshFailCooldown = 250 * time.Millisecond

// refresh single-flights the installed refresher after a call against
// stale observed a wrong-epoch redirect or exhausted a replica group. It
// reports whether the caller should retry: true when the ownership view
// changed (by the refresher, or concurrently by another caller's
// refresh), false when no refresher is installed, it failed, or a recent
// failure is still cooling down.
func (e *Engine) refresh(stale *backendSet) bool {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	if e.bset.Load() != stale {
		return true // another caller already moved the view forward
	}
	if e.refreshFn == nil {
		return false
	}
	if !e.refreshFailedAt.IsZero() && time.Since(e.refreshFailedAt) < refreshFailCooldown {
		return false // bounded backoff: a refresh just failed, don't hammer the poll
	}
	if err := e.refreshFn(); err != nil {
		e.refreshFailedAt = time.Now()
		return false
	}
	e.refreshFailedAt = time.Time{}
	return true
}

// kickRefresh schedules one asynchronous ownership refresh of the given
// view, single-flighted by an atomic flag. The failover paths call it
// after a call succeeded on a sibling replica: the caller already has
// its result, but the view still routes a share of traffic at the dead
// replica — the refresh rebinds the partition to its surviving (and any
// newly joined) claimants without any caller paying the poll latency.
func (e *Engine) kickRefresh(stale *backendSet) {
	if !e.refreshKick.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer e.refreshKick.Store(false)
		e.refresh(stale)
	}()
}

// BuildShard constructs the in-process store for one partition of part
// and precomputes its alias tables (parallel across GOMAXPROCS chunks).
// Shard servers use it to build only the partitions they own. The third
// parameter is ignored: it was the in-shard replica count, kept only
// because benchmark/ compiles against this signature — drop it in the
// next benchmark-only PR.
func BuildShard(part *partition.Partition, id, _ int) *Shard {
	if id < 0 || id >= part.NumShards() {
		panic(fmt.Sprintf("engine: BuildShard(%d) of %d shards", id, part.NumShards()))
	}
	s := newShard(id, part)
	buildShardTables([]*Shard{s})
	return s
}

// buildShardTables precomputes the given shards' alias arrays
// concurrently: shards build in parallel, and a shard's node range is
// further chunked so the pool keeps GOMAXPROCS workers busy even with few
// shards.
func buildShardTables(shards []*Shard) {
	chunksPer := 1
	if p := runtime.GOMAXPROCS(0); p > len(shards) {
		chunksPer = (p + len(shards) - 1) / len(shards)
	}
	var wg sync.WaitGroup
	for _, s := range shards {
		n := s.store.NumNodes()
		chunk := (n + chunksPer - 1) / chunksPer
		if chunk < 1 {
			chunk = 1
		}
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(s *Shard, lo, hi int) {
				defer wg.Done()
				s.buildTables(lo, hi)
			}(s, lo, hi)
		}
	}
	wg.Wait()
}

// NumNodes returns the total node count across all shards.
func (e *Engine) NumNodes() int { return e.numNodes }

// ContentDim returns the dimensionality of content vectors.
func (e *Engine) ContentDim() int { return e.contentDim }

// NumShards returns the number of partitions.
func (e *Engine) NumShards() int { return e.routing.NumShards() }

// Routing returns the node-to-shard routing table.
func (e *Engine) Routing() *partition.Routing { return e.routing }

// ShardOf returns the index of the shard owning id — the routing lookup,
// O(1) arithmetic (hash partitioning) or one array read (degree-balanced).
func (e *Engine) ShardOf(id graph.NodeID) int { return e.routing.Owner(id) }

// Shard returns the in-process store currently serving one partition,
// nil when that partition is served by a remote backend.
func (e *Engine) Shard(i int) *Shard { return e.bset.Load().locals[i] }

// Backend returns partition i's primary store as the routing layer
// currently holds it (the live ownership view; a handoff swaps it).
func (e *Engine) Backend(i int) ShardBackend { return e.bset.Load().groups[i][0] }

// ReplicaSet returns partition i's current replica group (primary
// first). The slice is shared with the live ownership view — read-only.
func (e *Engine) ReplicaSet(i int) []ShardBackend { return e.bset.Load().groups[i] }

// must surfaces a backend failure on the error-free surface; see the
// package comment's error contract.
func must(err error) {
	if err != nil {
		panic(fmt.Errorf("engine: remote backend failed on the error-free surface: %w", err))
	}
}

// maxEpochRetries bounds how many ownership views one call will chase: a
// wrong-epoch redirect triggers one refresh of the stale view and a
// retry, and a retry that lands in the middle of yet another migration
// may refresh again — but a call never loops unboundedly on a cluster
// that keeps moving the same shard out from under it.
const maxEpochRetries = 3

// readOne serves a single-node attribute read of a partition that is not
// one in-process shard: a 1-id bulk read into a fresh block, so it fails
// over and follows handoffs exactly as ReadNodes does. The result is a
// decoded copy the caller owns.
func (e *Engine) readOne(id graph.NodeID, fields graph.ReadFields) *graph.NodeBlock {
	blk := new(graph.NodeBlock)
	e.ReadNodes([]graph.NodeID{id}, fields, blk)
	return blk
}

// Neighbors returns the adjacency list of id, read from its owning
// shard's CSR slice (an immutable view in-process; a decoded copy from a
// remote backend).
func (e *Engine) Neighbors(id graph.NodeID) []graph.Edge {
	if sh := e.bset.Load().locals[e.routing.Owner(id)]; sh != nil {
		return sh.Neighbors(id)
	}
	return e.readOne(id, graph.ReadNeighbors).Neighbors[0]
}

// Content returns the node's content vector from its owning shard.
func (e *Engine) Content(id graph.NodeID) tensor.Vec {
	if sh := e.bset.Load().locals[e.routing.Owner(id)]; sh != nil {
		return sh.Content(id)
	}
	return e.readOne(id, graph.ReadContent).Content[0]
}

// Features returns the node's categorical features from its owning shard.
func (e *Engine) Features(id graph.NodeID) []int32 {
	if sh := e.bset.Load().locals[e.routing.Owner(id)]; sh != nil {
		return sh.Features(id)
	}
	return e.readOne(id, graph.ReadFeatures).Features[0]
}

// SampleNeighborsInto routes to the owning shard and fills out with
// weighted neighbor draws of id (with replacement), returning the number
// written: len(out), or 0 for an isolated node. Over in-process shards it
// performs no heap allocation and takes no locks beyond one atomic load
// of the ownership view — the steady-state serving path; over a remote
// backend it is one RPC round trip. It is TrySampleNeighborsIntoBy
// without a deadline, panicking on a backend failure.
func (e *Engine) SampleNeighborsInto(id graph.NodeID, out []graph.NodeID, r *rng.RNG) int {
	n, err := e.TrySampleNeighborsIntoBy(id, out, r, time.Time{})
	must(err)
	return n
}

// TrySampleNeighborsIntoBy is the single-sample primitive: it surfaces
// backend failures instead of panicking — on error 0 draws are reported,
// out is unspecified and r is not consumed — and is bounded by an
// absolute per-call deadline (zero: unbounded). A wrong-epoch redirect
// (the shard moved servers) is absorbed by a one-shot ownership refresh
// and retry — safe because a redirected call never consumes r. A
// replica's transport failure is absorbed the same way one level down:
// the call fails over to the partition's surviving replicas (none of
// which saw r consumed either), and only a whole group failing escalates
// to the refresh-and-retry loop, then surfaces typed. The serving cache's
// synchronous miss path uses this call to degrade to an empty neighbor
// set during a full shard outage.
//
// The deadline travels through the ShardBackend seam: a backend that can
// block (the RPC stub) shrinks its per-call I/O timers to the remaining
// budget, and the engine itself refuses to start — or to keep failing
// over / chasing ownership refreshes — once the budget is gone. A
// deadline failure wraps ErrDeadlineExceeded and deliberately skips the
// refresh-and-retry loop: the shard did not move and its replicas are not
// down; the caller is out of time. The call performs no heap allocation,
// with or without a deadline — the serving request path stays 0
// allocs/op.
func (e *Engine) TrySampleNeighborsIntoBy(id graph.NodeID, out []graph.NodeID, r *rng.RNG, deadline time.Time) (int, error) {
	if deadlinePassed(deadline) {
		return 0, ErrDeadlineExceeded
	}
	owner := e.routing.Owner(id)
	set := e.bset.Load()
	n, failover, err := set.sampleShard(owner, id, out, r, deadline)
	for retry := 0; retry < maxEpochRetries && err != nil && retryable(err) && !deadlinePassed(deadline) && e.refresh(set); retry++ {
		set = e.bset.Load()
		n, failover, err = set.sampleShard(owner, id, out, r, deadline)
	}
	if failover && err == nil {
		e.kickRefresh(set)
	}
	return n, err
}

// Stats reports per-shard request counts, replica-group sizes and the
// static partition shape.
type Stats struct {
	Shards           int
	ReplicasPerShard []int // replica-group size of each partition
	RequestsPerShard []int64
	NodesPerShard    []int
	EdgesPerShard    []int
	// Imbalance is max/mean over RequestsPerShard (1 = perfectly even,
	// 0 when no requests have been served).
	Imbalance    float64
	CachedTables int
}

// Stats snapshots load counters. A partition's request count is the sum
// over its replica group of what each member reports through
// BackendStats (an in-process shard its own counter, a remote stub its
// client-side one; zero for a backend without the facet), and its size is
// the first one a member reports. CachedTables counts the precomputed
// per-adjacency tables (every owned node with degree > 0) of in-process
// shards.
func (e *Engine) Stats() Stats {
	set := e.bset.Load()
	st := Stats{Shards: len(set.groups)}
	var total, maxShard int64
	for i, g := range set.groups {
		var perShard int64
		var nodes, edges int
		for _, be := range g {
			if bs, ok := be.(BackendStats); ok {
				perShard += bs.Requests()
				if nodes == 0 && edges == 0 {
					nodes, edges = bs.ShardSize()
				}
			}
		}
		if s := set.locals[i]; s != nil {
			st.CachedTables += s.Tables()
		}
		st.ReplicasPerShard = append(st.ReplicasPerShard, len(g))
		st.RequestsPerShard = append(st.RequestsPerShard, perShard)
		st.NodesPerShard = append(st.NodesPerShard, nodes)
		st.EdgesPerShard = append(st.EdgesPerShard, edges)
		total += perShard
		if perShard > maxShard {
			maxShard = perShard
		}
	}
	if total > 0 {
		mean := float64(total) / float64(len(set.groups))
		st.Imbalance = float64(maxShard) / mean
	}
	return st
}

// Append routes an edge batch to the owning shards' write facets, one run
// of the visit plan, and returns the number of edges applied. Each owner's
// edges, in batch order, are one visit and one record under one sequence
// number, served inline in shard order with the reads' failover and
// per-visit refresh-and-retry. A failing shard does not stop the others:
// on error every other reachable owner's edges have landed and stay
// applied, and the count says how many. Re-submitting the whole batch
// would apply those a second time under fresh sequence numbers (the
// sequence layer makes one visit's retry idempotent, not a new call's), so
// a caller that retries re-sends only what failed, and invalidates
// whatever it caches for the sources that did land.
func (e *Engine) Append(edges []ingest.Edge) (int, error) {
	if len(edges) == 0 {
		return 0, nil
	}
	srcs := make([]graph.NodeID, len(edges))
	for i, ed := range edges {
		if ed.Src < 0 || int(ed.Src) >= e.numNodes {
			return 0, fmt.Errorf("%w: src %d out of range [0, %d)", ErrBadAppend, ed.Src, e.numNodes)
		}
		srcs[i] = ed.Src
	}
	p := e.planPool.Get().(*visitPlan)
	defer e.planPool.Put(p)
	return e.scatter(p, srcs, &payload{edges: edges})
}

// IngestStats reports the write-path state of every partition whose
// primary backend exposes the IngestReporter facet (in-process shards
// always do; remote stubs once their server spoke).
func (e *Engine) IngestStats() []IngestStats {
	set := e.bset.Load()
	out := make([]IngestStats, 0, len(set.groups))
	for si, g := range set.groups {
		ir, ok := g[0].(IngestReporter)
		if !ok {
			continue
		}
		st, ok := ir.IngestStats()
		if !ok {
			continue
		}
		st.Shard = si
		out = append(out, st)
	}
	return out
}
