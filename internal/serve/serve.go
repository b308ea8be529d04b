// Package serve implements the online serving module of §VII-E: a
// request path that embeds (user, query) pairs with the trimmed model
// (edge-level attention only, per the paper's deployment), reads sampled
// neighbors from a cache of the k last-visited neighbors per node with
// fully asynchronous refresh, and retrieves items from the two-layer
// inverted index.
//
// The hot path is engineered for contention- and allocation-freedom: the
// neighbor cache is split into independently locked segments keyed so
// each segment's ids live on a single engine shard, entries are
// refreshed by age (a hit schedules a resample only once its entry has
// served for refreshAfter, and each segment's refresher gathers what is
// due into one scatter-gather batch per wake, i.e. one shard visit),
// synchronous miss fills are single-flighted per id,
// and every worker state owns an EmbedScratch and an ann.SearchScratch
// so request embedding and index search perform zero heap allocations at
// steady state. Over remote shards, every refresher and miss fill shares
// the engine's multiplexed RPC connections rather than checking one out
// per call, so segment refresh batches overlap freely with synchronous
// miss fills and with each other on the same sockets — a refresher never
// holds a connection hostage while a user request waits.
//
// Cache segments are keyed by the node-to-shard assignment, which is
// immutable for the lifetime of a partitioned graph; a live shard
// handoff moves a partition between servers, not nodes between
// partitions. So when a shard drains, every segment keeps its key and
// its entries, and the segment's refreshers and miss fills follow the
// moved shard automatically through the engine's ownership refresh: the
// first redirected batch is retried against the new owner inside the
// engine, cached entries stay valid throughout (they are samples, not
// server addresses), and at no point does a request observe the
// migration. Only a genuine outage degrades service, and then by policy:
// refreshers drop their batch (stale beats corrupt) and miss fills serve
// an empty neighbor set.
package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"zoomer/internal/ann"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// Embedder computes request and item embeddings from exported serving
// weights: edge-attention-only aggregation over cached neighbors, then
// the twin towers — all tape-free float32 math for serving throughput.
type Embedder struct {
	sw *core.ServingWeights
}

// NewEmbedder wraps exported weights.
func NewEmbedder(sw *core.ServingWeights) *Embedder { return &Embedder{sw: sw} }

// EmbedScratch holds the per-worker buffers of the request-embedding hot
// path: attention scores, focal and aggregate vectors, the tower input,
// and the MLP ping/pong pair. Not safe for concurrent use — one per
// worker, like *rng.RNG.
type EmbedScratch struct {
	c, tmp, hu, hq tensor.Vec
	cat            tensor.Vec
	scores         tensor.Vec
	ping, pong     tensor.Vec
}

// NewScratch sizes a scratch for this embedder's weights.
func (e *Embedder) NewScratch() *EmbedScratch {
	d := e.sw.Dim
	w := core.MaxLayerWidth(e.sw.TowerUQ, e.sw.TowerItem)
	if w < d {
		w = d
	}
	return &EmbedScratch{
		c:      tensor.NewVec(d),
		tmp:    tensor.NewVec(d),
		hu:     tensor.NewVec(d),
		hq:     tensor.NewVec(d),
		cat:    tensor.NewVec(2 * d),
		scores: make(tensor.Vec, 0, 64),
		ping:   tensor.NewVec(w),
		pong:   tensor.NewVec(w),
	}
}

func (sc *EmbedScratch) scoreBuf(n int) tensor.Vec {
	if cap(sc.scores) < n {
		sc.scores = make(tensor.Vec, n)
	}
	sc.scores = sc.scores[:n]
	return sc.scores
}

// aggregateInto applies the trimmed (edge-level only) attention over the
// cached neighbor set into dst (length Dim): softmax over
// LeakyReLU(a·[zf ‖ zj ‖ C]) with a residual to zf. The concatenation is
// never materialized — a·[zf ‖ zj ‖ C] = zf·a₁ + zj·a₂ + C·a₃, and the
// zf and C partial dots are hoisted out of the neighbor loop. Seeding the
// residual shares zf's traversal with its partial dot via the fused
// DotAxpy kernel.
func (e *Embedder) aggregateInto(dst tensor.Vec, ego graph.NodeID, nbrs []graph.NodeID, C tensor.Vec, a tensor.Vec, sc *EmbedScratch) {
	sw := e.sw
	zf := sw.Base[ego]
	d := sw.Dim
	for i := range dst {
		dst[i] = 0
	}
	base := tensor.DotAxpy(1, zf, a[:d], dst) // dst = zf, base = zf·a₁
	if len(nbrs) == 0 {
		return
	}
	base += tensor.Dot(C, a[2*d:])
	a2 := a[d : 2*d]
	scores := sc.scoreBuf(len(nbrs))
	for i, nb := range nbrs {
		s := base + tensor.Dot(sw.Base[nb], a2)
		if s < 0 {
			s *= 0.2 // LeakyReLU
		}
		scores[i] = s
	}
	tensor.Softmax(scores, scores)
	for i, nb := range nbrs {
		tensor.Axpy(scores[i], sw.Base[nb], dst)
	}
}

// UserQuery embeds a request given cached neighbor sets for the user and
// query nodes. The caller's scratch is required; the returned vector is
// backed by it and valid until the next call — zero allocations.
func (e *Embedder) UserQuery(u, q graph.NodeID, nbrsU, nbrsQ []graph.NodeID, sc *EmbedScratch) tensor.Vec {
	sw := e.sw
	d := sw.Dim
	sw.MapUser.ApplyInto(sw.Base[u], sc.c)
	sw.MapQuery.ApplyInto(sw.Base[q], sc.tmp)
	tensor.Axpy(1, sc.tmp, sc.c)
	e.aggregateInto(sc.hu, u, nbrsU, sc.c, sw.AttnUser, sc)
	e.aggregateInto(sc.hq, q, nbrsQ, sc.c, sw.AttnQuery, sc)
	copy(sc.cat[:d], sc.hu)
	copy(sc.cat[d:], sc.hq)
	return core.ApplyMLPInto(sw.TowerUQ, sc.cat, sc.ping, sc.pong)
}

// Item embeds an item through the exported item tower (index build, not
// the request path); the returned vector is independently owned.
func (e *Embedder) Item(id graph.NodeID) tensor.Vec {
	w := core.MaxLayerWidth(e.sw.TowerItem)
	buf := tensor.NewVec(2 * w)
	return tensor.Copy(core.ApplyMLPInto(e.sw.TowerItem, e.sw.Base[id], buf[:w], buf[w:]))
}

// minCacheSegments is the floor on independently locked cache segments;
// the actual count is the smallest multiple of the engine's shard count
// at or above it, so every segment's ids live on exactly one shard.
const minCacheSegments = 16

// refreshBatch caps how many queued ids one refresher drains into a
// single scatter-gather batch call.
const refreshBatch = 64

// refreshAfter is how long an installed entry serves hits before the
// next hit schedules its resample. It bounds staleness from age, not
// traffic: a hot id costs one refresh per interval however often it is
// read. Appended edges do not wait for it (see InvalidateNodes).
const refreshAfter = time.Second

// refreshWindow is how long a woken refresher keeps gathering its queue
// before it issues the batch (unless refreshBatch ids arrive first), so
// ids falling due together share one shard visit.
const refreshWindow = 5 * time.Millisecond

// Claim sentinels of Entry.due, above every clock reading so a hit never
// finds them due. claimed marks an entry whose refresh is queued or in
// flight; claimedStale one invalidated meanwhile, whose replacement may
// be sampled from before the invalidating append and is therefore
// installed already due.
const (
	claimed      = math.MaxInt64
	claimedStale = math.MaxInt64 - 1
)

// fillCall is one in-flight synchronous miss fill; concurrent misses on
// the same id wait on done instead of sampling redundantly. waiters is
// written under the segment lock before done closes; the filler reads it
// at install time to grant each waiter a reference up front.
type fillCall struct {
	done    chan struct{}
	entry   *Entry
	waiters int32
}

// Entry is one cached neighbor set, handed to readers refcounted so its
// backing buffer can be recycled: the cache holds one reference while
// the entry is current, every Get adds one, and when the count drops to
// zero (entry replaced by a refresh and every reader done) the entry
// returns to its segment's pool. Readers call Release when finished and
// must not touch Neighbors() afterwards; a reader that never releases
// keeps its snapshot valid indefinitely at the cost of one pooled
// buffer. This is what makes the steady-state refresh path
// allocation-free: refreshed neighbor sets are copied into recycled
// buffers instead of freshly allocated slices.
//
// due is the refresh schedule: the cache-clock reading at which the next
// hit claims the entry for a refresh (set to now + refreshAfter when the
// entry is installed, 0 for a degraded miss fill), or a claim sentinel
// while that refresh is pending.
type Entry struct {
	seg  *cacheSegment
	buf  []graph.NodeID // len CacheK, reused across generations
	n    int
	refs atomic.Int32
	due  atomic.Int64
}

// Neighbors returns the cached neighbor set (valid until Release).
func (e *Entry) Neighbors() []graph.NodeID { return e.buf[:e.n] }

// Release drops the reader's reference, recycling the entry once no
// reader holds it and a refresh has replaced it. It panics on double
// release.
func (e *Entry) Release() {
	n := e.refs.Add(-1)
	if n == 0 {
		e.seg.mu.Lock()
		e.seg.pool = append(e.seg.pool, e)
		e.seg.mu.Unlock()
	} else if n < 0 {
		panic("serve: cache entry released twice")
	}
}

// releaseLocked is Release for the refresher, which already holds the
// segment lock when it retires the previous generation.
func (e *Entry) releaseLocked() {
	if e.refs.Add(-1) == 0 {
		e.seg.pool = append(e.seg.pool, e)
	}
}

// cacheSegment is one lock domain of the neighbor cache, with its own
// refresh queue, refresher goroutine, single-flight registry, entry pool
// and counters.
type cacheSegment struct {
	mu      sync.RWMutex
	entries map[graph.NodeID]*Entry
	filling map[graph.NodeID]*fillCall
	pool    []*Entry // retired entries awaiting reuse
	refresh chan graph.NodeID

	hits, misses, refreshes atomic.Int64
}

// NeighborCache stores the k last-sampled neighbors per node, sharded
// into independently locked segments. Segment keys align with the
// engine's shard ownership — every id in a segment lives on the same
// graph shard — so a segment's refresher only ever talks to one shard
// (one RPC peer when the shards are remote) and drains its queue through
// the engine's scatter-gather batch path. Hits return immediately and
// enqueue an asynchronous refresh on the segment's own queue, decoupling
// the sampling path from the request path exactly as §VII-E describes
// ("cache updating is fully asynchronous from users' timely requests").
// Refresh is by age, not by hit: a hit on an entry younger than
// refreshAfter does no refresh work at all, and the first hit after that
// claims the entry so it is queued once however many requests read it.
// Entries are refcounted (see Entry) so refreshes recycle buffers from a
// per-segment pool instead of allocating per refreshed id.
type NeighborCache struct {
	eng      *engine.Engine
	k        int
	segs     []cacheSegment
	perShard int // segments per engine shard
	done     chan struct{}
	wg       sync.WaitGroup

	// The refresh policy's time base: now reads a monotonic clock in
	// nanoseconds, a woken refresher gathers for window, and a receive on
	// flush (nil, so never, outside tests) closes the window early.
	now    func() int64
	window time.Duration
	flush  chan struct{}
}

// NewNeighborCache starts a cache over eng with per-node budget k and one
// background refresher per segment. Close must be called.
func NewNeighborCache(eng *engine.Engine, k int, seed uint64) *NeighborCache {
	start := time.Now()
	return newNeighborCache(eng, k, seed, func() int64 { return int64(time.Since(start)) }, refreshWindow, nil)
}

func newNeighborCache(eng *engine.Engine, k int, seed uint64, now func() int64, window time.Duration, flush chan struct{}) *NeighborCache {
	shards := eng.NumShards()
	perShard := (minCacheSegments + shards - 1) / shards
	c := &NeighborCache{
		eng:      eng,
		k:        k,
		segs:     make([]cacheSegment, shards*perShard),
		perShard: perShard,
		done:     make(chan struct{}),
		now:      now,
		window:   window,
		flush:    flush,
	}
	for i := range c.segs {
		seg := &c.segs[i]
		seg.entries = make(map[graph.NodeID]*Entry)
		seg.filling = make(map[graph.NodeID]*fillCall)
		seg.refresh = make(chan graph.NodeID, 256)
		c.wg.Add(1)
		go c.refresher(seg, seed+uint64(i))
	}
	return c
}

// newEntry pops a recycled entry from the segment pool or allocates one.
// Callers must hold seg.mu.
func (c *NeighborCache) newEntry(seg *cacheSegment) *Entry {
	if n := len(seg.pool); n > 0 {
		e := seg.pool[n-1]
		seg.pool = seg.pool[:n-1]
		return e
	}
	return &Entry{seg: seg, buf: make([]graph.NodeID, c.k)}
}

// refresher drains one segment's queue: woken by one id, it gathers for
// the cache's window or until it holds refreshBatch ids, then resamples
// them in a single engine batch call. The segment's ids all live on one
// shard, so each batch is exactly one shard visit — over a remote shard,
// one request pipelined onto the shared multiplexed connections,
// overlapping with every other segment's refreshes and with synchronous
// miss fills instead of serializing behind a checked-out connection.
func (c *NeighborCache) refresher(seg *cacheSegment, seed uint64) {
	defer c.wg.Done()
	r := rng.New(seed)
	bs := engine.NewBatchScratch()
	ids := make([]graph.NodeID, 0, refreshBatch)
	out := make([]graph.NodeID, refreshBatch*c.k)
	ns := make([]int32, refreshBatch)
	window := time.NewTimer(c.window)
	stopTimer(window)
	for {
		select {
		case <-c.done:
			return
		case id := <-seg.refresh:
			ids = append(ids[:0], id)
			window.Reset(c.window)
		gather:
			for len(ids) < refreshBatch {
				select {
				case next := <-seg.refresh:
					ids = append(ids, next)
				case <-window.C:
					break gather
				case <-c.flush:
					break gather
				case <-c.done:
					return
				}
			}
			stopTimer(window)
			c.refreshIDs(seg, ids, out, ns, r, bs)
		}
	}
}

// stopTimer stops t and discards a fire that raced the stop, so the next
// Reset opens a clean window (the module's go directive selects the
// buffered-channel timer semantics).
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// refreshIDs resamples ids through one scatter-gather batch and installs
// the results into recycled entries, each due refreshAfter from now —
// the steady-state refresh path performs no heap allocation. On a
// backend failure (a remote shard down) the previous entries are kept:
// stale reads beat corrupted or missing ones. Their claims are released
// as due refreshAfter from now, so an outage costs one failed batch per
// entry per interval rather than one per hit.
func (c *NeighborCache) refreshIDs(seg *cacheSegment, ids []graph.NodeID, out []graph.NodeID, ns []int32, r *rng.RNG, bs *engine.BatchScratch) {
	_, err := c.eng.SampleNeighborsBatchInto(ids, c.k, out, ns, r, bs)
	due := c.now() + int64(refreshAfter)
	if err != nil {
		seg.mu.RLock()
		for _, id := range ids {
			if e := seg.entries[id]; e != nil {
				e.due.Store(due)
			}
		}
		seg.mu.RUnlock()
		return
	}
	seg.mu.Lock()
	for i, id := range ids {
		e := c.newEntry(seg)
		n := int(ns[i])
		copy(e.buf[:n], out[i*c.k:i*c.k+n])
		e.n = n
		e.refs.Store(1) // the cache's own reference
		e.due.Store(due)
		if old := seg.entries[id]; old != nil {
			if old.due.Load() == claimedStale {
				e.due.Store(0)
			}
			old.releaseLocked()
		}
		seg.entries[id] = e
	}
	seg.mu.Unlock()
	seg.refreshes.Add(int64(len(ids)))
}

// refreshIfDue claims e for a refresh once it is due and queues its id;
// the compare-and-swap makes concurrent hits queue it once. Callers hold
// seg.mu (either mode), so the claim lands on the entry the refresher
// will replace.
func (c *NeighborCache) refreshIfDue(seg *cacheSegment, id graph.NodeID, e *Entry) {
	if d := e.due.Load(); d <= c.now() && e.due.CompareAndSwap(d, claimed) {
		c.enqueue(seg, id, e)
	}
}

// enqueue hands a claimed entry's id to the segment's refresher. A full
// queue releases the claim as due now, so the next hit retries.
func (c *NeighborCache) enqueue(seg *cacheSegment, id graph.NodeID, e *Entry) bool {
	select {
	case seg.refresh <- id:
		return true
	default:
		e.due.Store(0)
		return false
	}
}

// seg maps an id to its segment: the owning shard selects the segment
// group, a multiplicative hash spreads the shard's ids across the
// group's perShard segments.
func (c *NeighborCache) seg(id graph.NodeID) *cacheSegment {
	spread := int(uint32(id)*2654435761>>16) % c.perShard
	return &c.segs[c.eng.ShardOf(id)*c.perShard+spread]
}

// getCached returns the cached entry for id without filling on a miss
// and without generating any backend work — not even an asynchronous
// refresh. This is the shed path's cache-only read: under overload the
// gateway degrades to whatever the cache already holds rather than
// adding load to the engine. Returns nil on a miss; the caller Releases
// a non-nil entry as usual.
func (c *NeighborCache) getCached(id graph.NodeID) *Entry {
	seg := c.seg(id)
	seg.mu.RLock()
	e, ok := seg.entries[id]
	if ok {
		e.refs.Add(1)
	}
	seg.mu.RUnlock()
	if !ok {
		seg.misses.Add(1)
		return nil
	}
	seg.hits.Add(1)
	return e
}

// Get returns the cached neighbor entry for id, sampling synchronously
// on a miss; the caller reads Neighbors() and calls Release when done.
// Hits acquire the reader's reference under the segment's read lock, so
// a refresh can never recycle a buffer out from under a reader, and a
// hit on an entry that has served for refreshAfter schedules its
// asynchronous refresh (best effort, once per entry). Misses are
// single-flighted per id: concurrent requests for the same cold id share
// one sample — each waiter's reference is granted by the filler at
// install time. Only the id's own segment is locked, so requests for
// different segments never contend. During a remote-shard outage a miss
// degrades to an empty neighbor set (the embedder falls back to the
// ego-only aggregate) rather than failing the request.
func (c *NeighborCache) Get(id graph.NodeID, r *rng.RNG) *Entry {
	return c.GetBy(id, r, time.Time{})
}

// GetBy is Get bounded by a per-request deadline: a synchronous miss
// fill carries the deadline down into the engine (and from there into
// the per-call RPC budget). When the budget runs out mid-fill the miss
// degrades exactly like an outage — an empty neighbor set is installed
// already due, so the next hit's asynchronous refresh heals it — because
// every coalesced waiter needs an entry regardless of whose deadline
// expired. The zero deadline means unbounded.
func (c *NeighborCache) GetBy(id graph.NodeID, r *rng.RNG, deadline time.Time) *Entry {
	seg := c.seg(id)
	seg.mu.RLock()
	if e, ok := seg.entries[id]; ok {
		e.refs.Add(1)
		c.refreshIfDue(seg, id, e)
		seg.mu.RUnlock()
		seg.hits.Add(1)
		return e
	}
	seg.mu.RUnlock()

	seg.mu.Lock()
	if e, ok := seg.entries[id]; ok { // filled while upgrading the lock
		e.refs.Add(1)
		c.refreshIfDue(seg, id, e)
		seg.mu.Unlock()
		seg.hits.Add(1)
		return e
	}
	if f, ok := seg.filling[id]; ok { // coalesce onto the in-flight fill
		f.waiters++
		seg.mu.Unlock()
		<-f.done
		seg.hits.Add(1)
		return f.entry
	}
	f := &fillCall{done: make(chan struct{})}
	seg.filling[id] = f
	e := c.newEntry(seg)
	seg.mu.Unlock()

	seg.misses.Add(1)
	n, err := c.eng.TrySampleNeighborsIntoBy(id, e.buf[:c.k], r, deadline)
	due := c.now() + int64(refreshAfter)
	if err != nil {
		// Shard unavailable or budget spent: serve the request with no
		// neighbors, and let the next hit heal the entry.
		n, due = 0, 0
	}
	e.n = n
	e.due.Store(due)

	seg.mu.Lock()
	// cache + filler + every waiter registered before the install.
	e.refs.Store(2 + f.waiters)
	seg.entries[id] = e
	delete(seg.filling, id)
	seg.mu.Unlock()
	f.entry = e
	close(f.done)
	return e
}

// InvalidateNodes schedules cached entries for the given ids to be
// resampled — the delta-epoch hook: when appended edges change a node's
// adjacency, its cached neighbor set is a sample of the old
// distribution. Invalidation is deliberately not eviction: the stale
// entry keeps serving (stale beats a synchronous refill stampede, the
// same policy refreshers apply during an outage) while the segment's
// refresher resamples it through the normal batch path. It bypasses the
// refresh interval through the hit path's claim: an unclaimed entry is
// queued now, and one whose refresh is already pending is marked so its
// replacement — possibly sampled before the append — is installed
// already due. Ids with no cached entry are skipped — there is nothing
// stale to heal. Best effort: a refresher whose queue is full drops the
// hint, leaving the entry due so the next hit queues it.
func (c *NeighborCache) InvalidateNodes(ids ...graph.NodeID) {
	for _, id := range ids {
		seg := c.seg(id)
		seg.mu.RLock()
		if e := seg.entries[id]; e != nil {
			c.invalidate(seg, id, e)
		}
		seg.mu.RUnlock()
	}
}

// invalidate claims e (or marks its pending claim stale). Callers hold
// seg.mu.
func (c *NeighborCache) invalidate(seg *cacheSegment, id graph.NodeID, e *Entry) {
	for {
		switch d := e.due.Load(); d {
		case claimedStale:
			return // already marked; one pending refresh covers it
		case claimed:
			if e.due.CompareAndSwap(claimed, claimedStale) {
				return
			}
		default:
			if e.due.CompareAndSwap(d, claimed) {
				c.enqueue(seg, id, e)
				return
			}
		}
	}
}

// Stats sums cache counters across segments.
func (c *NeighborCache) Stats() (hits, misses, refreshes int64) {
	for i := range c.segs {
		seg := &c.segs[i]
		hits += seg.hits.Load()
		misses += seg.misses.Load()
		refreshes += seg.refreshes.Load()
	}
	return hits, misses, refreshes
}

// Close stops the refreshers.
func (c *NeighborCache) Close() {
	close(c.done)
	c.wg.Wait()
}

// Config sizes the server.
type Config struct {
	Workers int // worker states: retrievals running at once
	CacheK  int // paper: 30
	TopK    int
	NProbe  int
	// QueueSize is ignored. Kept only because benchmark/ compiles
	// against it — drop it in the next benchmark-only PR.
	QueueSize int
	Seed      uint64
}

// DefaultConfig mirrors the production description.
func DefaultConfig() Config {
	return Config{Workers: 4, CacheK: 30, TopK: 100, NProbe: 4, Seed: 1}
}

// Server is the online retrieval service: neighbor cache, embedder and
// ANN index behind a pool of Workers worker states. A retrieval runs on
// its caller's goroutine while it holds one state; the pool bounds how
// many run at once, and the server starts no goroutine of its own.
type Server struct {
	cfg   Config
	emb   *Embedder
	cache *NeighborCache
	index *ann.Index

	states chan *workerState

	expired atomic.Int64
}

// workerState is what one running retrieval owns: the RNG its miss
// fills draw with and the embedding and search scratches, so the
// request path allocates nothing but its result copy.
type workerState struct {
	r   *rng.RNG
	sc  *EmbedScratch
	ssc *ann.SearchScratch
}

// Request is one retrieval request. The zero Deadline means unbounded.
// CacheOnly is the shed mode: the retrieval answers from whatever the
// neighbor cache already holds (possibly nothing) without generating
// backend work, and marks the response Degraded.
type Request struct {
	User, Query graph.NodeID
	Deadline    time.Time
	CacheOnly   bool
}

// Response is the retrieval result with end-to-end latency (the wait
// for a worker state included). Err is set — and Items empty — when the
// request's deadline expired before it was answered (errors.Is(Err,
// engine.ErrDeadlineExceeded)). Degraded marks a cache-only answer.
type Response struct {
	Items    []ann.Result
	Latency  time.Duration
	Err      error
	Degraded bool
}

// NewServer fills the pool with cfg.Workers worker states. Close must be
// called.
func NewServer(emb *Embedder, cache *NeighborCache, index *ann.Index, cfg Config) *Server {
	cfg.Workers = max(cfg.Workers, 1)
	s := &Server{
		cfg:    cfg,
		emb:    emb,
		cache:  cache,
		index:  index,
		states: make(chan *workerState, cfg.Workers),
	}
	for w := range cfg.Workers {
		s.states <- &workerState{r: rng.New(uint64(w) + cfg.Seed), sc: emb.NewScratch(), ssc: index.NewSearchScratch()}
	}
	return s
}

// acquire takes a worker state, waiting no later than deadline (the zero
// deadline waits as long as it takes); nil means the deadline passed
// first. An uncontended call takes a free state without arming a timer.
func (s *Server) acquire(deadline time.Time) *workerState {
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return nil
	}
	select {
	case ws := <-s.states:
		return ws
	default:
	}
	if deadline.IsZero() {
		return <-s.states
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case ws := <-s.states:
		return ws
	case <-t.C:
		return nil
	}
}

// Retrieve answers req on the caller's goroutine: two cache reads (cache
// only in shed mode), the embedding and the index probe, under one
// worker state. A request that gets no state before its deadline, or
// whose deadline passes during a miss fill, is answered with the typed
// engine.ErrDeadlineExceeded and counted in Expired. Retrieve must not
// be called once Close has begun.
func (s *Server) Retrieve(req Request) Response {
	start := time.Now()
	ws := s.acquire(req.Deadline)
	if ws == nil {
		return s.expire(start)
	}
	var eu, eq *Entry
	if req.CacheOnly {
		eu = s.cache.getCached(req.User)
		eq = s.cache.getCached(req.Query)
	} else {
		eu = s.cache.GetBy(req.User, ws.r, req.Deadline)
		eq = s.cache.GetBy(req.Query, ws.r, req.Deadline)
	}
	var nu, nq []graph.NodeID
	if eu != nil {
		nu = eu.Neighbors()
	}
	if eq != nil {
		nq = eq.Neighbors()
	}
	uq := s.emb.UserQuery(req.User, req.Query, nu, nq, ws.sc)
	if eu != nil {
		eu.Release()
	}
	if eq != nil {
		eq.Release()
	}
	if !req.Deadline.IsZero() && !time.Now().Before(req.Deadline) {
		// Expired during the miss fill: nobody waits on the search.
		s.states <- ws
		return s.expire(start)
	}
	found := s.index.SearchInto(uq, s.cfg.TopK, s.cfg.NProbe, ws.ssc)
	// The scratch-backed results are clobbered by the state's next
	// request, so copy once — the only allocation on the request path.
	items := make([]ann.Result, len(found))
	copy(items, found)
	s.states <- ws
	return Response{Items: items, Latency: time.Since(start), Degraded: req.CacheOnly}
}

func (s *Server) expire(start time.Time) Response {
	s.expired.Add(1)
	return Response{Err: engine.ErrDeadlineExceeded, Latency: time.Since(start)}
}

// SubmitReq sends Retrieve's answer to q on resp, which must have room
// for it, and returns true. Kept only because benchmark/ compiles
// against it — drop it in the next benchmark-only PR.
func (s *Server) SubmitReq(q Request, resp chan Response) bool {
	resp <- s.Retrieve(q)
	return true
}

// Dropped returns 0: nothing is refused below the gateway. Kept only
// because benchmark/ compiles against it — drop it in the next
// benchmark-only PR.
func (s *Server) Dropped() int64 { return 0 }

// Expired reports the total requests answered typed after their
// deadline passed (all time).
func (s *Server) Expired() int64 { return s.expired.Load() }

// Close waits until every in-flight retrieval has returned its worker
// state, and keeps them all: the server answers nothing afterwards.
func (s *Server) Close() {
	for range s.cfg.Workers {
		<-s.states
	}
}
