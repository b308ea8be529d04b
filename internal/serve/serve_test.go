package serve

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/ann"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/openloop"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// harness builds a trained-ish model, exports serving weights, and stands
// up the full serving stack.
type harness struct {
	g              *graph.Graph
	model          *core.Zoomer
	emb            *Embedder
	cache          *NeighborCache
	index          *ann.Index
	users, queries []graph.NodeID
}

func buildHarness(t testing.TB) *harness {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	cfg := core.DefaultConfig()
	cfg.EmbedDim = 16
	cfg.OutDim = 16
	cfg.Hops = 1
	cfg.FanOut = 4
	model := core.NewZoomer(res.Graph, logs.Vocab(), cfg, 2)
	sw := model.ExportServing()
	emb := NewEmbedder(sw)

	eng := engine.New(res.Graph, engine.DefaultConfig())
	cache := NewNeighborCache(eng, 8, 3)
	t.Cleanup(cache.Close)

	items := res.Graph.NodesOfType(graph.Item)
	ids := make([]int64, len(items))
	vecs := make([]tensor.Vec, len(items))
	for i, it := range items {
		ids[i] = int64(it)
		vecs[i] = emb.Item(it)
	}
	index := ann.Build(ids, vecs, ann.Config{NumLists: 8, Iters: 4, Seed: 4})
	return &harness{
		g:       res.Graph,
		model:   model,
		emb:     emb,
		cache:   cache,
		index:   index,
		users:   res.Graph.NodesOfType(graph.User),
		queries: res.Graph.NodesOfType(graph.Query),
	}
}

func TestEmbedderShapesAndFiniteness(t *testing.T) {
	h := buildHarness(t)
	r := rng.New(5)
	u, q := h.users[0], h.queries[0]
	nbrsU := h.cache.Get(u, r).Neighbors()
	nbrsQ := h.cache.Get(q, r).Neighbors()
	uq := h.emb.UserQuery(u, q, nbrsU, nbrsQ, h.emb.NewScratch())
	if len(uq) != 16 {
		t.Fatalf("uq dim %d", len(uq))
	}
	for _, v := range uq {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite serving embedding")
		}
	}
	it := h.emb.Item(h.g.NodesOfType(graph.Item)[0])
	if len(it) != 16 {
		t.Fatalf("item dim %d", len(it))
	}
}

// The fast serving path must agree with the training-graph item tower:
// both are the same computation.
func TestServingItemMatchesModel(t *testing.T) {
	h := buildHarness(t)
	r := rng.New(6)
	item := h.g.NodesOfType(graph.Item)[3]
	fast := h.emb.Item(item)
	slow := h.model.ItemEmbedding(item, r)
	for i := range fast {
		if math.Abs(float64(fast[i]-slow[i])) > 1e-4 {
			t.Fatalf("serving item embedding diverges at %d: %v vs %v", i, fast[i], slow[i])
		}
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	h := buildHarness(t)
	r := rng.New(7)
	id := h.users[1]
	h.cache.Get(id, r) // miss
	h.cache.Get(id, r) // hit
	h.cache.Get(id, r) // hit
	hits, misses, _ := h.cache.Stats()
	if misses < 1 || hits < 2 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

// A due hit answers from the cached entry at once and leaves the
// resample to the segment's refresher: the reader never waits on the
// shard, and the entry is replaced behind it.
func TestCacheAsyncRefreshRuns(t *testing.T) {
	pc := newPolicyCache(t, ringGraph(64), 1)
	r := rng.New(8)
	id := graph.NodeID(2)
	first := pc.Get(id, r)
	defer first.Release()
	pc.advance(refreshAfter)
	hit := pc.Get(id, r)
	defer hit.Release()
	if hit != first {
		t.Fatal("a due hit waited for its refresh instead of serving the cached entry")
	}
	pc.settle(id, 1)
	cur := pc.getCached(id)
	defer cur.Release()
	if cur == first {
		t.Fatal("asynchronous refresh never replaced the entry")
	}
}

func TestServerServesRequests(t *testing.T) {
	h := buildHarness(t)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.TopK = 10
	srv := NewServer(h.emb, h.cache, h.index, cfg)
	defer srv.Close()

	for i := 0; i < 10; i++ {
		rsp := srv.Retrieve(Request{User: h.users[i%len(h.users)], Query: h.queries[i%len(h.queries)]})
		if rsp.Err != nil || len(rsp.Items) == 0 || len(rsp.Items) > 10 {
			t.Fatalf("request %d: %d items, err %v", i, len(rsp.Items), rsp.Err)
		}
		if rsp.Latency <= 0 {
			t.Fatal("non-positive latency")
		}
	}
}

// SubmitReq survives only for the benchmark rig: it answers through
// Retrieve, on the caller's channel, and never refuses.
func TestSubmitReqShim(t *testing.T) {
	h := buildHarness(t)
	cfg := DefaultConfig()
	cfg.Workers = 1
	srv := NewServer(h.emb, h.cache, h.index, cfg)
	defer srv.Close()
	resp := make(chan Response, 1)
	if !srv.SubmitReq(Request{User: h.users[0], Query: h.queries[0]}, resp) {
		t.Fatal("SubmitReq refused a request")
	}
	if rsp := <-resp; rsp.Err != nil || len(rsp.Items) == 0 {
		t.Fatalf("SubmitReq answer: %d items, err %v", len(rsp.Items), rsp.Err)
	}
	if srv.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0", srv.Dropped())
	}
}

// A request that gets no worker state before its deadline is answered
// with the typed error once the deadline passes, counted as expired,
// and its Latency covers the wait.
func TestRetrieveNoWorkerStateBeforeDeadline(t *testing.T) {
	h := buildHarness(t)
	cfg := DefaultConfig()
	cfg.Workers = 1
	srv := NewServer(h.emb, h.cache, h.index, cfg)
	defer srv.Close()
	held := srv.acquire(time.Time{}) // the only state, as an in-flight retrieval holds it
	const budget = 20 * time.Millisecond
	deadline := time.Now().Add(budget)
	rsp := srv.Retrieve(Request{User: h.users[0], Query: h.queries[0], Deadline: deadline})
	srv.states <- held
	if !errors.Is(rsp.Err, engine.ErrDeadlineExceeded) || len(rsp.Items) != 0 {
		t.Fatalf("got %d items, err %v; want the typed deadline error", len(rsp.Items), rsp.Err)
	}
	if time.Now().Before(deadline) {
		t.Fatal("gave up on a worker state before the deadline")
	}
	// Retrieve's clock starts a few instructions after deadline was set.
	if rsp.Latency < budget*9/10 {
		t.Fatalf("Latency %v leaves out the %v wait for a worker state", rsp.Latency, budget)
	}
	if n := srv.Expired(); n != 1 {
		t.Fatalf("Expired() = %d, want 1", n)
	}
	if rsp := srv.Retrieve(Request{User: h.users[0], Query: h.queries[0], Deadline: time.Now().Add(time.Minute)}); rsp.Err != nil {
		t.Fatalf("retrieval after the state came back: %v", rsp.Err)
	}
}

// Close is a drain: it returns only once every in-flight retrieval has
// handed its worker state back.
func TestCloseWaitsForInFlightRetrieval(t *testing.T) {
	h := buildHarness(t)
	cfg := DefaultConfig()
	cfg.Workers = 2
	srv := NewServer(h.emb, h.cache, h.index, cfg)
	held := srv.acquire(time.Time{})
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a retrieval held a worker state")
	case <-time.After(50 * time.Millisecond):
	}
	srv.states <- held
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the last worker state came back")
	}
}

// Response time must grow (or at least not shrink drastically) as offered
// load rises toward saturation — the Fig. 9 shape.
func TestLatencyGrowsWithLoad(t *testing.T) {
	h := buildHarness(t)
	cfg := DefaultConfig()
	cfg.Workers = 1 // low capacity so the test saturates quickly
	srv := NewServer(h.emb, h.cache, h.index, cfg)
	defer srv.Close()

	// meanRT offers qps for 300 ms from 64 clients, each waiting for its
	// answer, and returns the mean response time, timed from due times.
	meanRT := func(qps float64) time.Duration {
		const clients = 64
		n := int(qps * 0.3)
		r := openloop.Run(clients, n, time.Duration(float64(time.Second)/qps), func(_, slot int) bool {
			return srv.Retrieve(Request{User: h.users[slot%len(h.users)], Query: h.queries[slot%len(h.queries)]}).Err == nil
		})
		if r.Failed != 0 {
			t.Fatalf("%d of %d requests failed at %.0f QPS", r.Failed, n, qps)
		}
		var sum time.Duration
		for _, l := range r.Lat {
			sum += l
		}
		return sum / time.Duration(n)
	}
	low, high := meanRT(200), meanRT(50000)
	t.Logf("mean RT %v at 200 QPS, %v at 50000 QPS", low, high)
	if high < low {
		t.Fatalf("mean RT fell under 250x load: %v -> %v", low, high)
	}
}

func BenchmarkEndToEndRequest(b *testing.B) {
	h := buildHarness(b)
	cfg := DefaultConfig()
	srv := NewServer(h.emb, h.cache, h.index, cfg)
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Retrieve(Request{User: h.users[i%len(h.users)], Query: h.queries[i%len(h.queries)]})
	}
}

// A reused per-worker scratch must reproduce a fresh scratch's embedding
// bit for bit, across repeated calls with changing neighbor sets.
func TestUserQueryScratchParity(t *testing.T) {
	h := buildHarness(t)
	r := rng.New(30)
	sc := h.emb.NewScratch()
	for i := 0; i < 8; i++ {
		u := h.users[i%len(h.users)]
		q := h.queries[i%len(h.queries)]
		nbrsU := h.cache.Get(u, r).Neighbors()
		nbrsQ := h.cache.Get(q, r).Neighbors()
		want := h.emb.UserQuery(u, q, nbrsU, nbrsQ, h.emb.NewScratch())
		got := h.emb.UserQuery(u, q, nbrsU, nbrsQ, sc)
		if len(got) != len(want) {
			t.Fatalf("len %d vs %d", len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("call %d: scratch embedding diverges at %d: %v vs %v", i, j, got[j], want[j])
			}
		}
	}
}

// Hammer the sharded cache from many goroutines (run under -race) and
// check counter consistency: every Get is exactly one hit or one miss.
func TestShardedCacheConcurrency(t *testing.T) {
	h := buildHarness(t)
	const workers, iters = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < iters; i++ {
				id := h.users[r.Intn(len(h.users))]
				h.cache.Get(id, r)
			}
		}(uint64(w + 40))
	}
	wg.Wait()
	hits, misses, _ := h.cache.Stats()
	if hits+misses < workers*iters {
		t.Fatalf("hits %d + misses %d < %d gets", hits, misses, workers*iters)
	}
}

// Full-stack hammer: engine tables, sharded cache and the server's
// worker states under concurrent callers, then a consistency check of
// the cache counters against the answers.
func TestServingStackConcurrency(t *testing.T) {
	h := buildHarness(t)
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.TopK = 5
	srv := NewServer(h.emb, h.cache, h.index, cfg)
	defer srv.Close()

	const callers, perCaller = 8, 50
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < perCaller; i++ {
				u := h.users[r.Intn(len(h.users))]
				q := h.queries[r.Intn(len(h.queries))]
				if rsp := srv.Retrieve(Request{User: u, Query: q}); len(rsp.Items) == 0 {
					t.Errorf("empty response under concurrency (err %v)", rsp.Err)
					return
				}
				served.Add(1)
			}
		}(uint64(w + 50))
	}
	wg.Wait()

	hits, misses, refreshes := h.cache.Stats()
	if hits < 0 || misses < 0 || refreshes < 0 {
		t.Fatal("negative cache counters")
	}
	// Each served request performs exactly two cache Gets.
	if hits+misses < 2*served.Load() {
		t.Fatalf("cache gets %d < 2x served %d", hits+misses, served.Load())
	}
}

// Concurrent misses on one cold id must coalesce onto a single
// synchronous fill (regression: each miss used to sample independently
// and race to overwrite the entry).
func TestCacheMissSingleFlight(t *testing.T) {
	h := buildHarness(t)
	var cold graph.NodeID = -1
	for _, id := range h.users {
		if h.g.Degree(id) > 0 {
			cold = id
			break
		}
	}
	if cold < 0 {
		t.Skip("no connected user")
	}
	hits0, misses0, _ := h.cache.Stats()

	const workers = 16
	var wg sync.WaitGroup
	results := make([]*Entry, workers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w + 100))
			<-start
			results[w] = h.cache.Get(cold, r)
		}(w)
	}
	close(start)
	wg.Wait()

	hits, misses, _ := h.cache.Stats()
	if got := misses - misses0; got != 1 {
		t.Fatalf("%d misses for one cold id, want exactly 1 (single-flight)", got)
	}
	if got := (hits - hits0) + (misses - misses0); got != workers {
		t.Fatalf("hits+misses advanced by %d, want %d", got, workers)
	}
	// Every worker must observe a fully filled entry of real neighbors
	// (an async refresh may have swapped the slice between observations,
	// so contents need not be identical — but shape and validity must).
	nbrSet := map[graph.NodeID]bool{}
	for _, e := range h.g.Neighbors(cold) {
		nbrSet[e.To] = true
	}
	for w := 0; w < workers; w++ {
		if len(results[w].Neighbors()) != len(results[0].Neighbors()) {
			t.Fatalf("worker %d saw %d neighbors, worker 0 saw %d", w, len(results[w].Neighbors()), len(results[0].Neighbors()))
		}
		for _, nb := range results[w].Neighbors() {
			if !nbrSet[nb] {
				t.Fatalf("worker %d got non-neighbor %d", w, nb)
			}
		}
	}
}

// Segment keys must align with engine shard ownership: every id mapped
// to a segment lives on the segment's shard, so a refresher's batch is
// one shard visit.
func TestCacheSegmentsAlignWithShards(t *testing.T) {
	h := buildHarness(t)
	segShard := make(map[*cacheSegment]int)
	for id := 0; id < h.g.NumNodes(); id++ {
		nid := graph.NodeID(id)
		seg := h.cache.seg(nid)
		shard := h.cache.eng.ShardOf(nid)
		if prev, ok := segShard[seg]; ok && prev != shard {
			t.Fatalf("segment holds ids of shards %d and %d", prev, shard)
		}
		segShard[seg] = shard
	}
	if len(h.cache.segs) < minCacheSegments {
		t.Fatalf("only %d segments, floor is %d", len(h.cache.segs), minCacheSegments)
	}
}

// The refresher path must batch: once the interval has passed, the first
// hit on each cached id queues it (the other hits queue nothing), the
// segment's refresher resamples them all through one scatter-gather
// call, and the replacements hold real neighbors.
func TestBatchedRefreshKeepsEntriesValid(t *testing.T) {
	h := buildHarness(t)
	pc := newPolicyCache(t, h.g, 4)
	r := rng.New(9)
	seg := pc.seg(h.users[0])
	var ids []graph.NodeID
	for id := 0; id < h.g.NumNodes(); id++ {
		if nid := graph.NodeID(id); pc.seg(nid) == seg && h.g.Degree(nid) > 0 {
			ids = append(ids, nid)
		}
	}
	for _, id := range ids {
		pc.Get(id, r).Release() // fill
	}
	pc.advance(refreshAfter)
	for i := 0; i < 200; i++ {
		pc.Get(ids[i%len(ids)], r).Release() // the first hit per id queues it
	}
	pc.settle(ids[0], int64(len(ids)))
	if n, b := pc.refreshes(), pc.batches.Load(); n != int64(len(ids)) || b != 1 {
		t.Fatalf("%d due ids: %d refreshes in %d batches, want %d in 1", len(ids), n, b, len(ids))
	}
	for _, id := range ids {
		nbrSet := map[graph.NodeID]bool{}
		for _, e := range h.g.Neighbors(id) {
			nbrSet[e.To] = true
		}
		e := pc.getCached(id)
		for _, nb := range e.Neighbors() {
			if !nbrSet[nb] {
				t.Fatalf("refreshed entry for %d contains non-neighbor %d", id, nb)
			}
		}
		e.Release()
	}
}

func BenchmarkServingEmbeddingScratch(b *testing.B) {
	h := buildHarness(b)
	r := rng.New(1)
	u, q := h.users[0], h.queries[0]
	nbrsU := h.cache.Get(u, r).Neighbors()
	nbrsQ := h.cache.Get(q, r).Neighbors()
	sc := h.emb.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.emb.UserQuery(u, q, nbrsU, nbrsQ, sc)
	}
}

// segmentIDs collects up to want connected ids that map to one cache
// segment, for driving its refresh path directly.
func segmentIDs(h *harness, want int) (*cacheSegment, []graph.NodeID) {
	c := h.cache
	seg := c.seg(h.users[0])
	var ids []graph.NodeID
	for id := 0; id < h.g.NumNodes() && len(ids) < want; id++ {
		nid := graph.NodeID(id)
		if c.seg(nid) == seg && h.g.Degree(nid) > 0 {
			ids = append(ids, nid)
		}
	}
	return seg, ids
}

// The refresh path must recycle entries through the segment pool: after
// the pool warms up, refreshing ids allocates nothing (regression: each
// refresh used to allocate one neighbor slice per refreshed id).
func TestRefreshPathDoesNotAllocate(t *testing.T) {
	h := buildHarness(t)
	seg, ids := segmentIDs(h, 8)
	if len(ids) < 2 {
		t.Skip("graph too small to land 2 connected ids in one segment")
	}
	r := rng.New(77)
	bs := engine.NewBatchScratch()
	out := make([]graph.NodeID, len(ids)*h.cache.k)
	ns := make([]int32, len(ids))
	// Two generations warm the pool: gen 1 populates the entries, gen 2
	// retires gen 1 into the pool while drawing on it for all but one
	// entry.
	h.cache.refreshIDs(seg, ids, out, ns, r, bs)
	h.cache.refreshIDs(seg, ids, out, ns, r, bs)
	if avg := testing.AllocsPerRun(50, func() {
		h.cache.refreshIDs(seg, ids, out, ns, r, bs)
	}); avg > 0 {
		t.Fatalf("steady-state refresh allocates %.1f objects per batch of %d ids", avg, len(ids))
	}
}

// A reader's entry must stay untouched while held, no matter how many
// refresh generations pass — the refcount keeps its buffer out of the
// recycling pool until Release.
func TestHeldEntrySurvivesRefreshes(t *testing.T) {
	h := buildHarness(t)
	seg, ids := segmentIDs(h, 4)
	if len(ids) == 0 {
		t.Skip("no connected ids in the probe segment")
	}
	r := rng.New(78)
	id := ids[0]
	held := h.cache.Get(id, r)
	snapshot := append([]graph.NodeID(nil), held.Neighbors()...)
	if len(snapshot) == 0 {
		t.Fatalf("connected node %d cached no neighbors", id)
	}
	bs := engine.NewBatchScratch()
	out := make([]graph.NodeID, len(ids)*h.cache.k)
	ns := make([]int32, len(ids))
	for gen := 0; gen < 20; gen++ {
		h.cache.refreshIDs(seg, ids, out, ns, r, bs)
	}
	got := held.Neighbors()
	if len(got) != len(snapshot) {
		t.Fatalf("held entry length changed %d -> %d across refreshes", len(snapshot), len(got))
	}
	for i := range snapshot {
		if got[i] != snapshot[i] {
			t.Fatalf("held entry mutated at %d: %d -> %d", i, snapshot[i], got[i])
		}
	}
	held.Release()
	// The current generation is still live and valid after the release.
	cur := h.cache.Get(id, r)
	nbrSet := map[graph.NodeID]bool{}
	for _, e := range h.g.Neighbors(id) {
		nbrSet[e.To] = true
	}
	for _, nb := range cur.Neighbors() {
		if !nbrSet[nb] {
			t.Fatalf("current entry contains non-neighbor %d", nb)
		}
	}
	cur.Release()
}

// BenchmarkCacheRefresh measures one segment refresh batch end to end —
// scatter-gather resample plus recycled-entry install. allocs/op pins
// the refresh path at zero steady-state allocations.
func BenchmarkCacheRefresh(b *testing.B) {
	h := buildHarness(b)
	seg, ids := segmentIDs(h, 16)
	if len(ids) == 0 {
		b.Skip("no connected ids in the probe segment")
	}
	r := rng.New(79)
	bs := engine.NewBatchScratch()
	out := make([]graph.NodeID, len(ids)*h.cache.k)
	ns := make([]int32, len(ids))
	h.cache.refreshIDs(seg, ids, out, ns, r, bs)
	h.cache.refreshIDs(seg, ids, out, ns, r, bs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.cache.refreshIDs(seg, ids, out, ns, r, bs)
	}
}
