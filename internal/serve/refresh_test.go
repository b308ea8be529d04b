package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/rng"
)

// countingBackend wraps a shard store: it counts scatter-gather batch
// calls and, while down is set, fails every sample like a dead remote
// shard.
type countingBackend struct {
	engine.ShardBackend
	batches *atomic.Int64
	down    *atomic.Bool
}

func (b countingBackend) SampleIntoBy(id graph.NodeID, out []graph.NodeID, r *rng.RNG, deadline time.Time) (int, error) {
	if b.down.Load() {
		return 0, engine.ErrShardUnavailable
	}
	return b.ShardBackend.SampleIntoBy(id, out, r, deadline)
}

func (b countingBackend) SampleBatchInto(gids []graph.NodeID, idx []int32, base uint64, k int, out []graph.NodeID, ns []int32) (int, error) {
	b.batches.Add(1)
	if b.down.Load() {
		return 0, engine.ErrShardUnavailable
	}
	return b.ShardBackend.SampleBatchInto(gids, idx, base, k, out, ns)
}

// policyCache is a NeighborCache whose refresh policy the test drives:
// the clock only moves when the test advances it, a refresher's gather
// window never closes on its own (settle closes it), and every shard
// call goes through a countingBackend.
type policyCache struct {
	*NeighborCache
	t       *testing.T
	clock   atomic.Int64
	batches atomic.Int64
	down    atomic.Bool
}

func newPolicyCache(t *testing.T, g *graph.Graph, shards int) *policyCache {
	t.Helper()
	local := engine.New(g, engine.Config{Shards: shards})
	pc := &policyCache{t: t}
	groups := make([][]engine.ShardBackend, shards)
	for i := range groups {
		groups[i] = []engine.ShardBackend{countingBackend{local.Backend(i), &pc.batches, &pc.down}}
	}
	eng := engine.NewWithReplicaSets(local.Routing(), groups, local.ContentDim())
	pc.NeighborCache = newNeighborCache(eng, 8, 3, pc.clock.Load, time.Hour, make(chan struct{}))
	t.Cleanup(pc.Close)
	return pc
}

func (pc *policyCache) advance(d time.Duration) { pc.clock.Add(int64(d)) }

// due reads the schedule of id's current entry.
func (pc *policyCache) due(id graph.NodeID) int64 {
	seg := pc.seg(id)
	seg.mu.RLock()
	defer seg.mu.RUnlock()
	return seg.entries[id].due.Load()
}

func (pc *policyCache) refreshes() int64 {
	_, _, n := pc.Stats()
	return n
}

// settle lets the refresher of id's segment pull everything queued,
// closes its gather window, and waits until the cache has refreshed want
// ids in all. The segment must end with a partial batch pending.
func (pc *policyCache) settle(id graph.NodeID, want int64) {
	pc.t.Helper()
	seg := pc.seg(id)
	waitFor(pc.t, "the refresher to drain its queue", func() bool { return len(seg.refresh) == 0 })
	select {
	case pc.flush <- struct{}{}:
	case <-time.After(10 * time.Second):
		pc.t.Fatal("no refresher was gathering a batch")
	}
	waitFor(pc.t, "the refresh batch to install", func() bool { return pc.refreshes() >= want })
}

// waitFor yields until cond holds; the timeout only turns a hang into a
// failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// ringGraph is n users, each linked to the next around a ring.
func ringGraph(n int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(graph.User, nil, nil)
	}
	for i := 0; i < n; i++ {
		b.AddUndirected(graph.NodeID(i), graph.NodeID((i+1)%n), graph.Click, 1)
	}
	return b.Build()
}

// Hits refresh by age: any number of hits inside the interval queue
// nothing, concurrent hits on a due entry queue it exactly once, and the
// replacement serves a full interval before the next one.
func TestRefreshOncePerInterval(t *testing.T) {
	pc := newPolicyCache(t, ringGraph(64), 1)
	r := rng.New(1)
	id := graph.NodeID(7)
	pc.Get(id, r).Release() // miss: due refreshAfter from now

	pc.advance(refreshAfter - 1)
	for i := 0; i < 100; i++ {
		pc.Get(id, r).Release()
	}
	if d := pc.due(id); d >= claimedStale {
		t.Fatal("a hit inside the interval claimed the entry for refresh")
	}

	pc.advance(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 50; i++ {
				pc.Get(id, r).Release()
			}
		}(uint64(w + 10))
	}
	wg.Wait()
	pc.settle(id, 1)
	if n, b := pc.refreshes(), pc.batches.Load(); n != 1 || b != 1 {
		t.Fatalf("400 hits on a due entry: %d refreshes in %d batches, want 1 in 1", n, b)
	}

	for i := 0; i < 100; i++ {
		pc.Get(id, r).Release()
	}
	if d, now := pc.due(id), pc.clock.Load(); d != now+int64(refreshAfter) {
		t.Fatalf("refreshed entry due at %d, want %d (now + refreshAfter)", d, now+int64(refreshAfter))
	}
	pc.advance(refreshAfter)
	pc.Get(id, r).Release()
	pc.settle(id, 2)
	if n, b := pc.refreshes(), pc.batches.Load(); n != 2 || b != 2 {
		t.Fatalf("after a second interval: %d refreshes in %d batches, want 2 in 2", n, b)
	}
}

// Ids falling due together reach the shard in ⌈K/refreshBatch⌉ batch
// calls, not one per id.
func TestRefreshBatchesDueIDs(t *testing.T) {
	pc := newPolicyCache(t, ringGraph(2048), 1)
	r := rng.New(2)
	seg := pc.seg(0)
	var ids []graph.NodeID
	for id := graph.NodeID(0); int(id) < 2048 && len(ids) < cap(seg.refresh); id++ {
		if pc.seg(id) == seg {
			ids = append(ids, id)
		}
	}
	if len(ids)%refreshBatch == 0 {
		ids = ids[:len(ids)-1] // settle needs a partial batch at the end
	}
	if len(ids) <= refreshBatch {
		t.Fatalf("only %d ids in the probe segment, want more than one batch", len(ids))
	}
	for _, id := range ids {
		pc.Get(id, r).Release()
	}
	pc.advance(refreshAfter)
	for _, id := range ids {
		pc.Get(id, r).Release()
	}
	pc.settle(ids[0], int64(len(ids)))
	want := int64((len(ids) + refreshBatch - 1) / refreshBatch)
	if got := pc.batches.Load(); got != want {
		t.Fatalf("%d due ids reached the shard in %d batch calls, want %d", len(ids), got, want)
	}
}

// InvalidateNodes does not wait for the interval: a fresh entry is
// queued at once, and one invalidated while its refresh is pending gets a
// replacement installed already due, since that sample may predate the
// append.
func TestInvalidateBypassesInterval(t *testing.T) {
	pc := newPolicyCache(t, ringGraph(64), 1)
	r := rng.New(3)
	id := graph.NodeID(3)
	pc.Get(id, r).Release()
	pc.InvalidateNodes(id)
	if d := pc.due(id); d != claimed {
		t.Fatalf("invalidated entry is due at %d, want queued for refresh", d)
	}
	pc.settle(id, 1)
	if d := pc.due(id); d != pc.clock.Load()+int64(refreshAfter) {
		t.Fatalf("invalidated entry's replacement due at %d, want one interval out", d)
	}

	pc.InvalidateNodes(id) // queued again
	pc.InvalidateNodes(id) // pending: marked stale
	pc.InvalidateNodes(id) // already marked
	if d := pc.due(id); d != claimedStale {
		t.Fatalf("entry invalidated mid-refresh is due at %d, want marked stale", d)
	}
	pc.settle(id, 2)
	if d := pc.due(id); d > pc.clock.Load() {
		t.Fatalf("replacement of an entry invalidated mid-refresh is due at %d, want due now (%d)", d, pc.clock.Load())
	}
}

// A miss filled during an outage installs an empty set already due: once
// the shard is back, one hit heals it within a refresher wake — the
// clock never reaches refreshAfter.
func TestDegradedEntryHeals(t *testing.T) {
	pc := newPolicyCache(t, ringGraph(64), 1)
	r := rng.New(4)
	id := graph.NodeID(9)
	pc.down.Store(true)
	e := pc.Get(id, r)
	if n := len(e.Neighbors()); n != 0 {
		t.Fatalf("miss during an outage served %d neighbors", n)
	}
	e.Release()

	pc.down.Store(false)
	pc.Get(id, r).Release()
	pc.settle(id, 1)
	e = pc.getCached(id)
	defer e.Release()
	if n := len(e.Neighbors()); n != pc.k {
		t.Fatalf("healed entry holds %d neighbors, want %d", n, pc.k)
	}
}
