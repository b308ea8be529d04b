package rpc

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/serve"
)

// migrate moves one partition from src to dst in the zero-downtime
// order: the destination acquires before the source drains, so the
// partition is never unowned.
func migrate(t *testing.T, shard int, src, dst *Server) {
	t.Helper()
	if _, err := dst.acquirePartition(shard); err != nil {
		t.Fatalf("acquire %d: %v", shard, err)
	}
	if _, err := src.releasePartition(shard); err != nil {
		t.Fatalf("release %d: %v", shard, err)
	}
}

// The live-handoff pin: a partition migrates between two live servers
// while a caller samples continuously, and the caller observes nothing —
// zero failed calls, every draw bit-identical to the in-process engine
// (itself pinned identical to a static cluster by the loopback
// equivalence tests), the RNG stream intact. Afterwards the moved
// shard's traffic demonstrably lands on the new owner.
func TestLiveHandoffDeterministic(t *testing.T) {
	g := buildGraph(t)
	const shards, k, moved = 4, 5, 1
	local := engine.New(g, engine.Config{Shards: 1})
	servers, cluster := startCluster(t, g, shards, partition.Hash,
		[][]int{{0, 1}, {2, 3}})
	remote := cluster.Engine
	srcSrv, dstSrv := servers[0], servers[1]

	// A continuous background sampler: single draws in lockstep against
	// its own local reference stream, all through the migrations below.
	stop := make(chan struct{})
	samplerErr := make(chan error, 1)
	var sampled int
	go func() {
		defer close(samplerErr)
		rl, rr := rng.New(555), rng.New(555)
		want := make([]graph.NodeID, k)
		got := make([]graph.NodeID, k)
		for id := 0; ; id = (id + 1) % g.NumNodes() {
			select {
			case <-stop:
				return
			default:
			}
			nid := graph.NodeID(id)
			nw := local.SampleNeighborsInto(nid, want, rl)
			ng, err := remote.TrySampleNeighborsIntoBy(nid, got, rr, time.Time{})
			if err != nil {
				samplerErr <- err
				return
			}
			if nw != ng {
				samplerErr <- errors.New("sampler count diverged")
				return
			}
			for i := 0; i < nw; i++ {
				if want[i] != got[i] {
					samplerErr <- errors.New("sampler draw diverged")
					return
				}
			}
			sampled++
		}
	}()

	// Deterministic lockstep batches with migrations between fixed steps:
	// shard 1 moves A→B at step 3 and back B→A at step 7. The remote
	// stream must stay bit-identical to the local one across both moves.
	rl, rr := rng.New(123), rng.New(123)
	idsRNG := rng.New(7)
	ids := make([]graph.NodeID, 96)
	want := make([]graph.NodeID, len(ids)*k)
	wantNs := make([]int32, len(ids))
	got := make([]graph.NodeID, len(ids)*k)
	gotNs := make([]int32, len(ids))
	bsL, bsR := engine.NewBatchScratch(), engine.NewBatchScratch()
	for step := 0; step < 10; step++ {
		switch step {
		case 3:
			migrate(t, moved, srcSrv, dstSrv)
		case 7:
			migrate(t, moved, dstSrv, srcSrv)
		}
		for i := range ids {
			ids[i] = graph.NodeID(idsRNG.Intn(g.NumNodes()))
		}
		if _, err := local.SampleNeighborsBatchInto(ids, k, want, wantNs, rl, bsL); err != nil {
			t.Fatalf("step %d: local batch: %v", step, err)
		}
		if _, err := remote.SampleNeighborsBatchInto(ids, k, got, gotNs, rr, bsR); err != nil {
			t.Fatalf("step %d: remote batch failed during handoff: %v", step, err)
		}
		for i := range ids {
			if wantNs[i] != gotNs[i] {
				t.Fatalf("step %d entry %d: count %d, want %d", step, i, gotNs[i], wantNs[i])
			}
			for j := 0; j < int(wantNs[i]); j++ {
				if want[i*k+j] != got[i*k+j] {
					t.Fatalf("step %d entry %d draw %d: %d, want %d (draws diverged across handoff)",
						step, i, j, got[i*k+j], want[i*k+j])
				}
			}
		}
	}
	if a, b := rl.Uint64(), rr.Uint64(); a != b {
		t.Fatalf("RNG streams diverged across the handoffs: %d vs %d", a, b)
	}

	close(stop)
	if err := <-samplerErr; err != nil {
		t.Fatalf("continuous sampler surfaced a failure: %v", err)
	}
	if sampled == 0 {
		t.Fatal("continuous sampler never ran")
	}

	// The engine refreshed its ownership view at least twice (one per
	// drain it ran into).
	if remote.Epoch() < 2 {
		t.Fatalf("engine epoch %d after two migrations, want >= 2", remote.Epoch())
	}

	// Traffic proof: shard 1 is back on server A; batches of shard-1 ids
	// must land there and not on B.
	var shard1 []graph.NodeID
	for id := 0; len(shard1) < 16 && id < g.NumNodes(); id++ {
		if remote.ShardOf(graph.NodeID(id)) == moved {
			shard1 = append(shard1, graph.NodeID(id))
		}
	}
	beforeA, beforeB := srcSrv.OpCount(OpBatch), dstSrv.OpCount(OpBatch)
	if _, err := remote.SampleNeighborsBatchInto(shard1, k, got[:len(shard1)*k], gotNs[:len(shard1)], rr, bsR); err != nil {
		t.Fatalf("post-handoff batch: %v", err)
	}
	if d := srcSrv.OpCount(OpBatch) - beforeA; d != 1 {
		t.Fatalf("returned owner served %d batch round trips, want 1", d)
	}
	if d := dstSrv.OpCount(OpBatch) - beforeB; d != 0 {
		t.Fatalf("drained server still served %d batch round trips", d)
	}
}

// At the raw client level a drained partition answers with the typed
// wrong-epoch redirect over a healthy connection: it satisfies
// errors.Is(err, engine.ErrWrongEpoch), is not ErrShardUnavailable, does
// not kill the connection, and does not count against the health
// circuit. Neither does the refusal of a retired op byte.
func TestDrainedShardRedirectsTyped(t *testing.T) {
	g := buildGraph(t)
	const shards = 2
	srv, addr := startServer(t, g, ServerConfig{Shards: shards, Strategy: partition.Hash})
	cl := newClient(addr, ClientConfig{})
	t.Cleanup(func() { cl.Close() })

	var onShard0, onShard1 graph.NodeID = -1, -1
	part := partition.SplitOpts(g, shards, partition.Hash, partition.Options{})
	for id := 0; id < g.NumNodes() && (onShard0 < 0 || onShard1 < 0); id++ {
		if part.Owner(graph.NodeID(id)) == 0 && onShard0 < 0 {
			onShard0 = graph.NodeID(id)
		} else if part.Owner(graph.NodeID(id)) == 1 && onShard1 < 0 {
			onShard1 = graph.NodeID(id)
		}
	}

	if epoch, err := srv.releasePartition(1); err != nil || epoch != 1 {
		t.Fatalf("release: epoch %d, err %v", epoch, err)
	}
	rs := newRemoteShard(cl, 1, 0, 0)
	out := make([]graph.NodeID, 4)
	ns := make([]int32, 1)
	_, err := rs.SampleBatchInto([]graph.NodeID{onShard1}, []int32{0}, 9, 4, out, ns)
	if err == nil {
		t.Fatal("batch against a drained shard succeeded")
	}
	if !errors.Is(err, engine.ErrWrongEpoch) {
		t.Fatalf("error %v is not engine.ErrWrongEpoch", err)
	}
	if errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("redirect %v mislabeled as a transport failure", err)
	}
	r := rng.New(1)
	if _, err := rs.SampleIntoBy(onShard1, out, r, time.Time{}); !errors.Is(err, engine.ErrWrongEpoch) {
		t.Fatalf("single-sample redirect: %v", err)
	}

	// The retired single-node read ops (bytes 5-7) are answered the same
	// way — the unknown-op error frame over a healthy connection — and
	// counted against nothing.
	for op := Op(5); op <= 7; op++ {
		err := cl.call(op, func(b []byte) []byte { return appendU32(b, uint32(onShard0)) }, func([]byte) error { return nil })
		var re *remoteError
		if !errors.As(err, &re) || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("retired op %d: got %v, want the server's unknown-op error", byte(op), err)
		}
		if n := srv.OpCount(op); n != 0 {
			t.Fatalf("retired op %d counted %d served requests", byte(op), n)
		}
	}

	// The connection survived and the circuit never opened: an owned-shard
	// read on the same client succeeds immediately, even after enough
	// redirects and refusals to trip a failure threshold.
	for i := 0; i < 5; i++ {
		rs.SampleBatchInto([]graph.NodeID{onShard1}, []int32{0}, 9, 4, out, ns)
	}
	rs0 := newRemoteShard(cl, 0, 0, 0)
	if _, err := rs0.SampleIntoBy(onShard0, out, r, time.Time{}); err != nil {
		t.Fatalf("healthy shard read after redirects: %v", err)
	}

	// Reassign ops are idempotent: re-releasing keeps the epoch, and a
	// remote acquire brings the shard back at a bumped epoch.
	if epoch, err := cl.Reassign(1, false); err != nil || epoch != 1 {
		t.Fatalf("idempotent release: epoch %d, err %v", epoch, err)
	}
	if epoch, err := cl.Reassign(1, true); err != nil || epoch != 2 {
		t.Fatalf("remote acquire: epoch %d, err %v", epoch, err)
	}
	if epoch, owned, _, err := cl.routingEpoch(); err != nil || epoch != 2 || len(owned) != 2 {
		t.Fatalf("routing-epoch poll: epoch %d, %d owned, err %v", epoch, len(owned), err)
	}
	if n, err := rs.SampleBatchInto([]graph.NodeID{onShard1}, []int32{0}, 9, 4, out, ns); err != nil || n != 4 {
		t.Fatalf("reacquired shard: n=%d err=%v", n, err)
	}
}

// The fault pin for handoff: drains race in-flight multiplexed windows.
// Concurrent workers keep full windows of batches in flight (1
// connection, tiny window, overlapped multi-shard visits) while the
// migration loop bounces a partition between two live servers. Every
// call must succeed and every draw must stay bit-identical to the local
// engine — requests dispatched before a drain complete against the old
// owner, requests after it are redirected, refreshed and retried, and
// nothing is ever half-written. Run under -race by `make race`.
func TestHandoffRacingInFlightWindows(t *testing.T) {
	g := buildGraph(t)
	const shards, moved = 4, 2
	local := engine.New(g, engine.Config{Shards: 1})
	servers := make([]*Server, 2)
	addrs := make([]string, 2)
	for i, owned := range [][]int{{0, 1}, {2, 3}} {
		servers[i], addrs[i] = startServer(t, g, ServerConfig{
			Shards: shards, Strategy: partition.Hash, Owned: owned,
			ConnWorkers: 2, ConnWindow: 8,
		})
	}
	cluster, err := DialClusterWith(ClientConfig{Conns: 1, Window: 4}, addrs...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	remote := cluster.Engine

	stop := make(chan struct{})
	var migrations int
	var mwg sync.WaitGroup
	mwg.Add(1)
	go func() { // migration loop: bounce the partition A→B→A→…
		defer mwg.Done()
		src, dst := servers[0], servers[1]
		// Start with shard 2 on B (initial layout); first move is B→A.
		src, dst = dst, src
		for {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			if _, err := dst.acquirePartition(moved); err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			if _, err := src.releasePartition(moved); err != nil {
				t.Errorf("release: %v", err)
				return
			}
			migrations++
			src, dst = dst, src
		}
	}()

	const workers, iters, batch, k = 6, 120, 32, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			idsR := rng.New(seed)
			rl, rr := rng.New(seed+100), rng.New(seed+100)
			bsL, bsR := engine.NewBatchScratch(), engine.NewBatchScratch()
			ids := make([]graph.NodeID, batch)
			want := make([]graph.NodeID, batch*k)
			wantNs := make([]int32, batch)
			got := make([]graph.NodeID, batch*k)
			gotNs := make([]int32, batch)
			single := make([]graph.NodeID, k)
			wantSingle := make([]graph.NodeID, k)
			for it := 0; it < iters; it++ {
				for i := range ids {
					ids[i] = graph.NodeID(idsR.Intn(g.NumNodes()))
				}
				if _, err := local.SampleNeighborsBatchInto(ids, k, want, wantNs, rl, bsL); err != nil {
					t.Errorf("local batch: %v", err)
					return
				}
				if _, err := remote.SampleNeighborsBatchInto(ids, k, got, gotNs, rr, bsR); err != nil {
					t.Errorf("remote batch failed during handoff churn: %v", err)
					return
				}
				for i := range ids {
					if wantNs[i] != gotNs[i] {
						t.Errorf("entry %d: count %d, want %d", i, gotNs[i], wantNs[i])
						return
					}
					for j := 0; j < int(wantNs[i]); j++ {
						if want[i*k+j] != got[i*k+j] {
							t.Errorf("entry %d draw %d diverged during handoff churn", i, j)
							return
						}
					}
				}
				nw := local.SampleNeighborsInto(ids[0], wantSingle, rl)
				ng, err := remote.TrySampleNeighborsIntoBy(ids[0], single, rr, time.Time{})
				if err != nil {
					t.Errorf("single sample failed during handoff churn: %v", err)
					return
				}
				if nw != ng {
					t.Errorf("single count diverged: %d vs %d", ng, nw)
					return
				}
				for i := 0; i < nw; i++ {
					if wantSingle[i] != single[i] {
						t.Errorf("single draw %d diverged", i)
						return
					}
				}
			}
		}(uint64(w + 31))
	}
	wg.Wait()
	close(stop)
	mwg.Wait()
	if t.Failed() {
		return
	}
	if migrations == 0 {
		t.Fatal("migration loop never moved the partition; the race was not exercised")
	}
	t.Logf("handoff churn: %d migrations under %d workers, engine epoch %d", migrations, workers, remote.Epoch())
}

// The serving tier must ride through a handoff untouched: a neighbor
// cache (miss fills + async refreshers, all through the remote engine)
// keeps answering while its shard's partition migrates, and every entry
// it returns stays a plausible neighbor set.
func TestServeCacheFollowsHandoff(t *testing.T) {
	g := buildGraph(t)
	const shards, cacheK, moved = 4, 8, 3
	servers, cluster := startCluster(t, g, shards, partition.Hash,
		[][]int{{0, 1}, {2, 3}})
	remote := cluster.Engine
	cache := serve.NewNeighborCache(remote, cacheK, 77)
	defer cache.Close()

	r := rng.New(3)
	touch := func(rounds int) {
		for i := 0; i < rounds; i++ {
			for id := 0; id < g.NumNodes(); id += 3 {
				e := cache.Get(graph.NodeID(id), r)
				if n := len(e.Neighbors()); n > cacheK {
					t.Fatalf("entry for %d has %d neighbors, cap %d", id, n, cacheK)
				}
				e.Release()
			}
		}
	}
	touch(2) // warm: miss fills + queued refreshes across every segment
	migrate(t, moved, servers[1], servers[0])
	touch(2) // shard 3 now on server 0; fills and refreshers must follow
	migrate(t, moved, servers[0], servers[1])
	touch(2)
	hits, misses, _ := cache.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("cache never exercised: %d hits, %d misses", hits, misses)
	}
}
