package rpc

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

// Killing a shard server must surface as the typed ErrShardUnavailable —
// promptly (no hang) and with every batch count zeroed (no partial
// results) — and a server restarted on the same address must be served
// again transparently by the pooled client's redial path.
func TestShardFailureAndReconnect(t *testing.T) {
	g := buildGraph(t)
	const shards = 2
	local := engine.New(g, engine.Config{Shards: 1})

	srv := NewServer(g, ServerConfig{Shards: shards, Strategy: partition.Hash})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	srv.Start(ln)

	cluster, err := DialClusterWith(ClientConfig{}, addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cluster.Close()
	remote := cluster.Engine

	const k = 4
	ids := make([]graph.NodeID, 32)
	r := rng.New(9)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	out := make([]graph.NodeID, len(ids)*k)
	ns := make([]int32, len(ids))
	if _, err := remote.SampleNeighborsBatchInto(ids, k, out, ns, rng.New(1), engine.NewBatchScratch()); err != nil {
		t.Fatalf("warm batch: %v", err)
	}

	// Kill the server: listener and every open (pooled) connection die.
	srv.Close()

	for i := range ns {
		ns[i] = 7 // sentinel: must be zeroed on failure
	}
	start := time.Now()
	n, err := remote.SampleNeighborsBatchInto(ids, k, out, ns, rng.New(2), engine.NewBatchScratch())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("batch against a dead shard succeeded")
	}
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("error %v is not ErrShardUnavailable", err)
	}
	if n != 0 {
		t.Fatalf("dead-shard batch reported %d draws", n)
	}
	for i, v := range ns {
		if v != 0 {
			t.Fatalf("dead-shard batch left count %d at entry %d (partial-result corruption)", v, i)
		}
	}
	if elapsed > 4*time.Second {
		t.Fatalf("dead-shard batch took %v (hang)", elapsed)
	}
	// The single-sample path surfaces the same typed error without
	// consuming the caller's stream.
	rr := rng.New(77)
	st := rr.State()
	if _, err := remote.TrySampleNeighborsIntoBy(ids[0], out[:k], rr, time.Time{}); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("single sample error %v is not ErrShardUnavailable", err)
	}
	if rr.State() != st {
		t.Fatal("failed single sample consumed the RNG stream")
	}

	// Restart on the same address: the next call redials and must again
	// be bit-identical to the in-process engine.
	srv2 := NewServer(g, ServerConfig{Shards: shards, Strategy: partition.Hash})
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2.Start(ln2)
	defer srv2.Close()

	want := make([]graph.NodeID, len(ids)*k)
	wantNs := make([]int32, len(ids))
	if _, err := local.SampleNeighborsBatchInto(ids, k, want, wantNs, rng.New(3), engine.NewBatchScratch()); err != nil {
		t.Fatalf("local batch: %v", err)
	}
	if _, err := remote.SampleNeighborsBatchInto(ids, k, out, ns, rng.New(3), engine.NewBatchScratch()); err != nil {
		t.Fatalf("post-restart batch: %v", err)
	}
	for i := range ids {
		if wantNs[i] != ns[i] {
			t.Fatalf("post-restart entry %d: count %d, local %d", i, ns[i], wantNs[i])
		}
		for j := 0; j < int(wantNs[i]); j++ {
			if want[i*k+j] != out[i*k+j] {
				t.Fatalf("post-restart entry %d draw %d differs", i, j)
			}
		}
	}
}

// Hammer batches while the server dies and comes back: every call must
// either succeed with fully consistent counts (each entry 0 or k) or
// fail typed with every count zeroed — never a half-written batch.
func TestNoPartialResultsUnderChurn(t *testing.T) {
	g := buildGraph(t)
	srv := NewServer(g, ServerConfig{Shards: 2, Strategy: partition.Hash})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	srv.Start(ln)
	cluster, err := DialClusterWith(ClientConfig{}, addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cluster.Close()
	remote := cluster.Engine

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn: kill and restart the server continuously
		defer wg.Done()
		alive, cur := true, srv
		var curLn net.Listener
		for {
			select {
			case <-stop:
				if alive {
					cur.Close()
				}
				return
			case <-time.After(20 * time.Millisecond):
			}
			if alive {
				cur.Close()
				alive = false
			} else {
				cur = NewServer(g, ServerConfig{Shards: 2, Strategy: partition.Hash})
				var err error
				curLn, err = net.Listen("tcp", addr)
				if err != nil {
					continue // previous socket not released yet; retry next tick
				}
				cur.Start(curLn)
				alive = true
			}
		}
	}()

	const k = 3
	ids := make([]graph.NodeID, 16)
	r := rng.New(11)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	out := make([]graph.NodeID, len(ids)*k)
	ns := make([]int32, len(ids))
	okCalls, failCalls := 0, 0
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for i := range ns {
			ns[i] = 7
		}
		_, err := remote.SampleNeighborsBatchInto(ids, k, out, ns, r, engine.NewBatchScratch())
		if err != nil {
			failCalls++
			if !errors.Is(err, ErrShardUnavailable) {
				t.Fatalf("untyped failure: %v", err)
			}
			for i, v := range ns {
				if v != 0 {
					t.Fatalf("failed batch left count %d at entry %d", v, i)
				}
			}
			continue
		}
		okCalls++
		for i, v := range ns {
			if v != 0 && v != k {
				t.Fatalf("successful batch has inconsistent count %d at entry %d", v, i)
			}
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("churn: %d ok, %d typed failures", okCalls, failCalls)
	if okCalls == 0 {
		t.Fatal("no batch ever succeeded under churn")
	}
}

// The pooled client must be safe under concurrent callers (run with
// -race): connections are checked out per call, so parallel batches,
// singles and attribute reads share the pool without corruption.
func TestClientPoolConcurrency(t *testing.T) {
	g := buildGraph(t)
	_, cluster := startCluster(t, g, 4, partition.Hash, [][]int{{0, 1}, {2, 3}})
	remote := cluster.Engine

	const workers, iters, batch, k = 8, 60, 24, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			bs := engine.NewBatchScratch()
			ids := make([]graph.NodeID, batch)
			out := make([]graph.NodeID, batch*k)
			ns := make([]int32, batch)
			single := make([]graph.NodeID, k)
			for it := 0; it < iters; it++ {
				for i := range ids {
					ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
				}
				if _, err := remote.SampleNeighborsBatchInto(ids, k, out, ns, r, bs); err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				for i := range ids {
					for j := 0; j < int(ns[i]); j++ {
						if int(out[i*k+j]) >= g.NumNodes() {
							t.Errorf("out-of-range draw %d", out[i*k+j])
							return
						}
					}
				}
				if _, err := remote.TrySampleNeighborsIntoBy(ids[0], single, r, time.Time{}); err != nil {
					t.Errorf("single: %v", err)
					return
				}
				if nbrs := remote.Neighbors(ids[1]); len(nbrs) != g.Degree(ids[1]) {
					t.Errorf("neighbors of %d: %d edges, want %d", ids[1], len(nbrs), g.Degree(ids[1]))
					return
				}
			}
		}(uint64(w + 20))
	}
	wg.Wait()
}
