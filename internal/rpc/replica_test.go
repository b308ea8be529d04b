package rpc

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

// startReplicaServer starts one advertising shard server owning the
// given partitions. The listener is opened first so the advertised
// address (which travels in routing-epoch member views) is the real
// dialable one.
func startReplicaServer(t testing.TB, g *graph.Graph, shards int, owned []int) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	s := NewServer(g, ServerConfig{
		Shards: shards, Strategy: partition.Hash, Owned: owned,
		Advertise: addr,
	})
	s.Start(ln)
	t.Cleanup(func() { s.Close() })
	return s, addr
}

// Two servers owning every partition form 2-way replica groups: the
// engine spreads reads across both, and the draws stay bit-identical to
// a local engine (the replica serving a call never changes its result).
func TestReplicatedClusterSpreadsLoad(t *testing.T) {
	g := buildGraph(t)
	const shards = 4
	all := []int{0, 1, 2, 3}
	srvA, addrA := startReplicaServer(t, g, shards, all)
	srvB, addrB := startReplicaServer(t, g, shards, all)
	cluster, err := DialClusterWith(ClientConfig{}, addrA, addrB)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	remote := cluster.Engine
	for id := 0; id < shards; id++ {
		if got := len(remote.ReplicaSet(id)); got != 2 {
			t.Fatalf("shard %d bound to %d replicas, want 2", id, got)
		}
	}

	local := engine.New(g, engine.Config{Shards: 1})
	rl, rr := rng.New(42), rng.New(42)
	want := make([]graph.NodeID, 6)
	got := make([]graph.NodeID, 6)
	for id := 0; id < 200; id++ {
		nid := graph.NodeID(id % g.NumNodes())
		nw := local.SampleNeighborsInto(nid, want, rl)
		ng, err := remote.TrySampleNeighborsIntoBy(nid, got, rr, time.Time{})
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		if nw != ng {
			t.Fatalf("node %d: %d draws, want %d", id, ng, nw)
		}
		for i := 0; i < nw; i++ {
			if want[i] != got[i] {
				t.Fatalf("node %d draw %d: %d, want %d", id, i, got[i], want[i])
			}
		}
	}
	a, b := srvA.OpCount(OpSample), srvB.OpCount(OpSample)
	if a == 0 || b == 0 {
		t.Fatalf("load not spread across replicas: %d / %d sample ops", a, b)
	}
}

// Acceptance pin: killing a single replica mid-run yields no
// caller-visible error — single draws and scatter-gather batches fail
// over to the surviving replica and stay bit-identical to an
// undisturbed local engine.
func TestKillReplicaMidBatch(t *testing.T) {
	g := buildGraph(t)
	const shards = 4
	all := []int{0, 1, 2, 3}
	srvA, addrA := startReplicaServer(t, g, shards, all)
	_, addrB := startReplicaServer(t, g, shards, all)
	cluster, err := DialClusterWith(ClientConfig{}, addrA, addrB)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	cluster.pollTimeout = 300 * time.Millisecond
	remote := cluster.Engine
	local := engine.New(g, engine.Config{Shards: 1})

	const k = 5
	r := rng.New(9)
	ids := make([]graph.NodeID, 48)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	wantOut := make([]graph.NodeID, len(ids)*k)
	wantNs := make([]int32, len(ids))
	gotOut := make([]graph.NodeID, len(ids)*k)
	gotNs := make([]int32, len(ids))
	rl, rr := rng.New(77), rng.New(77)
	single := make([]graph.NodeID, k)
	singleWant := make([]graph.NodeID, k)

	for round := 0; round < 10; round++ {
		if round == 3 {
			srvA.Close() // one replica of every group dies mid-run
		}
		if _, err := local.SampleNeighborsBatchInto(ids, k, wantOut, wantNs, rl, engine.NewBatchScratch()); err != nil {
			t.Fatalf("local batch: %v", err)
		}
		if _, err := remote.SampleNeighborsBatchInto(ids, k, gotOut, gotNs, rr, engine.NewBatchScratch()); err != nil {
			t.Fatalf("round %d: batch after replica kill: %v", round, err)
		}
		for i := range ids {
			if wantNs[i] != gotNs[i] {
				t.Fatalf("round %d entry %d: count %d, want %d", round, i, gotNs[i], wantNs[i])
			}
			for j := 0; j < int(wantNs[i]); j++ {
				if wantOut[i*k+j] != gotOut[i*k+j] {
					t.Fatalf("round %d entry %d draw %d diverged", round, i, j)
				}
			}
		}
		nid := graph.NodeID((round * 13) % g.NumNodes())
		nw := local.SampleNeighborsInto(nid, singleWant, rl)
		ng, err := remote.TrySampleNeighborsIntoBy(nid, single, rr, time.Time{})
		if err != nil {
			t.Fatalf("round %d: single draw after replica kill: %v", round, err)
		}
		if nw != ng {
			t.Fatalf("round %d: single draw count %d, want %d", round, ng, nw)
		}
		for i := 0; i < nw; i++ {
			if singleWant[i] != single[i] {
				t.Fatalf("round %d single draw %d diverged", round, i)
			}
		}
	}
}

// Zero healthy replicas degrades typed-and-loud, not with a hang or a
// panic: the surfaced error matches both engine.ErrNoReplicas and
// ErrShardUnavailable.
func TestZeroHealthyReplicasTyped(t *testing.T) {
	g := buildGraph(t)
	all := []int{0, 1}
	srvA, addrA := startReplicaServer(t, g, 2, all)
	srvB, addrB := startReplicaServer(t, g, 2, all)
	cluster, err := DialClusterWith(ClientConfig{}, addrA, addrB)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	cluster.pollTimeout = 300 * time.Millisecond
	remote := cluster.Engine

	r := rng.New(5)
	out := make([]graph.NodeID, 4)
	if _, err := remote.TrySampleNeighborsIntoBy(0, out, r, time.Time{}); err != nil {
		t.Fatalf("warm draw: %v", err)
	}
	srvA.Close()
	srvB.Close()

	_, err = remote.TrySampleNeighborsIntoBy(0, out, r, time.Time{})
	if err == nil {
		t.Fatal("draw against a fully dead cluster succeeded")
	}
	if !errors.Is(err, engine.ErrNoReplicas) {
		t.Fatalf("error %v does not match engine.ErrNoReplicas", err)
	}
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("error %v does not match ErrShardUnavailable", err)
	}

	ids := []graph.NodeID{0, 1, 2, 3}
	bout := make([]graph.NodeID, len(ids)*4)
	ns := make([]int32, len(ids))
	if _, err := remote.SampleNeighborsBatchInto(ids, 4, bout, ns, r, engine.NewBatchScratch()); err == nil {
		t.Fatal("batch against a fully dead cluster succeeded")
	} else if !errors.Is(err, engine.ErrNoReplicas) || !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("batch error %v lacks the typed chain", err)
	}
}

// Dynamic membership: a server that joins after the cluster was dialed
// is discovered through the member view, validated, adopted and bound as
// a replica — and keeps the cluster serving when the original server
// dies.
func TestMembershipDiscovery(t *testing.T) {
	g := buildGraph(t)
	all := []int{0, 1}
	srvA, addrA := startReplicaServer(t, g, 2, all)

	cluster, err := DialClusterWith(ClientConfig{}, addrA) // B does not exist yet
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	cluster.pollTimeout = 500 * time.Millisecond
	remote := cluster.Engine
	if got := len(remote.ReplicaSet(0)); got != 1 {
		t.Fatalf("bound %d replicas before join, want 1", got)
	}

	// B joins: announces itself to A, the only step a new server takes.
	srvB, addrB := startReplicaServer(t, g, 2, all)
	if err := srvB.AnnounceTo(addrA, 0); err != nil {
		t.Fatalf("announce: %v", err)
	}
	members := srvA.memberList()
	if len(members) != 2 {
		t.Fatalf("A's member view after join: %v", members)
	}

	// One refresh discovers B through A's member view, probes it and
	// binds it into every replica group.
	if err := cluster.refresh(); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	for id := 0; id < 2; id++ {
		if got := len(remote.ReplicaSet(id)); got != 2 {
			t.Fatalf("shard %d bound to %d replicas after join, want 2 (member %s not adopted)", id, got, addrB)
		}
	}

	// The original server dies; the adopted one keeps the cluster alive.
	srvA.Close()
	local := engine.New(g, engine.Config{Shards: 1})
	rl, rr := rng.New(21), rng.New(21)
	want := make([]graph.NodeID, 4)
	got := make([]graph.NodeID, 4)
	for id := 0; id < 50; id++ {
		nid := graph.NodeID(id % g.NumNodes())
		nw := local.SampleNeighborsInto(nid, want, rl)
		ng, err := remote.TrySampleNeighborsIntoBy(nid, got, rr, time.Time{})
		if err != nil {
			t.Fatalf("draw %d after founder death: %v", id, err)
		}
		if nw != ng {
			t.Fatalf("draw %d: %d draws, want %d", id, ng, nw)
		}
		for i := 0; i < nw; i++ {
			if want[i] != got[i] {
				t.Fatalf("draw %d sample %d diverged", id, i)
			}
		}
	}
}

// A partition handed to a server the client was never dialed with is
// bound on the first redirected batch: the engine's refresh polls the
// old owner's routing epoch, whose member view names the new server, and
// no caller sees an error or calls refresh itself.
func TestRedirectBindsServerNeverDialed(t *testing.T) {
	g := buildGraph(t)
	const k = 4
	srvA, addrA := startReplicaServer(t, g, 2, []int{0, 1})
	cluster, err := DialClusterWith(ClientConfig{}, addrA)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	cluster.pollTimeout = 500 * time.Millisecond
	remote := cluster.Engine

	srvB, _ := startReplicaServer(t, g, 2, []int{})
	if err := srvB.AnnounceTo(addrA, 0); err != nil {
		t.Fatalf("announce: %v", err)
	}
	migrate(t, 1, srvA, srvB)

	local := engine.New(g, engine.Config{Shards: 1})
	rl, rr := rng.New(404), rng.New(404)
	idsRNG := rng.New(9)
	ids := make([]graph.NodeID, 32)
	want := make([]graph.NodeID, len(ids)*k)
	wantNs := make([]int32, len(ids))
	got := make([]graph.NodeID, len(ids)*k)
	gotNs := make([]int32, len(ids))
	bsL, bsR := engine.NewBatchScratch(), engine.NewBatchScratch()
	for step := 0; step < 3; step++ {
		for i := range ids {
			ids[i] = graph.NodeID(idsRNG.Intn(g.NumNodes()))
		}
		if _, err := local.SampleNeighborsBatchInto(ids, k, want, wantNs, rl, bsL); err != nil {
			t.Fatalf("step %d: local batch: %v", step, err)
		}
		if _, err := remote.SampleNeighborsBatchInto(ids, k, got, gotNs, rr, bsR); err != nil {
			t.Fatalf("step %d: remote batch: %v", step, err)
		}
		for i := range ids {
			if wantNs[i] != gotNs[i] {
				t.Fatalf("step %d entry %d: count %d, want %d", step, i, gotNs[i], wantNs[i])
			}
			for j := 0; j < int(wantNs[i]); j++ {
				if want[i*k+j] != got[i*k+j] {
					t.Fatalf("step %d entry %d draw %d: %d, want %d", step, i, j, got[i*k+j], want[i*k+j])
				}
			}
		}
	}
	if n := srvB.OpCount(OpBatch); n == 0 {
		t.Fatal("the server never dialed served no batch: partition 1 was not bound to it")
	}
}

// Acceptance pin: a rolling upgrade — every server of a 2-replica
// cluster killed and replaced in sequence, under continuous sampler and
// batch load — completes with zero failed calls and draws bit-identical
// to an undisturbed local engine.
func TestRollingUpgrade(t *testing.T) {
	g := buildGraph(t)
	const shards = 4
	all := []int{0, 1, 2, 3}
	srvA, addrA := startReplicaServer(t, g, shards, all)
	srvB, addrB := startReplicaServer(t, g, shards, all)
	cluster, err := DialClusterWith(ClientConfig{}, addrA, addrB)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	cluster.pollTimeout = 500 * time.Millisecond
	remote := cluster.Engine
	local := engine.New(g, engine.Config{Shards: 1})

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	fail := func(s string) {
		mu.Lock()
		if len(failures) < 8 {
			failures = append(failures, s)
		}
		mu.Unlock()
	}

	// Continuous single-draw load, lockstep against the local engine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rl, rr := rng.New(101), rng.New(101)
		want := make([]graph.NodeID, 4)
		got := make([]graph.NodeID, 4)
		for id := 0; ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			nid := graph.NodeID(id % g.NumNodes())
			nw := local.SampleNeighborsInto(nid, want, rl)
			ng, err := remote.TrySampleNeighborsIntoBy(nid, got, rr, time.Time{})
			if err != nil {
				fail("sampler: " + err.Error())
				return
			}
			if nw != ng {
				fail("sampler: draw count diverged")
				return
			}
			for i := 0; i < nw; i++ {
				if want[i] != got[i] {
					fail("sampler: draws diverged")
					return
				}
			}
		}
	}()

	// Continuous scatter-gather batch load.
	wg.Add(1)
	go func() {
		defer wg.Done()
		const k = 4
		rl, rr := rng.New(202), rng.New(202)
		seedR := rng.New(303)
		ids := make([]graph.NodeID, 32)
		for i := range ids {
			ids[i] = graph.NodeID(seedR.Intn(g.NumNodes()))
		}
		wantOut := make([]graph.NodeID, len(ids)*k)
		wantNs := make([]int32, len(ids))
		gotOut := make([]graph.NodeID, len(ids)*k)
		gotNs := make([]int32, len(ids))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := local.SampleNeighborsBatchInto(ids, k, wantOut, wantNs, rl, engine.NewBatchScratch()); err != nil {
				fail("batcher local: " + err.Error())
				return
			}
			if _, err := remote.SampleNeighborsBatchInto(ids, k, gotOut, gotNs, rr, engine.NewBatchScratch()); err != nil {
				fail("batcher: " + err.Error())
				return
			}
			for i := range ids {
				if wantNs[i] != gotNs[i] {
					fail("batcher: counts diverged")
					return
				}
				for j := 0; j < int(wantNs[i]); j++ {
					if wantOut[i*k+j] != gotOut[i*k+j] {
						fail("batcher: draws diverged")
						return
					}
				}
			}
		}
	}()

	// Kill and replace every original server in sequence. Each
	// replacement announces itself to a surviving member and one refresh
	// binds it before the old server goes away.
	time.Sleep(100 * time.Millisecond)
	live := []string{addrA, addrB}
	for i, old := range []*Server{srvA, srvB} {
		newSrv, newAddr := startReplicaServer(t, g, shards, all)
		survivor := live[1-i] // the peer still alive this round (round 1: A's replacement)
		if err := newSrv.AnnounceTo(survivor, 0); err != nil {
			t.Fatalf("replacement %d announce: %v", i, err)
		}
		if err := cluster.refresh(); err != nil {
			t.Fatalf("refresh binding replacement %d: %v", i, err)
		}
		old.Close()
		live[i] = newAddr
		time.Sleep(200 * time.Millisecond) // let load churn through the new topology
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	if len(failures) > 0 {
		t.Fatalf("rolling upgrade surfaced failures: %v", failures)
	}
}

// refresh is bounded per server: a stalled member (accepts and
// handshakes, then swallows frames) is timed out, logged and skipped —
// the refresh completes on the healthy server's answer instead of
// hanging — and it is probed once: neither a later discover round nor
// the next refresh within breakerDecay probes it again.
func TestRefreshSkipsStalledServer(t *testing.T) {
	g := buildGraph(t)
	srvA, addrA := startReplicaServer(t, g, 2, []int{0, 1})
	bh := startBlackhole(t, "127.0.0.1:0")
	t.Cleanup(bh.kill)
	srvA.addMembers(bh.ln.Addr().String())

	cluster, err := DialClusterWith(ClientConfig{}, addrA)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	cluster.pollTimeout = 300 * time.Millisecond

	start := time.Now()
	if err := cluster.refresh(); err != nil {
		t.Fatalf("refresh with a stalled member: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*cluster.pollTimeout {
		t.Fatalf("refresh took %v with one stalled member, want ≤ %v", elapsed, 2*cluster.pollTimeout)
	}
	start = time.Now()
	if err := cluster.refresh(); err != nil {
		t.Fatalf("second refresh with a stalled member: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= cluster.pollTimeout/2 {
		t.Fatalf("second refresh took %v, want < %v (the failed member was probed again)", elapsed, cluster.pollTimeout/2)
	}

	// The healthy binding still serves.
	r := rng.New(6)
	out := make([]graph.NodeID, 4)
	if _, err := cluster.Engine.TrySampleNeighborsIntoBy(0, out, r, time.Time{}); err != nil {
		t.Fatalf("draw after refresh: %v", err)
	}
}

// startRefuser listens on a loopback address and closes every accepted
// connection at once — a sibling that is up at the TCP level and never
// completes a handshake. The counter is the dials it saw.
func startRefuser(t *testing.T) (addr string, dials *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	dials = new(atomic.Int64)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			c.Close()
		}
	}()
	return ln.Addr().String(), dials
}

// A dead sibling stops costing appends once its fan-out circuit opens:
// the primary dials it at most a circuit's worth of times, logs the
// outage once, and counts every copy it missed as replica lag.
func TestFanoutSkipsDeadSibling(t *testing.T) {
	g := buildGraph(t)
	srv, addr := startReplicaServer(t, g, 1, []int{0})
	dead, dials := startRefuser(t)
	srv.addMembers(dead)
	var logged atomic.Int64
	old := logf
	logf = func(string, ...any) { logged.Add(1) }
	t.Cleanup(func() { logf = old })

	cl := newClient(addr, ClientConfig{})
	t.Cleanup(func() { cl.Close() })
	const appends = 50
	for i := 1; i <= appends; i++ {
		if res, _, err := cl.appendOnce(0, uint64(i), ingestRecord(g, i), false); err != nil || res != appendApplied {
			t.Fatalf("append %d: result %d, err %v", i, res, err)
		}
	}
	t.Logf("%d appends: %d dials of the dead sibling, %d log lines", appends, dials.Load(), logged.Load())
	if n := dials.Load(); n > 4 {
		t.Errorf("%d dials of the dead sibling over %d appends, want ≤ 4", n, appends)
	}
	if n := logged.Load(); n > 2 {
		t.Errorf("%d fan-out log lines over %d appends, want ≤ 2", n, appends)
	}
	if lag := srv.ReplicaLag(); lag != appends {
		t.Errorf("replica lag %d, want %d", lag, appends)
	}
}

// A silent sibling (handshakes, then swallows every frame) bounds each
// copy by the fan-out deadline and is skipped once its circuit opens, so
// the primary's acks do not wait out the RPC timeout per append.
func TestFanoutBoundsSilentSibling(t *testing.T) {
	g := buildGraph(t)
	srv, addr := startReplicaServer(t, g, 1, []int{0})
	bh := startBlackhole(t, "127.0.0.1:0")
	t.Cleanup(bh.kill)
	srv.addMembers(bh.ln.Addr().String())
	old := logf
	logf = func(string, ...any) {}
	t.Cleanup(func() { logf = old })

	cl := newClient(addr, ClientConfig{})
	t.Cleanup(func() { cl.Close() })
	const appends = 20
	start := time.Now()
	for i := 1; i <= appends; i++ {
		if res, _, err := cl.appendOnce(0, uint64(i), ingestRecord(g, i), false); err != nil || res != appendApplied {
			t.Fatalf("append %d: result %d, err %v", i, res, err)
		}
	}
	elapsed := time.Since(start)
	t.Logf("%d appends with a silent sibling took %v", appends, elapsed)
	if elapsed >= 4*time.Second {
		t.Fatalf("%d appends took %v with a silent sibling, want < 4s", appends, elapsed)
	}
}

// Once a silent sibling's circuit is open it costs a steady append stream
// at most one fan-out copy per breakerDecay: after the decay one copy
// probes the sibling, and that probe's failure re-opens the circuit at
// once rather than after circuitFailures more copies.
func TestFanoutSilentSiblingOneCopyPerDecay(t *testing.T) {
	g := buildGraph(t)
	srv, addr := startReplicaServer(t, g, 1, []int{0})
	bh := startBlackhole(t, "127.0.0.1:0")
	t.Cleanup(bh.kill)
	srv.addMembers(bh.ln.Addr().String())
	old := logf
	logf = func(string, ...any) {}
	t.Cleanup(func() { logf = old })

	cl := newClient(addr, ClientConfig{})
	t.Cleanup(func() { cl.Close() })
	seq := 0
	appendOne := func() time.Duration {
		seq++
		start := time.Now()
		if res, _, err := cl.appendOnce(0, uint64(seq), ingestRecord(g, seq), false); err != nil || res != appendApplied {
			t.Fatalf("append %d: result %d, err %v", seq, res, err)
		}
		return time.Since(start)
	}
	for i := 0; i < circuitFailures; i++ {
		appendOne() // each copy waits out fanoutTimeout, then the circuit opens
	}

	// A stalled append is one whose copy waited on the sibling.
	stalls, lastEnd := 0, time.Now()
	for end := lastEnd.Add(breakerDecay*5/2 + fanoutTimeout); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		start := time.Now()
		if appendOne() < fanoutTimeout/2 {
			continue
		}
		if gap := start.Sub(lastEnd); gap < breakerDecay-100*time.Millisecond {
			t.Fatalf("stall %d began %v after the previous one ended, want ≥ breakerDecay (%v)", stalls+1, gap, breakerDecay)
		}
		stalls++
		lastEnd = time.Now()
	}
	t.Logf("%d stalled appends in %v of open or half-open circuit", stalls, breakerDecay*5/2+fanoutTimeout)
	if stalls == 0 {
		t.Fatal("the half-open circuit never probed the sibling again")
	}
}
