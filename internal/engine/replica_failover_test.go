package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/ingest"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

// flakyBackend wraps a real in-process shard store behind the
// ShardBackend seam with switchable transport failure and health — the
// engine-level stand-in for a remote stub whose server died.
type flakyBackend struct {
	sh        *Shard
	failing   atomic.Bool // calls return a transport failure
	unhealthy atomic.Bool // Healthy says avoid me
	calls     atomic.Int64
	lastDL    time.Time // deadline of the last sample (single-goroutine tests only)
}

func (fb *flakyBackend) transportErr() error {
	return fmt.Errorf("flaky: %w", ErrShardUnavailable)
}

func (fb *flakyBackend) SampleIntoBy(id graph.NodeID, out []graph.NodeID, r *rng.RNG, deadline time.Time) (int, error) {
	fb.calls.Add(1)
	fb.lastDL = deadline
	if fb.failing.Load() {
		return 0, fb.transportErr()
	}
	return fb.sh.SampleIntoBy(id, out, r, deadline)
}

func (fb *flakyBackend) SampleBatchInto(gids []graph.NodeID, idx []int32, base uint64, k int, out []graph.NodeID, ns []int32) (int, error) {
	fb.calls.Add(1)
	if fb.failing.Load() {
		return 0, fb.transportErr()
	}
	return fb.sh.SampleBatchInto(gids, idx, base, k, out, ns)
}

func (fb *flakyBackend) ReadNodesInto(gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) error {
	fb.calls.Add(1)
	if fb.failing.Load() {
		return fb.transportErr()
	}
	return fb.sh.ReadNodesInto(gids, pos, fields, into)
}

func (fb *flakyBackend) AppendEdges(edges []ingest.Edge) (uint64, error) {
	fb.calls.Add(1)
	if fb.failing.Load() {
		return 0, fb.transportErr()
	}
	return fb.sh.AppendEdges(edges)
}

func (fb *flakyBackend) Healthy() bool { return !fb.unhealthy.Load() }

// The wrapper counts no requests and knows no partition size.
func (fb *flakyBackend) Requests() int64        { return 0 }
func (fb *flakyBackend) ShardSize() (nodes int) { return 0 }

// replicaFixture builds an engine whose every partition is served by a
// replica group of two flaky wrappers over the same store, plus a plain
// local engine for lockstep comparison.
func replicaFixture(t *testing.T, shards int) (*Engine, *Engine, [][]*flakyBackend) {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	local := New(g, Config{Shards: 1})
	part := partition.SplitOpts(g, shards, partition.Hash, partition.Options{})
	groups := make([][]ShardBackend, shards)
	flaky := make([][]*flakyBackend, shards)
	for id := 0; id < shards; id++ {
		sh := BuildShard(part, id, 1)
		a, b := &flakyBackend{sh: sh}, &flakyBackend{sh: sh}
		flaky[id] = []*flakyBackend{a, b}
		groups[id] = []ShardBackend{a, b}
	}
	e := NewWithReplicaSets(part.RoutingTable(), groups, g.ContentDim())
	return e, local, flaky
}

// One replica of every group failing: single draws, batches and
// attribute reads all succeed via the sibling with no caller-visible
// error, and the draws stay bit-identical to an undisturbed engine (the
// failed attempt consumes no RNG).
func TestReplicaFailoverTransparent(t *testing.T) {
	e, local, flaky := replicaFixture(t, 4)
	for id := range flaky {
		flaky[id][0].failing.Store(true)
	}

	rl, rr := rng.New(7), rng.New(7)
	want := make([]graph.NodeID, 5)
	got := make([]graph.NodeID, 5)
	for id := 0; id < e.NumNodes(); id += 7 {
		nid := graph.NodeID(id)
		nw := local.SampleNeighborsInto(nid, want, rl)
		ng, err := e.TrySampleNeighborsIntoBy(nid, got, rr, time.Time{})
		if err != nil {
			t.Fatalf("node %d: failover leaked error: %v", id, err)
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

	// Batches: every shard group visits through the surviving sibling.
	ids := make([]graph.NodeID, 0, 32)
	for id := 0; id < 32; id++ {
		ids = append(ids, graph.NodeID(id%e.NumNodes()))
	}
	const k = 4
	bw := make([]graph.NodeID, len(ids)*k)
	bg := make([]graph.NodeID, len(ids)*k)
	nsw := make([]int32, len(ids))
	nsg := make([]int32, len(ids))
	for round := 0; round < 3; round++ {
		nw, err := local.SampleNeighborsBatchInto(ids, k, bw, nsw, rl, NewBatchScratch())
		if err != nil {
			t.Fatalf("local batch: %v", err)
		}
		ng, err := e.SampleNeighborsBatchInto(ids, k, bg, nsg, rr, NewBatchScratch())
		if err != nil {
			t.Fatalf("round %d: batch failover leaked error: %v", round, err)
		}
		if nw != ng {
			t.Fatalf("round %d: %d draws, want %d", round, ng, nw)
		}
		for i := range nsw {
			if nsw[i] != nsg[i] {
				t.Fatalf("round %d entry %d: count %d, want %d", round, i, nsg[i], nsw[i])
			}
		}
		for i, v := range bw {
			if bg[i] != v {
				t.Fatalf("round %d draw %d: %d, want %d", round, i, bg[i], v)
			}
		}
	}

	// Single-node attribute reads fail over too (they panic if they don't).
	if !slices.Equal(e.Neighbors(0), local.Neighbors(0)) || !slices.Equal(e.Features(0), local.Features(0)) || !slices.Equal(e.Content(0), local.Content(0)) {
		t.Fatal("single-node reads differ from the undisturbed engine after failover")
	}
}

// Zero healthy replicas degrades typed-and-loud: the error matches both
// ErrNoReplicas (the group is exhausted) and ErrShardUnavailable (it is
// a transport-shaped failure callers already check for), and ns carries
// no partial results.
func TestReplicasExhaustedTyped(t *testing.T) {
	e, _, flaky := replicaFixture(t, 2)
	for id := range flaky {
		for _, fb := range flaky[id] {
			fb.failing.Store(true)
		}
	}
	r := rng.New(3)
	out := make([]graph.NodeID, 4)
	_, err := e.TrySampleNeighborsIntoBy(0, out, r, time.Time{})
	if err == nil {
		t.Fatal("zero healthy replicas answered a sample")
	}
	if !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("error %v does not match ErrNoReplicas", err)
	}
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("error %v does not match ErrShardUnavailable", err)
	}

	ids := []graph.NodeID{0, 1, 2, 3}
	bout := make([]graph.NodeID, len(ids)*4)
	ns := []int32{9, 9, 9, 9}
	if _, err := e.SampleNeighborsBatchInto(ids, 4, bout, ns, r, NewBatchScratch()); err == nil {
		t.Fatal("zero healthy replicas answered a batch")
	} else if !errors.Is(err, ErrNoReplicas) || !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("batch error %v lacks the typed chain", err)
	}
	for i, n := range ns {
		if n != 0 {
			t.Fatalf("ns[%d] = %d after failed batch (partial results leaked)", i, n)
		}
	}
}

// The health facet steers traffic: with one replica reporting unhealthy,
// steady-state reads stop paying a failed attempt on it — the sibling
// absorbs the load and the unhealthy replica sees (almost) no calls.
func TestReplicaPickSkipsUnhealthy(t *testing.T) {
	e, _, flaky := replicaFixture(t, 2)
	for id := range flaky {
		flaky[id][0].failing.Store(true)
		flaky[id][0].unhealthy.Store(true)
	}
	warm := flaky[0][0].calls.Load() + flaky[1][0].calls.Load()
	r := rng.New(5)
	out := make([]graph.NodeID, 4)
	for id := 0; id < 64; id++ {
		if _, err := e.TrySampleNeighborsIntoBy(graph.NodeID(id%e.NumNodes()), out, r, time.Time{}); err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	paid := flaky[0][0].calls.Load() + flaky[1][0].calls.Load() - warm
	if paid != 0 {
		t.Fatalf("unhealthy replicas were called %d times despite the health skip", paid)
	}
}

// Healthy replicas share the load: the rotation cursor spreads single
// draws across the group instead of pinning everything on one replica.
func TestReplicaRotationSpreadsLoad(t *testing.T) {
	e, _, flaky := replicaFixture(t, 2)
	r := rng.New(11)
	out := make([]graph.NodeID, 4)
	for id := 0; id < 100; id++ {
		if _, err := e.TrySampleNeighborsIntoBy(graph.NodeID(id%e.NumNodes()), out, r, time.Time{}); err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	for id := range flaky {
		a, b := flaky[id][0].calls.Load(), flaky[id][1].calls.Load()
		if a == 0 || b == 0 {
			t.Fatalf("shard %d: load not spread (replica calls %d / %d)", id, a, b)
		}
	}
}

// A multi-shard append with one partition's whole replica group dark
// still lands every other owner's edges in the same call: the error is
// typed, the count is theirs, they read back, and the dark shard applied
// nothing.
func TestAppendDarkShardLandsOtherShards(t *testing.T) {
	e, _, flaky := replicaFixture(t, 4)
	const dark = 1
	for _, fb := range flaky[dark] {
		fb.failing.Store(true)
	}
	edges := make([]ingest.Edge, 32)
	landed := make([]int, e.NumShards())
	for i := range edges {
		src := graph.NodeID(i)
		edges[i] = ingest.Edge{Src: src, Dst: graph.NodeID((i + 1) % e.NumNodes()), Type: graph.Click, Weight: 2}
		landed[e.ShardOf(src)]++
	}
	want := len(edges) - landed[dark]
	if slices.Contains(landed, 0) {
		t.Fatalf("fixture batch misses a shard: %v edges per shard", landed)
	}

	n, err := e.Append(edges)
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("append with shard %d dark: got %v, want ErrShardUnavailable", dark, err)
	}
	if n != want {
		t.Fatalf("append with shard %d dark applied %d edges, want the other shards' %d", dark, n, want)
	}
	for si, fbs := range flaky {
		wantSeq := uint64(1)
		if si == dark {
			wantSeq = 0
		}
		if seq := fbs[0].sh.LastAppliedSeq(); seq != wantSeq {
			t.Fatalf("shard %d applied %d records, want %d", si, seq, wantSeq)
		}
	}
	for _, ed := range edges {
		if e.ShardOf(ed.Src) == dark {
			continue
		}
		nb := e.Neighbors(ed.Src)
		if last := nb[len(nb)-1]; last != (graph.Edge{To: ed.Dst, Type: ed.Type, Weight: ed.Weight}) {
			t.Fatalf("node %d: appended edge reads back as %+v", ed.Src, last)
		}
	}
}
