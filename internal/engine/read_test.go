package engine

import (
	"errors"
	"testing"
	"time"

	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/ingest"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
)

// The in-process bulk read hands out the same views the single-node
// reads do — whatever the shard count, strategy or row order — and sees
// appended edges exactly as Neighbors does.
func TestReadNodesMatchesSingleReads(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	ids := make([]graph.NodeID, 0, 2*g.NumNodes())
	for id := 0; id < g.NumNodes(); id++ {
		ids = append(ids, graph.NodeID(id), graph.NodeID((id*7)%g.NumNodes()))
	}
	for _, cfg := range []Config{
		{Shards: 1, Strategy: partition.Hash},
		{Shards: 4, Strategy: partition.Hash, Locality: true},
		{Shards: 3, Strategy: partition.DegreeBalanced},
	} {
		e := New(g, cfg)
		if _, err := e.Append([]ingest.Edge{{Src: 0, Dst: 5, Type: graph.Click, Weight: 2}, {Src: 3, Dst: 1, Type: graph.Session, Weight: 1}}); err != nil {
			t.Fatalf("%+v: append: %v", cfg, err)
		}
		var blk graph.NodeBlock
		if err := e.TryReadNodes(ids, graph.ReadAll, &blk); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		for i, id := range ids {
			nbrs := e.Neighbors(id)
			if len(nbrs) != len(blk.Neighbors[i]) {
				t.Fatalf("%+v node %d: %d edges, want %d", cfg, id, len(blk.Neighbors[i]), len(nbrs))
			}
			for j := range nbrs {
				if nbrs[j] != blk.Neighbors[i][j] {
					t.Fatalf("%+v node %d edge %d differs", cfg, id, j)
				}
			}
			if f := e.Features(id); len(f) != len(blk.Features[i]) || (len(f) > 0 && &f[0] != &blk.Features[i][0]) {
				t.Fatalf("%+v node %d: features are not the store's own row", cfg, id)
			}
			if c := e.Content(id); len(c) != len(blk.Content[i]) || (len(c) > 0 && &c[0] != &blk.Content[i][0]) {
				t.Fatalf("%+v node %d: content is not the store's own row", cfg, id)
			}
		}
		if len(e.Neighbors(0)) != g.Degree(0)+1 {
			t.Fatalf("%+v: appended edge missing from the bulk read's reference", cfg)
		}
		if st := e.Stats(); st.Imbalance == 0 {
			t.Fatalf("%+v: bulk read left the per-shard request counters untouched", cfg)
		}
	}
}

// readFeatureIDs bulk-reads features through the mock backends, which
// answer each node with its own id.
func readFeatureIDs(t *testing.T, e *Engine, ids []graph.NodeID) (time.Duration, error) {
	t.Helper()
	var blk graph.NodeBlock
	start := time.Now()
	err := e.TryReadNodes(ids, graph.ReadFeatures, &blk)
	elapsed := time.Since(start)
	if err == nil {
		for i, id := range ids {
			if len(blk.Features[i]) != 1 || blk.Features[i][0] != id {
				t.Fatalf("entry %d holds %v, want [%d] (visit wrote to the wrong position)", i, blk.Features[i], id)
			}
		}
	}
	return elapsed, err
}

// Bulk-read visits to backends with the async seam overlap: four delayed
// shards cost about one delay, not four.
func TestBulkReadOverlapsStartedVisits(t *testing.T) {
	const delay = 30 * time.Millisecond
	e, ids := fanoutWorld(t, func(d time.Duration) ShardBackend { return &slowStarterBackend{slowBackend{delay: d}} }, delay)
	elapsed, err := readFeatureIDs(t, e, ids)
	if err != nil {
		t.Fatal(err)
	}
	if limit := delay * 5 / 2; elapsed > limit {
		t.Fatalf("4-shard bulk read took %v — visits did not overlap (sequential would be ~%v)", elapsed, 4*delay)
	}
}

// A failing visit surfaces its error whichever seam carried it, and a
// group above the visit size is split without losing positions.
func TestBulkReadFailureAndSplit(t *testing.T) {
	for _, mk := range []func(time.Duration) ShardBackend{
		func(d time.Duration) ShardBackend { return &slowBackend{delay: d} },
		func(d time.Duration) ShardBackend { return &slowStarterBackend{slowBackend{delay: d}} },
	} {
		e, ids := fanoutWorld(t, mk, 0)
		big := make([]graph.NodeID, 0, 2*maxVisit+3)
		for len(big) < cap(big) {
			big = append(big, ids[(len(big)%4)*4]) // ids 0,4,8,12: all on shard 0
		}
		if _, err := readFeatureIDs(t, e, big); err != nil {
			t.Fatalf("split read: %v", err)
		}
		switch be := e.Backend(2).(type) {
		case *slowBackend:
			be.fail = errInjected
		case *slowStarterBackend:
			be.fail = errInjected
		}
		if _, err := readFeatureIDs(t, e, ids); !errors.Is(err, errInjected) {
			t.Fatalf("failing visit: got %v, want the injected error", err)
		}
	}
}

// One replica of every group down: the bulk read completes on the
// siblings. Every replica of one group down: typed ErrNoReplicas, still
// matching ErrShardUnavailable.
func TestReplicaFailoverBulkRead(t *testing.T) {
	e, local, flaky := replicaFixture(t, 4)
	ids := make([]graph.NodeID, 0, 64)
	for id := 0; id < 64; id++ {
		ids = append(ids, graph.NodeID((id*5)%e.NumNodes()))
	}
	var want, got graph.NodeBlock
	local.ReadNodes(ids, graph.ReadAll, &want)
	for id := range flaky {
		flaky[id][0].failing.Store(true)
	}
	for round := 0; round < 4; round++ { // rotation lands on the failing replica at least every other round
		if err := e.TryReadNodes(ids, graph.ReadAll, &got); err != nil {
			t.Fatalf("round %d: failover leaked error: %v", round, err)
		}
		for i := range ids {
			if len(want.Neighbors[i]) != len(got.Neighbors[i]) || len(want.Features[i]) != len(got.Features[i]) || len(want.Content[i]) != len(got.Content[i]) {
				t.Fatalf("round %d entry %d differs from the undisturbed engine", round, i)
			}
		}
	}
	flaky[2][1].failing.Store(true)
	err := e.TryReadNodes(ids, graph.ReadAll, &got)
	if !errors.Is(err, ErrNoReplicas) || !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("dark partition: got %v, want ErrNoReplicas wrapping ErrShardUnavailable", err)
	}
}
