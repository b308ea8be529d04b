package engine

import (
	"errors"
	"testing"
	"time"

	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

func deadlineFixture(t *testing.T, shards int) (*Engine, [][]*flakyBackend) {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	part := partition.SplitOpts(g, shards, partition.Hash, partition.Options{})
	groups := make([][]ShardBackend, shards)
	backs := make([][]*flakyBackend, shards)
	for id := 0; id < shards; id++ {
		a := &flakyBackend{sh: BuildShard(part, id, 1)}
		backs[id] = []*flakyBackend{a}
		groups[id] = []ShardBackend{a}
	}
	e := NewWithReplicaSets(part.RoutingTable(), groups, g.ContentDim())
	return e, backs
}

// An already-expired deadline fails fast and typed: no backend call, no
// RNG consumption, no failover machinery.
func TestExpiredDeadlineFailsTypedWithoutWork(t *testing.T) {
	e, backs := deadlineFixture(t, 2)
	r := rng.New(9)
	before := r.State()
	out := make([]graph.NodeID, 4)
	_, err := e.TrySampleNeighborsIntoBy(1, out, r, time.Now().Add(-time.Millisecond))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired deadline: got %v, want ErrDeadlineExceeded", err)
	}
	if r.State() != before {
		t.Fatal("expired call consumed the caller's RNG")
	}
	for _, g := range backs {
		for _, b := range g {
			if n := b.calls.Load(); n != 0 {
				t.Fatalf("expired call reached a backend (%d calls)", n)
			}
		}
	}
}

// The deadline travels through the ShardBackend seam as given (so a
// remote stub can shrink its per-call wire budget), and the convenience
// wrapper passes the zero deadline.
func TestDeadlineReachesBackend(t *testing.T) {
	e, backs := deadlineFixture(t, 2)
	r := rng.New(9)
	out := make([]graph.NodeID, 4)
	be := backs[e.ShardOf(1)][0]
	dl := time.Now().Add(time.Minute)
	if _, err := e.TrySampleNeighborsIntoBy(1, out, r, dl); err != nil {
		t.Fatalf("bounded sample: %v", err)
	}
	if be.calls.Load() != 1 || !be.lastDL.Equal(dl) {
		t.Fatalf("bounded call reached the backend %d times with deadline %v, want once with %v", be.calls.Load(), be.lastDL, dl)
	}
	e.SampleNeighborsInto(1, out, r)
	if be.calls.Load() != 2 || !be.lastDL.IsZero() {
		t.Fatalf("unbounded call reached the backend with deadline %v, want the zero deadline", be.lastDL)
	}
}

// Deadline-bounded draws are bit-identical to unbounded ones — the
// deadline threading must not perturb the RNG stream.
func TestDeadlineDrawsBitIdentical(t *testing.T) {
	e, _ := deadlineFixture(t, 2)
	ra, rb := rng.New(11), rng.New(11)
	a := make([]graph.NodeID, 5)
	b := make([]graph.NodeID, 5)
	dl := time.Now().Add(time.Minute)
	for id := 0; id < e.NumNodes(); id += 13 {
		na, err := e.TrySampleNeighborsIntoBy(graph.NodeID(id), a, ra, time.Time{})
		if err != nil {
			t.Fatalf("node %d unbounded: %v", id, err)
		}
		nb, err := e.TrySampleNeighborsIntoBy(graph.NodeID(id), b, rb, dl)
		if err != nil {
			t.Fatalf("node %d bounded: %v", id, err)
		}
		if na != nb {
			t.Fatalf("node %d: %d vs %d draws", id, na, nb)
		}
		for i := 0; i < na; i++ {
			if a[i] != b[i] {
				t.Fatalf("node %d draw %d: %d vs %d", id, i, a[i], b[i])
			}
		}
	}
}

// A deadline failure mid-failover must not continue the replica walk:
// the caller's budget is spent, and hammering siblings with doomed
// calls is exactly what the typed error exists to prevent.
func TestDeadlineStopsFailoverWalk(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	part := partition.SplitOpts(g, 1, partition.Hash, partition.Options{})
	sh := BuildShard(part, 0, 1)
	// First replica fails transport-style; the sibling would serve. With
	// an expired deadline the walk must stop before touching the sibling.
	bad := &flakyBackend{sh: sh}
	bad.failing.Store(true)
	good := &flakyBackend{sh: sh}
	// Steer the rotation pick to the failing replica: pick skips
	// unhealthy siblings, but the failover walk would still reach them —
	// unless the deadline stops it first, which is what we assert.
	good.unhealthy.Store(true)
	e := NewWithReplicaSets(part.RoutingTable(), [][]ShardBackend{{bad, good}}, g.ContentDim())

	r := rng.New(3)
	out := make([]graph.NodeID, 4)
	// Enter the failover path directly with an already-expired deadline:
	// attempt 0 fails transport-style, and the pre-attempt check must
	// stop the walk before the sibling is touched.
	n, failover, err := e.bset.Load().sampleShard(0, 1, out, r, time.Now().Add(-time.Millisecond))
	if err == nil || !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("failover under expired deadline: n=%d failover=%v err=%v", n, failover, err)
	}
	if good.calls.Load() != 0 {
		t.Fatal("expired deadline still walked to the sibling replica")
	}
}
