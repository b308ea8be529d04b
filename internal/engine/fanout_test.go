package engine

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

// slowBackend is a ShardBackend whose batch visit takes a fixed delay —
// a stand-in for a remote shard server across a real network. Draws are
// deterministic (entry i draws its own id) so results are checkable.
// It deliberately does NOT implement VisitStarter: the plan visits it
// inline, in shard order.
type slowBackend struct {
	delay    time.Duration
	fail     error
	appended []ingest.Edge // every edge AppendEdges applied, in call order
	starts   int           // slowStarterBackend's Start calls, made on the caller's goroutine
}

var errInjected = errors.New("injected backend failure")

func (sb *slowBackend) SampleIntoBy(id graph.NodeID, out []graph.NodeID, r *rng.RNG, _ time.Time) (int, error) {
	if sb.fail != nil {
		return 0, sb.fail
	}
	for i := range out {
		out[i] = id
	}
	return len(out), nil
}

func (sb *slowBackend) SampleBatchInto(gids []graph.NodeID, idx []int32, base uint64, k int, out []graph.NodeID, ns []int32) (int, error) {
	time.Sleep(sb.delay)
	if sb.fail != nil {
		return 0, sb.fail
	}
	total := 0
	for j, id := range gids {
		i := int(idx[j])
		for d := 0; d < k; d++ {
			out[i*k+d] = id
		}
		ns[i] = int32(k)
		total += k
	}
	return total, nil
}

// ReadNodesInto answers after the delay with one feature per node: its
// own id, so position addressing is checkable.
func (sb *slowBackend) ReadNodesInto(gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) error {
	time.Sleep(sb.delay)
	if sb.fail != nil {
		return sb.fail
	}
	for j, id := range gids {
		into.Features[pos[j]] = []int32{id}
	}
	return nil
}

// AppendEdges applies a batch after the delay by recording it.
func (sb *slowBackend) AppendEdges(edges []ingest.Edge) (uint64, error) {
	time.Sleep(sb.delay)
	if sb.fail != nil {
		return 0, sb.fail
	}
	sb.appended = append(sb.appended, edges...)
	return uint64(len(sb.appended)), nil
}

func (sb *slowBackend) Requests() int64        { return 0 }
func (sb *slowBackend) ShardSize() (nodes int) { return 0 }
func (sb *slowBackend) Healthy() bool          { return true }

// slowStarterBackend additionally implements VisitStarter, exercising
// the async overlap path: Start launches the visit, Await joins it.
type slowStarterBackend struct {
	slowBackend
}

type slowHandle struct {
	done chan struct{}
	n    int
	err  error
}

func (h *slowHandle) Started() bool { return true }

func (h *slowHandle) Await() (int, error) {
	<-h.done
	return h.n, h.err
}

func (sb *slowStarterBackend) StartSampleBatch(gids []graph.NodeID, idx []int32, base uint64, k int, out []graph.NodeID, ns []int32) VisitHandle {
	sb.starts++
	h := &slowHandle{done: make(chan struct{})}
	go func() {
		h.n, h.err = sb.SampleBatchInto(gids, idx, base, k, out, ns)
		close(h.done)
	}()
	return h
}

func (sb *slowStarterBackend) StartReadNodes(gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) VisitHandle {
	sb.starts++
	h := &slowHandle{done: make(chan struct{})}
	go func() {
		h.err = sb.ReadNodesInto(gids, pos, fields, into)
		close(h.done)
	}()
	return h
}

var _ VisitStarter = (*slowStarterBackend)(nil)

// fanoutWorld assembles an engine over four mock remote backends and a
// batch spanning all of them.
func fanoutWorld(t *testing.T, mk func(delay time.Duration) ShardBackend, delay time.Duration) (*Engine, []graph.NodeID) {
	t.Helper()
	const shards, numNodes = 4, 64
	b := graph.NewBuilder()
	for i := 0; i < numNodes; i++ {
		b.AddNode(graph.Item, nil, nil)
	}
	g := b.Build()
	routing := partition.SplitOpts(g, shards, partition.Hash, partition.Options{}).RoutingTable()
	groups := make([][]ShardBackend, shards)
	for i := range groups {
		groups[i] = []ShardBackend{mk(delay)}
	}
	e := NewWithReplicaSets(routing, groups, 0)
	ids := make([]graph.NodeID, 16)
	for i := range ids {
		ids[i] = graph.NodeID(i) // hash partitioning: i%4 spreads over all shards
	}
	return e, ids
}

// checkFanoutBatch runs one batch and asserts correctness plus that the
// four delayed visits overlapped: wall clock near one delay, not four.
func checkFanoutBatch(t *testing.T, e *Engine, ids []graph.NodeID, delay time.Duration) {
	t.Helper()
	const k = 3
	out := make([]graph.NodeID, len(ids)*k)
	ns := make([]int32, len(ids))
	bs := NewBatchScratch()
	start := time.Now()
	total, err := e.SampleNeighborsBatchInto(ids, k, out, ns, rng.New(1), bs)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if total != len(ids)*k {
		t.Fatalf("batch wrote %d draws, want %d", total, len(ids)*k)
	}
	for i, id := range ids {
		if ns[i] != k {
			t.Fatalf("entry %d count %d", i, ns[i])
		}
		for j := 0; j < k; j++ {
			if out[i*k+j] != id {
				t.Fatalf("entry %d draw %d is %d, want %d (visit wrote into the wrong region)", i, j, out[i*k+j], id)
			}
		}
	}
	// Four shards at `delay` each: sequential dispatch would take ≥ 4×.
	// Generous ceiling (2.5×) keeps the assertion robust on a loaded box
	// while still ruling the sequential path out.
	if limit := delay * 5 / 2; elapsed > limit {
		t.Fatalf("4-shard batch took %v — visits did not overlap (sequential would be ~%v)", elapsed, 4*delay)
	}
}

// Started visits overlap: four delayed shards cost about one delay.
func TestFanoutOverlapsStartedVisits(t *testing.T) {
	const delay = 30 * time.Millisecond
	e, ids := fanoutWorld(t, func(d time.Duration) ShardBackend { return &slowStarterBackend{slowBackend{delay: d}} }, delay)
	checkFanoutBatch(t, e, ids, delay)
}

// SampleTree's per-hop frontier batches ride the same fan-out: a 2-hop
// tree over four delayed shards costs ~2 delays, not ~8.
func TestFanoutOverlapsTreeHops(t *testing.T) {
	const delay = 20 * time.Millisecond
	e, _ := fanoutWorld(t, func(d time.Duration) ShardBackend { return &slowStarterBackend{slowBackend{delay: d}} }, delay)
	start := time.Now()
	tree, err := e.SampleTree(graph.NodeID(1), 2, 4, rng.New(2), NewBatchScratch())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("tree: %v", err)
	}
	if len(tree) != 1+4+16 {
		t.Fatalf("tree has %d nodes, want 21", len(tree))
	}
	if limit := 2 * delay * 5 / 2; elapsed > limit {
		t.Fatalf("2-hop tree took %v — per-hop visits did not overlap", elapsed)
	}
}

// A failing visit must zero every count and surface the failure,
// whether it was started or served inline — no partial results
// regardless of which shard failed or how late.
func TestFanoutFailureZeroesAllCounts(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			const delay = 5 * time.Millisecond
			mk := func(d time.Duration) ShardBackend { return &slowBackend{delay: d} }
			if async {
				mk = func(d time.Duration) ShardBackend { return &slowStarterBackend{slowBackend{delay: d}} }
			}
			e, ids := fanoutWorld(t, mk, delay)
			// Inject a failure into shard 2 only.
			switch be := e.Backend(2).(type) {
			case *slowBackend:
				be.fail = errInjected
			case *slowStarterBackend:
				be.fail = errInjected
			}
			const k = 3
			out := make([]graph.NodeID, len(ids)*k)
			ns := make([]int32, len(ids))
			for i := range ns {
				ns[i] = 9 // sentinel
			}
			_, err := e.SampleNeighborsBatchInto(ids, k, out, ns, rng.New(3), NewBatchScratch())
			if !errors.Is(err, errInjected) {
				t.Fatalf("parallel batch error %v does not wrap the backend failure", err)
			}
			for i, v := range ns {
				if v != 0 {
					t.Fatalf("entry %d count %d after failed parallel batch (partial results)", i, v)
				}
			}
		})
	}
}

// Append visits are served inline even over backends that can start a
// visit: no Start* call is made, and every owner applies its own edges,
// in batch order, in one call.
func TestAppendVisitsAreNeverStarted(t *testing.T) {
	e, ids := fanoutWorld(t, func(d time.Duration) ShardBackend { return &slowStarterBackend{slowBackend{delay: d}} }, 0)
	edges := make([]ingest.Edge, len(ids))
	want := make([][]ingest.Edge, e.NumShards())
	for i, id := range ids {
		edges[i] = ingest.Edge{Src: id, Dst: id, Type: graph.Click, Weight: float32(i + 1)}
		want[e.ShardOf(id)] = append(want[e.ShardOf(id)], edges[i])
	}
	if n, err := e.Append(edges); err != nil || n != len(edges) {
		t.Fatalf("applied %d of %d edges: %v", n, len(edges), err)
	}
	for si := range want {
		sb := e.Backend(si).(*slowStarterBackend)
		if sb.starts != 0 {
			t.Fatalf("shard %d: an append made %d Start calls", si, sb.starts)
		}
		if !slices.Equal(sb.appended, want[si]) {
			t.Fatalf("shard %d applied %v, want its own edges in batch order %v", si, sb.appended, want[si])
		}
	}
}
