package engine

import (
	"fmt"
	"slices"
	"testing"

	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/ingest"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

// planBackend serves a real in-process store from behind the ShardBackend
// seam (so the engine treats it as remote and non-starting), records the
// (gids, idx) of every visit it receives, and answers the first `moved`
// of them with a wrong-epoch redirect.
type planBackend struct {
	*Shard
	moved  int
	visits []planVisit
}

type planVisit struct {
	gids []graph.NodeID
	idx  []int32
}

func (pb *planBackend) record(gids []graph.NodeID, idx []int32) error {
	pb.visits = append(pb.visits, planVisit{slices.Clone(gids), slices.Clone(idx)})
	if pb.moved > 0 {
		pb.moved--
		return fmt.Errorf("plan test: %w", ErrWrongEpoch)
	}
	return nil
}

func (pb *planBackend) SampleBatchInto(gids []graph.NodeID, idx []int32, base uint64, k int, out []graph.NodeID, ns []int32) (int, error) {
	if err := pb.record(gids, idx); err != nil {
		return 0, err
	}
	return pb.Shard.SampleBatchInto(gids, idx, base, k, out, ns)
}

func (pb *planBackend) ReadNodesInto(gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) error {
	if err := pb.record(gids, pos); err != nil {
		return err
	}
	return pb.Shard.ReadNodesInto(gids, pos, fields, into)
}

// AppendEdges records an append visit as its sources and their batch
// positions, which appendOf's edges carry in their weights.
func (pb *planBackend) AppendEdges(edges []ingest.Edge) (uint64, error) {
	gids, idx := make([]graph.NodeID, len(edges)), make([]int32, len(edges))
	for j, ed := range edges {
		gids[j], idx[j] = ed.Src, int32(ed.Weight)-1
	}
	if err := pb.record(gids, idx); err != nil {
		return 0, err
	}
	return pb.Shard.AppendEdges(edges)
}

// appendOf is an append batch with one edge per id; edge i weighs i+1,
// so a backend can tell each edge's batch position.
func appendOf(ids []graph.NodeID) []ingest.Edge {
	edges := make([]ingest.Edge, len(ids))
	for i, id := range ids {
		edges[i] = ingest.Edge{Src: id, Dst: id, Type: graph.Click, Weight: float32(i + 1)}
	}
	return edges
}

// planFixture builds an engine over one planBackend per partition. Its
// refresher reinstalls the same backends, which is all a redirected call
// needs to be allowed its retry.
func planFixture(t *testing.T, g *graph.Graph, shards int, strat partition.Strategy) (*Engine, []*planBackend) {
	t.Helper()
	part := partition.SplitOpts(g, shards, strat, partition.Options{})
	backs := make([]*planBackend, shards)
	groups := make([][]ShardBackend, shards)
	for id := range backs {
		backs[id] = &planBackend{Shard: BuildShard(part, id, 0)}
		groups[id] = []ShardBackend{backs[id]}
	}
	e := NewWithReplicaSets(part.RoutingTable(), groups, g.ContentDim())
	e.SetRefresh(func() error { e.InstallReplicaSets(groups); return nil })
	return e, backs
}

// The plan's grouping, for all three operations: every entry lands in
// exactly one visit of the shard that owns it, at its own position and in
// batch order, and no read or batch visit exceeds the cap — while an
// append is one uncut visit per owning shard — whatever the shard count,
// strategy or call size.
func TestPlanVisitsPartitionEntries(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	ops := map[string]func(e *Engine, ids []graph.NodeID) error{
		"batch": func(e *Engine, ids []graph.NodeID) error {
			_, err := e.SampleNeighborsBatchInto(ids, 1, make([]graph.NodeID, len(ids)), make([]int32, len(ids)), rng.New(1), NewBatchScratch())
			return err
		},
		"read": func(e *Engine, ids []graph.NodeID) error {
			return e.TryReadNodes(ids, graph.ReadFeatures, new(graph.NodeBlock))
		},
		"append": func(e *Engine, ids []graph.NodeID) error {
			_, err := e.Append(appendOf(ids))
			return err
		},
	}
	for _, shards := range []int{1, 2, 4, 7} {
		for _, strat := range []partition.Strategy{partition.Hash, partition.DegreeBalanced} {
			for _, n := range []int{0, 1, 63, 2*maxVisit + 1} {
				ids := make([]graph.NodeID, n)
				for i := range ids {
					ids[i] = graph.NodeID((i * 7) % g.NumNodes())
				}
				for name, op := range ops {
					e, backs := planFixture(t, g, shards, strat)
					if err := op(e, ids); err != nil {
						t.Fatalf("%s shards=%d strategy=%v n=%d: %v", name, shards, strat, n, err)
					}
					seen, limit := make([]int, n), maxVisit
					if name == "append" {
						limit = n
					}
					for shard, pb := range backs {
						if name == "append" && len(pb.visits) > 1 {
							t.Fatalf("append shards=%d strategy=%v n=%d: shard %d's edges cut into %d visits", shards, strat, n, shard, len(pb.visits))
						}
						for _, v := range pb.visits {
							if len(v.gids) == 0 || len(v.gids) > limit || len(v.gids) != len(v.idx) || !slices.IsSorted(v.idx) {
								t.Fatalf("%s shards=%d strategy=%v n=%d: shard %d got a visit of %d ids / %d positions (batch order: %v)", name, shards, strat, n, shard, len(v.gids), len(v.idx), slices.IsSorted(v.idx))
							}
							for j, id := range v.gids {
								if e.ShardOf(id) != shard || ids[v.idx[j]] != id {
									t.Fatalf("%s shards=%d strategy=%v n=%d: node %d at position %d sent to shard %d", name, shards, strat, n, id, v.idx[j], shard)
								}
								seen[v.idx[j]]++
							}
						}
					}
					if i := slices.IndexFunc(seen, func(c int) bool { return c != 1 }); i >= 0 {
						t.Fatalf("%s shards=%d strategy=%v n=%d: entry %d visited %d times", name, shards, strat, n, i, seen[i])
					}
				}
			}
		}
	}
}

// A batch redirected by one shard re-visits that shard alone against the
// refreshed view — the shards that answered are not asked again — and the
// merged draws are the static cluster's, bit for bit.
func TestRedirectedBatchRevisitsOnlyFailedShard(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	static := New(g, Config{Shards: 1})
	e, backs := planFixture(t, g, 4, partition.Hash)
	backs[2].moved = 1

	ids := make([]graph.NodeID, 64)
	for i := range ids {
		ids[i] = graph.NodeID((i * 5) % g.NumNodes())
	}
	const k = 4
	want, wantNS := make([]graph.NodeID, len(ids)*k), make([]int32, len(ids))
	got, gotNS := make([]graph.NodeID, len(ids)*k), make([]int32, len(ids))
	wantTotal, err := static.SampleNeighborsBatchInto(ids, k, want, wantNS, rng.New(9), NewBatchScratch())
	if err != nil {
		t.Fatal(err)
	}
	gotTotal, err := e.SampleNeighborsBatchInto(ids, k, got, gotNS, rng.New(9), NewBatchScratch())
	if err != nil {
		t.Fatalf("redirect leaked: %v", err)
	}
	if gotTotal != wantTotal || !slices.Equal(gotNS, wantNS) {
		t.Fatalf("redirected batch reports %d draws %v, static run %d %v", gotTotal, gotNS, wantTotal, wantNS)
	}
	for i := range ids {
		if n := int(wantNS[i]); !slices.Equal(got[i*k:i*k+n], want[i*k:i*k+n]) {
			t.Fatalf("entry %d draws differ from the static run", i)
		}
	}
	for shard, wantVisits := range []int{1, 1, 2, 1} {
		if n := len(backs[shard].visits); n != wantVisits {
			t.Fatalf("shard %d visited %d times, want %d (only the redirected visit is re-run)", shard, n, wantVisits)
		}
	}
	if e.Epoch() != 1 {
		t.Fatalf("engine epoch %d after one redirect, want 1", e.Epoch())
	}
}

// An append redirected by one shard re-runs that shard's visit alone
// against the refreshed view: every owner's edges are applied exactly
// once, as one record.
func TestRedirectedAppendRevisitsOnlyFailedShard(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	e, backs := planFixture(t, g, 4, partition.Hash)
	backs[2].moved = 1

	ids := make([]graph.NodeID, 64)
	for i := range ids {
		ids[i] = graph.NodeID((i * 5) % g.NumNodes())
	}
	if n, err := e.Append(appendOf(ids)); err != nil || n != len(ids) {
		t.Fatalf("redirected append applied %d of %d edges: %v", n, len(ids), err)
	}
	for shard, wantVisits := range []int{1, 1, 2, 1} {
		if n := len(backs[shard].visits); n != wantVisits {
			t.Fatalf("shard %d visited %d times, want %d (only the redirected visit is re-run)", shard, n, wantVisits)
		}
		if seq := backs[shard].LastAppliedSeq(); seq != 1 {
			t.Fatalf("shard %d applied %d records, want 1", shard, seq)
		}
	}
	if e.Epoch() != 1 {
		t.Fatalf("engine epoch %d after one redirect, want 1", e.Epoch())
	}
}

// One source's edges are one record however many there are: the visit
// plan cuts reads at maxVisit entries but never an append.
func TestAppendOneRecordPerOwner(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	g := graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
	e := New(g, Config{Shards: 4})
	const src = graph.NodeID(3)
	edges := make([]ingest.Edge, 5000)
	for i := range edges {
		edges[i] = ingest.Edge{Src: src, Dst: graph.NodeID(i % g.NumNodes()), Type: graph.Click, Weight: 1}
	}
	sh := e.Shard(e.ShardOf(src))
	before := sh.LastAppliedSeq()
	if n, err := e.Append(edges); err != nil || n != len(edges) {
		t.Fatalf("applied %d of %d edges: %v", n, len(edges), err)
	}
	if got := sh.LastAppliedSeq() - before; got != 1 {
		t.Fatalf("a %d-edge single-source append advanced the shard's sequence by %d, want 1", len(edges), got)
	}
}
