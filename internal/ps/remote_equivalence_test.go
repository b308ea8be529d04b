package ps

import (
	"errors"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/rpc"
)

// mfWorld builds the tiny deterministic world shared by the remote
// equivalence legs.
func mfWorld(t testing.TB) (*graphbuild.Result, []GraphMFExample) {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	ds := loggen.BuildExamples(logs, 1, 0.25, 2)
	examples := make([]GraphMFExample, 0, len(ds.Train))
	for _, e := range ds.Train {
		examples = append(examples, GraphMFExample{
			User:  res.Mapping.UserNode(e.User),
			Item:  res.Mapping.ItemNode(e.Item),
			Label: e.Label,
		})
	}
	if len(examples) < 40 {
		t.Fatalf("world too small: %d examples", len(examples))
	}
	return res, examples
}

func mfConfig() GraphMFConfig {
	return GraphMFConfig{Dim: 8, Epochs: 2, LR: 0.1, FanOut: 4, Blend: 0.5, Seed: 9, PSShards: 2}
}

// requireEqualMF asserts two runs are bit-identical: per-epoch losses,
// final AUC, and exported embedding rows.
func requireEqualMF(t *testing.T, want, got GraphMFResult, leg string) {
	t.Helper()
	if len(want.EpochLosses) != len(got.EpochLosses) {
		t.Fatalf("%s: epoch count %d != %d", leg, len(got.EpochLosses), len(want.EpochLosses))
	}
	for i := range want.EpochLosses {
		if want.EpochLosses[i] != got.EpochLosses[i] {
			t.Fatalf("%s: epoch %d loss %v != %v", leg, i, got.EpochLosses[i], want.EpochLosses[i])
		}
	}
	if want.TrainAUC != got.TrainAUC {
		t.Fatalf("%s: AUC %v != %v", leg, got.TrainAUC, want.TrainAUC)
	}
	for id, row := range want.UserRows {
		grow, ok := got.UserRows[id]
		if !ok {
			t.Fatalf("%s: missing user row %d", leg, id)
		}
		for j := range row {
			if row[j] != grow[j] {
				t.Fatalf("%s: user %d row[%d] %v != %v", leg, id, j, grow[j], row[j])
			}
		}
	}
	for id, row := range want.ItemRows {
		grow, ok := got.ItemRows[id]
		if !ok {
			t.Fatalf("%s: missing item row %d", leg, id)
		}
		for j := range row {
			if row[j] != grow[j] {
				t.Fatalf("%s: item %d row[%d] %v != %v", leg, id, j, grow[j], row[j])
			}
		}
	}
}

// exampleNodes lists every node the examples mention (with repeats).
func exampleNodes(examples []GraphMFExample) []graph.NodeID {
	ids := make([]graph.NodeID, 0, 2*len(examples))
	for _, ex := range examples {
		ids = append(ids, ex.User, ex.Item)
	}
	return ids
}

// requireSameNodes asserts the bulk node read — what a remote worker
// pulls a step's adjacency, features and content through — returns the
// same bits from the remote cluster as from the local engine and the
// graph itself.
func requireSameNodes(t *testing.T, g *graph.Graph, local, remote *engine.Engine, examples []GraphMFExample, leg string) {
	t.Helper()
	ids := exampleNodes(examples)
	var want, got graph.NodeBlock
	if err := local.TryReadNodes(ids, graph.ReadAll, &want); err != nil {
		t.Fatalf("%s: local bulk read: %v", leg, err)
	}
	if err := remote.TryReadNodes(ids, graph.ReadAll, &got); err != nil {
		t.Fatalf("%s: remote bulk read: %v", leg, err)
	}
	for i, id := range ids {
		if !slices.Equal(want.Neighbors[i], got.Neighbors[i]) || !slices.Equal(g.Neighbors(id), got.Neighbors[i]) {
			t.Fatalf("%s: node %d adjacency differs", leg, id)
		}
		if !slices.Equal(want.Features[i], got.Features[i]) || !slices.Equal(want.Content[i], got.Content[i]) {
			t.Fatalf("%s: node %d attributes differ", leg, id)
		}
	}
}

// killAfter wraps a NeighborSource and fires kill() once, just before
// the Nth sample call — deterministic mid-training server death.
type killAfter struct {
	src   NeighborSource
	n     int64
	calls atomic.Int64
	kill  func()
}

func (k *killAfter) TrySampleNeighborsIntoBy(id graph.NodeID, out []graph.NodeID, r *rng.RNG, deadline time.Time) (int, error) {
	if k.calls.Add(1) == k.n {
		k.kill()
	}
	return k.src.TrySampleNeighborsIntoBy(id, out, r, deadline)
}

// TestTrainRemoteEquivalence pins the distributed-training contract: a
// zoomer-train-style MF run over a 2-server DialCluster engine is
// bit-identical to the local sharded run, and a mid-training server
// kill surfaces the engine's typed error — never a corrupted gradient —
// while a restart on the same address restores bit-identical training.
func TestTrainRemoteEquivalence(t *testing.T) {
	res, examples := mfWorld(t)
	cfg := mfConfig()

	// Local leg: 4-shard in-process engine.
	local := engine.New(res.Graph, engine.Config{Shards: 4, Strategy: partition.Hash, Locality: true})
	want, err := TrainMFGraph(local, examples, cfg)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if len(want.EpochLosses) != cfg.Epochs {
		t.Fatalf("local run: %d epoch losses", len(want.EpochLosses))
	}

	// Remote leg: the same four shards behind two loopback servers.
	layout := [][]int{{0, 1}, {2, 3}}
	servers := make([]*rpc.Server, len(layout))
	addrs := make([]string, len(layout))
	for i, owned := range layout {
		servers[i] = rpc.NewServer(res.Graph, rpc.ServerConfig{
			Shards: 4, Strategy: partition.Hash, Owned: owned, Locality: true,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		servers[i].Start(ln)
		addrs[i] = ln.Addr().String()
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	cluster, err := rpc.DialCluster(addrs...)
	if err != nil {
		t.Fatalf("dial cluster: %v", err)
	}
	defer cluster.Close()

	got, err := TrainMFGraph(cluster.Engine, examples, cfg)
	if err != nil {
		t.Fatalf("remote run: %v", err)
	}
	requireEqualMF(t, want, got, "remote == local")
	requireSameNodes(t, res.Graph, local, cluster.Engine, examples, "remote == local")

	// Kill leg: server 1 dies just before the 10th neighbor sample. The
	// run must abort with the engine's typed error.
	wrapped := &killAfter{src: cluster.Engine, n: 10, kill: func() { servers[1].Close() }}
	_, err = TrainMFGraph(wrapped, examples, cfg)
	if err == nil {
		t.Fatal("training survived a dead shard server without an error")
	}
	if !errors.Is(err, engine.ErrShardUnavailable) {
		t.Fatalf("expected typed engine.ErrShardUnavailable, got: %v", err)
	}
	// A bulk read spanning the dead server's shards fails the same typed
	// way — no panic, no partially filled block handed back as a result.
	var blk graph.NodeBlock
	err = cluster.Engine.TryReadNodes(exampleNodes(examples), graph.ReadNeighbors|graph.ReadContent, &blk)
	if !errors.Is(err, engine.ErrShardUnavailable) {
		t.Fatalf("bulk read over a dead server: expected typed engine.ErrShardUnavailable, got: %v", err)
	}

	// Restart leg: a fresh server on the same address re-serves shards
	// 2,3; the cluster client redials on demand and a from-scratch run is
	// again bit-identical to the local one.
	ln2, err := net.Listen("tcp", addrs[1])
	if err != nil {
		t.Fatalf("relisten %s: %v", addrs[1], err)
	}
	servers[1] = rpc.NewServer(res.Graph, rpc.ServerConfig{
		Shards: 4, Strategy: partition.Hash, Owned: layout[1], Locality: true,
	})
	servers[1].Start(ln2)

	again, err := TrainMFGraph(cluster.Engine, examples, cfg)
	if err != nil {
		t.Fatalf("post-restart run: %v", err)
	}
	requireEqualMF(t, want, again, "post-restart == local")
	requireSameNodes(t, res.Graph, local, cluster.Engine, examples, "post-restart == local")
}
