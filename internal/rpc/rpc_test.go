package rpc

import (
	"net"
	"slices"
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/ingest"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
)

func buildGraph(t testing.TB) *graph.Graph {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	return graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
}

// startServer builds and starts one shard server on a loopback listener,
// returning it and its dialable address.
func startServer(t testing.TB, g *graph.Graph, cfg ServerConfig) (*Server, string) {
	t.Helper()
	s := NewServer(g, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s.Start(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

// startCluster spins one server per owned-set and dials them into a
// remote engine.
func startCluster(t testing.TB, g *graph.Graph, shards int, strat partition.Strategy, layout [][]int) ([]*Server, *Cluster) {
	t.Helper()
	servers := make([]*Server, len(layout))
	addrs := make([]string, len(layout))
	for i, owned := range layout {
		servers[i], addrs[i] = startServer(t, g, ServerConfig{
			Shards: shards, Strategy: strat, Owned: owned,
		})
	}
	cluster, err := DialClusterWith(ClientConfig{}, addrs...)
	if err != nil {
		t.Fatalf("dial cluster: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	return servers, cluster
}

// The loopback equivalence pin: an Engine whose shards sit behind TCP
// must be bit-identical to the in-process single-store engine — single
// draws, scatter-gather batches, multi-hop trees, full ROI construction
// and single-node attribute reads — across both partition strategies and a multi-server
// layout. This is what makes the distributed backend trustworthy.
func TestLoopbackEquivalence(t *testing.T) {
	g := buildGraph(t)
	local := engine.New(g, engine.Config{Shards: 1})

	cases := []struct {
		name   string
		shards int
		strat  partition.Strategy
		layout [][]int
	}{
		{"hash-4-two-servers", 4, partition.Hash, [][]int{{0, 2}, {1, 3}}},
		{"degree-3-one-server", 3, partition.DegreeBalanced, [][]int{{0, 1, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, cluster := startCluster(t, g, tc.shards, tc.strat, tc.layout)
			remote := cluster.Engine
			if remote.NumNodes() != g.NumNodes() || remote.ContentDim() != g.ContentDim() {
				t.Fatalf("handshake shape %d/%d, want %d/%d",
					remote.NumNodes(), remote.ContentDim(), g.NumNodes(), g.ContentDim())
			}

			// Single draws: the RNG state travels over the wire and must be
			// consumed exactly as in-process.
			rl, rr := rng.New(99), rng.New(99)
			want := make([]graph.NodeID, 7)
			got := make([]graph.NodeID, 7)
			for id := 0; id < g.NumNodes(); id += 3 {
				nid := graph.NodeID(id)
				nw := local.SampleNeighborsInto(nid, want, rl)
				ng := remote.SampleNeighborsInto(nid, got, rr)
				if nw != ng {
					t.Fatalf("node %d: remote wrote %d, local %d", id, ng, nw)
				}
				for i := 0; i < nw; i++ {
					if want[i] != got[i] {
						t.Fatalf("node %d draw %d: remote %d, local %d", id, i, got[i], want[i])
					}
				}
			}
			if a, b := rl.Uint64(), rr.Uint64(); a != b {
				t.Fatalf("RNG streams diverged after remote draws: %d vs %d", a, b)
			}

			// Scatter-gather batch.
			r := rng.New(7)
			const k = 6
			ids := make([]graph.NodeID, 300)
			for i := range ids {
				ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
			}
			wantOut := make([]graph.NodeID, len(ids)*k)
			wantNs := make([]int32, len(ids))
			gotOut := make([]graph.NodeID, len(ids)*k)
			gotNs := make([]int32, len(ids))
			if _, err := local.SampleNeighborsBatchInto(ids, k, wantOut, wantNs, rng.New(123), engine.NewBatchScratch()); err != nil {
				t.Fatalf("local batch: %v", err)
			}
			if _, err := remote.SampleNeighborsBatchInto(ids, k, gotOut, gotNs, rng.New(123), engine.NewBatchScratch()); err != nil {
				t.Fatalf("remote batch: %v", err)
			}
			for i := range ids {
				if wantNs[i] != gotNs[i] {
					t.Fatalf("batch entry %d: remote count %d, local %d", i, gotNs[i], wantNs[i])
				}
				for j := 0; j < int(wantNs[i]); j++ {
					if wantOut[i*k+j] != gotOut[i*k+j] {
						t.Fatalf("batch entry %d draw %d: remote %d, local %d", i, j, gotOut[i*k+j], wantOut[i*k+j])
					}
				}
			}

			// Frontier-batched multi-hop expansion.
			var ego graph.NodeID
			for id := 0; id < g.NumNodes(); id++ {
				if g.Degree(graph.NodeID(id)) >= 5 {
					ego = graph.NodeID(id)
					break
				}
			}
			wantTree, err := local.SampleTree(ego, 2, 5, rng.New(55), engine.NewBatchScratch())
			if err != nil {
				t.Fatalf("local tree: %v", err)
			}
			gotTree, err := remote.SampleTree(ego, 2, 5, rng.New(55), engine.NewBatchScratch())
			if err != nil {
				t.Fatalf("remote tree: %v", err)
			}
			if len(wantTree) <= 1 || len(gotTree) != len(wantTree) {
				t.Fatalf("tree sizes %d vs %d", len(gotTree), len(wantTree))
			}
			for i := range wantTree {
				if wantTree[i] != gotTree[i] {
					t.Fatalf("tree node %d: remote %+v, local %+v", i, gotTree[i], wantTree[i])
				}
			}

			// Full ROI construction through the GraphView seam: the sampler
			// reads adjacencies and content over the wire and must reproduce
			// the local trees exactly.
			s := sampling.NewFocalBiased()
			var compare func(a, b *sampling.Tree)
			compare = func(a, b *sampling.Tree) {
				if a.Node != b.Node || len(a.Edges) != len(b.Edges) {
					t.Fatalf("ROI tree node %d/%d edges %d/%d", a.Node, b.Node, len(a.Edges), len(b.Edges))
				}
				for i := range a.Edges {
					if a.Edges[i] != b.Edges[i] {
						t.Fatalf("ROI edge %d differs at node %d", i, a.Node)
					}
					compare(a.Children[i], b.Children[i])
				}
			}
			for id := 0; id < g.NumNodes() && id < 100; id += 17 {
				nid := graph.NodeID(id)
				focal := g.Content(nid)
				want := sampling.BuildTree(g, nid, focal, 2, 4, s, rng.New(31), sampling.NewScratch())
				got := sampling.BuildTree(remote, nid, focal, 2, 4, s, rng.New(31), sampling.NewScratch())
				compare(want, got)
			}

			// Single-node attribute reads of every node: exactly the source
			// graph's rows.
			all := make([]graph.NodeID, g.NumNodes())
			for i := range all {
				all[i] = graph.NodeID(i)
			}
			requireSingleReadsEqual(t, g, remote, all)
		})
	}
}

// The routing layer must accept any mix of in-process shards and remote
// stubs and stay bit-identical to the fully local engine.
func TestMixedLocalRemoteBackends(t *testing.T) {
	g := buildGraph(t)
	const shards = 4
	local := engine.New(g, engine.Config{Shards: shards, Strategy: partition.Hash})

	// Shards 1 and 3 live behind a server; 0 and 2 are in-process.
	_, addr := startServer(t, g, ServerConfig{Shards: shards, Strategy: partition.Hash, Owned: []int{1, 3}})
	cl := newClient(addr, ClientConfig{})
	t.Cleanup(func() { cl.Close() })
	info, err := cl.Info()
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	routing, err := cl.Routing()
	if err != nil {
		t.Fatalf("routing: %v", err)
	}
	part := partition.SplitOpts(g, shards, partition.Hash, partition.Options{})
	groups := make([][]engine.ShardBackend, shards)
	groups[0] = []engine.ShardBackend{engine.BuildShard(part, 0, 1)}
	groups[2] = []engine.ShardBackend{engine.BuildShard(part, 2, 1)}
	for _, sh := range info.Owned {
		groups[sh.ID] = []engine.ShardBackend{newRemoteShard(cl, sh.ID, sh.Nodes, sh.Edges)}
	}
	mixed := engine.NewWithReplicaSets(routing, groups, info.ContentDim)

	r := rng.New(17)
	const k = 5
	ids := make([]graph.NodeID, 200)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	wantOut := make([]graph.NodeID, len(ids)*k)
	wantNs := make([]int32, len(ids))
	gotOut := make([]graph.NodeID, len(ids)*k)
	gotNs := make([]int32, len(ids))
	if _, err := local.SampleNeighborsBatchInto(ids, k, wantOut, wantNs, rng.New(5), engine.NewBatchScratch()); err != nil {
		t.Fatalf("local batch: %v", err)
	}
	if _, err := mixed.SampleNeighborsBatchInto(ids, k, gotOut, gotNs, rng.New(5), engine.NewBatchScratch()); err != nil {
		t.Fatalf("mixed batch: %v", err)
	}
	for i := range ids {
		if wantNs[i] != gotNs[i] {
			t.Fatalf("entry %d: mixed count %d, local %d", i, gotNs[i], wantNs[i])
		}
		for j := 0; j < int(wantNs[i]); j++ {
			if wantOut[i*k+j] != gotOut[i*k+j] {
				t.Fatalf("entry %d draw %d: mixed %d, local %d", i, j, gotOut[i*k+j], wantOut[i*k+j])
			}
		}
	}
}

// The acceptance pin on round-trip budget: a scatter-gather batch issues
// at most one OpBatch request per owning shard, and SampleTree at most
// one per owning shard per hop — asserted against the servers' own
// request counters with one server per shard.
func TestBatchRoundTripBudget(t *testing.T) {
	g := buildGraph(t)
	const shards = 4
	servers, cluster := startCluster(t, g, shards, partition.Hash,
		[][]int{{0}, {1}, {2}, {3}})
	remote := cluster.Engine

	// A batch spanning every shard: exactly one round trip per shard.
	const k = 4
	ids := make([]graph.NodeID, 64)
	r := rng.New(3)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	out := make([]graph.NodeID, len(ids)*k)
	ns := make([]int32, len(ids))
	if _, err := remote.SampleNeighborsBatchInto(ids, k, out, ns, r, engine.NewBatchScratch()); err != nil {
		t.Fatalf("batch: %v", err)
	}
	owned := make([]bool, shards)
	for _, id := range ids {
		owned[remote.ShardOf(id)] = true
	}
	for si, srv := range servers {
		want := int64(0)
		if owned[si] {
			want = 1
		}
		if got := srv.OpCount(OpBatch); got != want {
			t.Fatalf("shard %d served %d batch round trips for one batch, want %d", si, got, want)
		}
	}

	// A multi-hop tree: ≤ hops round trips per shard.
	before := make([]int64, shards)
	for si, srv := range servers {
		before[si] = srv.OpCount(OpBatch)
	}
	const hops = 2
	var ego graph.NodeID
	for id := 0; id < g.NumNodes(); id++ {
		if g.Degree(graph.NodeID(id)) >= 5 {
			ego = graph.NodeID(id)
			break
		}
	}
	if _, err := remote.SampleTree(ego, hops, 5, r, engine.NewBatchScratch()); err != nil {
		t.Fatalf("tree: %v", err)
	}
	for si, srv := range servers {
		if got := srv.OpCount(OpBatch) - before[si]; got > hops {
			t.Fatalf("shard %d served %d batch round trips for a %d-hop tree", si, got, hops)
		}
	}
}

// A 24-byte batch request — one entry at batch index 2^24−1 with k = 4 —
// is staged for the draws its response carries, not for the client's
// batch layout up to that index.
func TestBatchRequestStagingBoundedByResponse(t *testing.T) {
	s, a, _, _ := seedServer(ServerConfig{})
	req := appendBatch(nil, []graph.NodeID{a}, []int32{1<<24 - 1}, 7, 4)
	if len(req) != 24 {
		t.Fatalf("request is %d bytes, want 24", len(req))
	}
	var err error
	if n := allocatedBy(func() { _, err = s.handleBatch(s.own.Load(), req, &serverConn{}) }); n > 64<<10 {
		t.Fatalf("a %d-byte batch request allocated %d bytes", len(req), n)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// A batch visit answers entries at any batch indices with the draws the
// in-process shard draws for them: bit-identical, appended-to and
// isolated nodes included.
func TestBatchVisitMatchesInProcess(t *testing.T) {
	g := buildGraph(t)
	s := NewServer(g, ServerConfig{Shards: 2})
	o := s.own.Load()
	sh := o.shards[0]
	var gids []graph.NodeID
	isolated := false
	for id := graph.NodeID(0); int(id) < g.NumNodes() && len(gids) < 16; id++ {
		if s.part.Owner(id) == 0 && (g.Degree(id) > 0 || !isolated) {
			isolated = isolated || g.Degree(id) == 0
			gids = append(gids, id)
		}
	}
	if _, err := sh.AppendEdges([]ingest.Edge{{Src: gids[1], Dst: gids[2], Type: graph.Click, Weight: 3}}); err != nil {
		t.Fatal(err)
	}
	idx := make([]int32, len(gids))
	for j := range idx {
		idx[j] = int32(1<<16 + 997*(len(gids)-j)) // far past the visit's size, descending
	}
	const k, base = 5, 42
	n := int(slices.Max(idx)) + 1
	want, wantNS := make([]graph.NodeID, n*k), make([]int32, n)
	got, gotNS := make([]graph.NodeID, n*k), make([]int32, n)
	wantTotal, err := sh.SampleBatchInto(gids, idx, base, k, want, wantNS)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := s.handleBatch(o, appendBatch(nil, gids, idx, base, k), &serverConn{})
	if err != nil {
		t.Fatal(err)
	}
	gotTotal, err := decodeBatch(frame[4+8+1:], gids, idx, k, got, gotNS)
	if err != nil {
		t.Fatal(err)
	}
	if gotTotal != wantTotal || !slices.Equal(gotNS, wantNS) || !slices.Equal(got, want) {
		t.Fatalf("batch visit drew %d draws, the in-process shard %d (or their draws differ)", gotTotal, wantTotal)
	}
}

// Stats over a remote cluster folds in the stubs' client-side request
// counters and the handshake's partition sizes.
func TestRemoteStats(t *testing.T) {
	g := buildGraph(t)
	_, cluster := startCluster(t, g, 3, partition.DegreeBalanced, [][]int{{0, 1, 2}})
	remote := cluster.Engine
	r := rng.New(4)
	out := make([]graph.NodeID, 4)
	for id := 0; id < 60; id++ {
		remote.SampleNeighborsInto(graph.NodeID(id%g.NumNodes()), out, r)
	}
	st := remote.Stats()
	var totalReq int64
	totalNodes := 0
	for si := 0; si < 3; si++ {
		totalReq += st.RequestsPerShard[si]
		totalNodes += st.NodesPerShard[si]
	}
	if totalReq != 60 {
		t.Fatalf("remote stats counted %d requests, want 60", totalReq)
	}
	if totalNodes != g.NumNodes() {
		t.Fatalf("remote stats count %d nodes, graph has %d", totalNodes, g.NumNodes())
	}
}

// The steady-state remote sample/batch cycle must stay allocation-free —
// client encode/decode scratch, pooled connections and server-side
// staging are all reused. Both ends run in this process, so the
// measurement covers the full cycle.
func TestRemoteHotPathDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop items at random, so the
		// pooled call timers and batch handles re-allocate spuriously.
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := buildGraph(t)
	_, cluster := startCluster(t, g, 2, partition.Hash, [][]int{{0, 1}})
	remote := cluster.Engine
	const batch, k = 32, 6
	r := rng.New(8)
	ids := make([]graph.NodeID, batch)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	out := make([]graph.NodeID, batch*k)
	ns := make([]int32, batch)
	bs := engine.NewBatchScratch()
	single := make([]graph.NodeID, k)

	// Warm the pool and every scratch buffer.
	for i := 0; i < 5; i++ {
		if _, err := remote.SampleNeighborsBatchInto(ids, k, out, ns, r, bs); err != nil {
			t.Fatalf("warm batch: %v", err)
		}
		remote.TrySampleNeighborsIntoBy(ids[0], single, r, time.Time{})
	}
	if avg := testing.AllocsPerRun(50, func() {
		remote.SampleNeighborsBatchInto(ids, k, out, ns, r, bs)
	}); avg > 0.5 {
		t.Fatalf("remote batch allocates %.1f objects/op at steady state", avg)
	}
	for _, budget := range []time.Duration{0, time.Minute} {
		if avg := testing.AllocsPerRun(50, func() {
			var deadline time.Time
			if budget > 0 {
				deadline = time.Now().Add(budget)
			}
			remote.TrySampleNeighborsIntoBy(ids[0], single, r, deadline)
		}); avg > 0.5 {
			t.Fatalf("remote single sample (deadline budget %v) allocates %.1f objects/op at steady state", budget, avg)
		}
	}
}
