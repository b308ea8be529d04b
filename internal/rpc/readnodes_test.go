package rpc

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// randomIDs draws n node ids with repeats.
func randomIDs(g *graph.Graph, n int, seed uint64) []graph.NodeID {
	r := rng.New(seed)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(r.Intn(g.NumNodes()))
	}
	return ids
}

// requireBlockEqual asserts a block holds exactly what the graph says
// about ids, for the requested columns, and nothing in the others.
func requireBlockEqual(t testing.TB, g *graph.Graph, ids []graph.NodeID, fields graph.ReadFields, got *graph.NodeBlock) {
	t.Helper()
	var want graph.NodeBlock
	g.ReadNodes(ids, fields, &want)
	if len(got.Neighbors) != len(want.Neighbors) || len(got.Features) != len(want.Features) || len(got.Content) != len(want.Content) {
		t.Fatalf("fields %#x: columns sized %d/%d/%d, want %d/%d/%d", fields,
			len(got.Neighbors), len(got.Features), len(got.Content),
			len(want.Neighbors), len(want.Features), len(want.Content))
	}
	for i, id := range ids {
		if fields&graph.ReadNeighbors != 0 && !slices.Equal(want.Neighbors[i], got.Neighbors[i]) {
			t.Fatalf("entry %d (node %d): edges %+v, want %+v", i, id, got.Neighbors[i], want.Neighbors[i])
		}
		if fields&graph.ReadFeatures != 0 && !slices.Equal(want.Features[i], got.Features[i]) {
			t.Fatalf("entry %d (node %d): features %v, want %v", i, id, got.Features[i], want.Features[i])
		}
		if fields&graph.ReadContent != 0 {
			w, g := want.Content[i], got.Content[i]
			if (w == nil) != (g == nil) || !slices.Equal(w, g) {
				t.Fatalf("entry %d (node %d): content %v, want %v", i, id, g, w)
			}
		}
	}
}

// requireSingleReadsEqual asserts the engine's single-node reads (1-id
// bulk reads over a remote backend; they panic on a failed call) return
// exactly what the graph holds for each of ids.
func requireSingleReadsEqual(t testing.TB, g *graph.Graph, eng *engine.Engine, ids []graph.NodeID) {
	t.Helper()
	for _, id := range ids {
		if got, want := eng.Neighbors(id), g.Neighbors(id); !slices.Equal(want, got) {
			t.Fatalf("node %d: edges %+v, want %+v", id, got, want)
		}
		if got, want := eng.Features(id), g.Features(id); !slices.Equal(want, got) {
			t.Fatalf("node %d: features %v, want %v", id, got, want)
		}
		if got, want := eng.Content(id), g.Content(id); (want == nil) != (got == nil) || !slices.Equal(want, got) {
			t.Fatalf("node %d: content %v, want %v", id, got, want)
		}
	}
}

// The bulk read over the wire returns exactly what the graph holds, for
// every combination of attributes, with repeated ids, across a
// multi-server layout — and a block reused across reads is not corrupted
// by the next one.
func TestReadNodesMatchesGraph(t *testing.T) {
	g := buildGraph(t)
	_, cluster := startCluster(t, g, 4, partition.Hash, [][]int{{0, 2}, {1, 3}})
	local := engine.New(g, engine.Config{Shards: 3, Strategy: partition.DegreeBalanced})
	for name, eng := range map[string]*engine.Engine{"remote": cluster.Engine, "local": local} {
		var blk graph.NodeBlock
		for fields := graph.ReadFields(1); fields <= graph.ReadAll; fields++ {
			ids := randomIDs(g, 257, uint64(fields))
			if err := eng.TryReadNodes(ids, fields, &blk); err != nil {
				t.Fatalf("%s fields %#x: %v", name, fields, err)
			}
			requireBlockEqual(t, g, ids, fields, &blk)
		}
		if err := eng.TryReadNodes(nil, graph.ReadAll, &blk); err != nil || len(blk.Neighbors) != 0 {
			t.Fatalf("%s: empty read: %v, %d entries", name, err, len(blk.Neighbors))
		}
	}
}

// Nodes without a content vector, without features and without edges
// cross the wire as exactly that: nil stays nil, empty stays empty.
func TestReadNodesAbsentAttributes(t *testing.T) {
	b := graph.NewBuilder()
	full := b.AddNode(graph.User, []int32{1, 2, 3}, tensor.Vec{0.5, -1})
	bare := b.AddNode(graph.Item, nil, nil)
	b.AddEdge(full, bare, graph.Click, 2)
	g := b.Build()
	_, cluster := startCluster(t, g, 1, partition.Hash, [][]int{{0}})
	ids := []graph.NodeID{bare, full, bare}
	var blk graph.NodeBlock
	if err := cluster.Engine.TryReadNodes(ids, graph.ReadAll, &blk); err != nil {
		t.Fatal(err)
	}
	requireBlockEqual(t, g, ids, graph.ReadAll, &blk)
	if blk.Content[0] != nil || blk.Content[1] == nil {
		t.Fatalf("content presence lost: %v / %v", blk.Content[0], blk.Content[1])
	}
}

// One bulk read is one request per owning shard, whatever the id count
// below the visit size; a group above it is split by the engine into
// requests the server accepts, and a request above the cap is refused
// over a connection that stays healthy.
func TestReadNodesChunksLargeGroups(t *testing.T) {
	g := buildGraph(t)
	servers, cluster := startCluster(t, g, 4, partition.Hash, [][]int{{0, 2}, {1, 3}})
	eng := cluster.Engine
	reads := func() int64 { return servers[0].OpCount(OpReadNodes) + servers[1].OpCount(OpReadNodes) }

	var blk graph.NodeBlock
	ids := randomIDs(g, 500, 3)
	before := reads()
	if err := eng.TryReadNodes(ids, graph.ReadContent, &blk); err != nil {
		t.Fatal(err)
	}
	if d := reads() - before; d != 4 {
		t.Fatalf("500 ids over 4 shards took %d requests, want 4", d)
	}
	if st := eng.Stats(); st.Imbalance == 0 {
		t.Fatal("bulk reads did not register in the per-shard request counters")
	}

	// Every id on shard 0, three full visits and a remainder.
	var shard0 []graph.NodeID
	for id := 0; len(shard0) < 3*maxReadNodes+7; id = (id + 4) % g.NumNodes() {
		shard0 = append(shard0, graph.NodeID(id))
	}
	before = reads()
	if err := eng.TryReadNodes(shard0, graph.ReadFeatures|graph.ReadContent, &blk); err != nil {
		t.Fatalf("read above the visit size: %v", err)
	}
	requireBlockEqual(t, g, shard0, graph.ReadFeatures|graph.ReadContent, &blk)
	if d := reads() - before; d != 4 {
		t.Fatalf("%d ids of one shard took %d requests, want 4", len(shard0), d)
	}

	stub := eng.Backend(0).(*RemoteShard)
	blk.Resize(maxReadNodes+1, graph.ReadFeatures)
	err := stub.ReadNodesInto(shard0[:maxReadNodes+1], nil, graph.ReadFeatures, &blk)
	if err == nil || errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("request above the cap: got %v, want a server-answered refusal", err)
	}
	if !stub.Healthy() {
		t.Fatal("a refused request tripped the health circuit")
	}
	blk.Resize(1, graph.ReadFeatures)
	if err := stub.ReadNodesInto(shard0[:1], nil, graph.ReadFeatures, &blk); err != nil {
		t.Fatalf("connection unusable after a refused request: %v", err)
	}
}

// A bulk read that runs into a drained partition refreshes ownership and
// re-sends only that partition's visit: no failed call, identical
// results, and the request count shows the other three visits were not
// repeated. Then the same — single-node reads included — under a
// migration loop racing the reads.
func TestLiveHandoffBulkRead(t *testing.T) {
	g := buildGraph(t)
	const moved = 1
	servers, cluster := startCluster(t, g, 4, partition.Hash, [][]int{{0, 1}, {2, 3}})
	eng := cluster.Engine
	srcSrv, dstSrv := servers[0], servers[1]
	reads := func() int64 { return srcSrv.OpCount(OpReadNodes) + dstSrv.OpCount(OpReadNodes) }

	var blk graph.NodeBlock
	ids := randomIDs(g, 400, 11)
	for step := 0; step < 6; step++ {
		want := int64(4)
		switch step {
		case 2:
			migrate(t, moved, srcSrv, dstSrv)
			want = 5 // the stale view's visit to the drained shard, redirected, plus its redo
		case 4:
			migrate(t, moved, dstSrv, srcSrv)
			want = 5
		}
		before := reads()
		if err := eng.TryReadNodes(ids, graph.ReadAll, &blk); err != nil {
			t.Fatalf("step %d: bulk read failed across the handoff: %v", step, err)
		}
		requireBlockEqual(t, g, ids, graph.ReadAll, &blk)
		if d := reads() - before; d != want {
			t.Fatalf("step %d: %d read requests, want %d", step, d, want)
		}
	}
	if eng.Epoch() < 2 {
		t.Fatalf("engine epoch %d after two migrations, want >= 2", eng.Epoch())
	}

	stop := make(chan struct{})
	var migrations atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for from, to := srcSrv, dstSrv; ; from, to = to, from {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			if _, err := to.AcquirePartition(moved); err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			if _, err := from.ReleasePartition(moved); err != nil {
				t.Errorf("release: %v", err)
				return
			}
			migrations.Add(1)
		}
	}()
	for round := 0; migrations.Load() < 8 && !t.Failed(); round++ {
		ids := randomIDs(g, 200, uint64(100+round))
		if err := eng.TryReadNodes(ids, graph.ReadAll, &blk); err != nil {
			t.Fatalf("round %d: bulk read failed under the migration loop: %v", round, err)
		}
		requireBlockEqual(t, g, ids, graph.ReadAll, &blk)
		requireSingleReadsEqual(t, g, eng, ids[:8])
	}
	close(stop)
	wg.Wait()
}

// Killing one replica of every partition while bulk reads run surfaces
// nothing: the visits (and single-node reads) that were headed for the
// dead server fail over to the survivor and return what an undisturbed
// cluster returns.
func TestKillReplicaMidBulkRead(t *testing.T) {
	g := buildGraph(t)
	all := []int{0, 1, 2, 3}
	srvA, addrA := startReplicaServer(t, g, 4, all)
	srvB, addrB := startReplicaServer(t, g, 4, all)
	cluster, err := DialCluster(addrA, addrB)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	cluster.SetPollTimeout(300 * time.Millisecond)
	eng := cluster.Engine

	var blk graph.NodeBlock
	for round := 0; round < 10; round++ {
		if round == 3 {
			srvA.Close()
		}
		ids := randomIDs(g, 300, uint64(round))
		before := srvB.OpCount(OpReadNodes)
		if err := eng.TryReadNodes(ids, graph.ReadAll, &blk); err != nil {
			t.Fatalf("round %d: bulk read after replica kill: %v", round, err)
		}
		requireBlockEqual(t, g, ids, graph.ReadAll, &blk)
		if d := srvB.OpCount(OpReadNodes) - before; d > 4 {
			t.Fatalf("round %d: survivor served %d requests for a 4-shard read — a visit was repeated", round, d)
		}
		requireSingleReadsEqual(t, g, eng, ids[:8])
	}
}

// The steady-state bulk read decodes into the caller's block without
// allocating: grouping scratch, visit handles and the block's arenas are
// all reused.
func TestRemoteReadNodesDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	g := buildGraph(t)
	_, cluster := startCluster(t, g, 4, partition.Hash, [][]int{{0, 1}, {2, 3}})
	eng := cluster.Engine
	ids := randomIDs(g, 64, 5)
	var blk graph.NodeBlock
	read := func() {
		blk.Reset()
		if err := eng.TryReadNodes(ids, graph.ReadAll, &blk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		read()
	}
	if avg := testing.AllocsPerRun(50, read); avg > 0.5 {
		t.Fatalf("remote bulk read allocates %.1f objects/op at steady state", avg)
	}
	requireBlockEqual(t, g, ids, graph.ReadAll, &blk)
}

// allocatedBy reports the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// A frame of a few dozen bytes that declares a quarter-gigabyte payload
// is refused typed before anything is allocated for it — in the batch
// request decoder and in both directions of the bulk op.
func TestDecodersBoundCountsByFrameBytes(t *testing.T) {
	huge := appendU32(nil, 1<<24)
	totals := appendU32(appendU32(appendU32(nil, 1<<24), 1<<24), 1<<24)
	var blk graph.NodeBlock
	blk.Resize(1, graph.ReadAll)
	reply, n, k := batchReplySeed(t)
	copy(reply, appendU32(nil, uint32(n*k+1))) // the header claims more draws than the entries carry
	out, ns := make([]graph.NodeID, 2*n*k), make([]int32, 2*n)
	cases := map[string]func() error{
		"batch response total": func() error {
			_, err := decodeBatch(reply, make([]graph.NodeID, n), fuzzBatchIdx(n), k, out, ns)
			return err
		},
		"batch request": func() error {
			// maxFrame/8 entries declared, two carried.
			payload := appendBatch(nil, []graph.NodeID{1, 2}, []int32{0, 1}, 7, 1)
			copy(payload[12:], appendU32(nil, maxFrame/8))
			return decodeBatchRequest(payload, new(batchRequest))
		},
		"read-nodes request": func() error {
			_, _, err := decodeReadNodesRequest(append([]byte{byte(graph.ReadAll)}, huge...), nil)
			return err
		},
		"read-nodes response": func() error {
			return decodeReadNodesResponse(append(totals, 0), nil, 1, graph.ReadAll, &blk)
		},
		"routing-epoch owned triples": func() error {
			_, _, _, err := decodeEpoch(appendU32(appendU64(nil, 1), 1<<20)) // a 12-byte frame
			return err
		},
		"routing-epoch ingest rows": func() error {
			// No shards, no members, a million ingest rows and not one byte of them.
			_, _, _, err := decodeEpoch(appendU32(appendU32(appendU32(appendU64(nil, 1), 0), 0), 1<<20))
			return err
		},
	}
	for name, decode := range cases {
		var err error
		if n := allocatedBy(func() { err = decode() }); n > 1<<16 {
			t.Fatalf("%s: allocated %d bytes for a %d-byte frame", name, n, len(totals)+1)
		}
		if !errors.Is(err, ErrMalformedFrame) {
			t.Fatalf("%s: got %v, want ErrMalformedFrame", name, err)
		}
	}
	// The request cap is checked even when the bytes are all there.
	over := appendReadNodesRequest(nil, make([]graph.NodeID, maxReadNodes+1), graph.ReadContent)
	if _, _, err := decodeReadNodesRequest(over, nil); !errors.Is(err, ErrMalformedFrame) {
		t.Fatalf("request above the cap: got %v", err)
	}
}

// readNodesSeeds are well-formed frames the fuzz targets start from (the
// checked-in corpus under testdata/fuzz adds malformed ones).
func readNodesSeeds(t testing.TB) (request, response []byte) {
	b := graph.NewBuilder()
	a := b.AddNode(graph.User, []int32{7, 8}, tensor.Vec{1, 2, 3})
	c := b.AddNode(graph.Item, nil, nil)
	b.AddUndirected(a, c, graph.Click, 1.5)
	g := b.Build()
	ids := []graph.NodeID{a, c, a}
	var blk graph.NodeBlock
	g.ReadNodes(ids, graph.ReadAll, &blk)
	response, err := appendReadNodesResponse(nil, &blk, len(ids), graph.ReadAll)
	if err != nil {
		t.Fatal(err)
	}
	return appendReadNodesRequest(nil, ids, graph.ReadAll), response
}

// FuzzDecodeBatchRequest: the server-side batch decoder never panics,
// never sizes its staging past the frame's own bytes, and fails typed.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add(appendBatch(nil, []graph.NodeID{4, 0, 8}, []int32{2, 0, 5}, 99, 3))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req batchRequest
		var err error
		if got := allocatedBy(func() { err = decodeBatchRequest(payload, &req) }); got > uint64(len(payload))+1<<14 {
			t.Fatalf("allocated %d bytes decoding a %d-byte frame", got, len(payload))
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(req.gids) == 0 || len(req.gids) != len(req.idx) || req.k <= 0 || req.k > maxK || int64(len(req.gids))*int64(req.k) > maxFrame/4 || slices.ContainsFunc(req.idx, func(i int32) bool { return i < 0 }) {
			t.Fatalf("accepted %d entries, k=%d, indices %v from %d bytes", len(req.gids), req.k, req.idx, len(payload))
		}
		if again := appendBatch(nil, req.gids, req.idx, req.base, req.k); string(again) != string(payload) {
			t.Fatal("accepted request does not re-encode to itself")
		}
	})
}

// FuzzDecodeSampleRequest: the server-side sample decoder never panics,
// allocates no more than the frame carries, fails typed, and accepts only
// an in-range k that re-encodes to the frame.
func FuzzDecodeSampleRequest(f *testing.F) {
	f.Add(appendSampleRequest(nil, 3, 5, [4]uint64{1, 2, 3, 4}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var id graph.NodeID
		var k int
		var st [4]uint64
		var err error
		if got := allocatedBy(func() { id, k, st, err = decodeSampleRequest(payload) }); got > uint64(len(payload))+1<<14 {
			t.Fatalf("allocated %d bytes decoding a %d-byte frame", got, len(payload))
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if k <= 0 || k > maxK {
			t.Fatalf("accepted k=%d", k)
		}
		if again := appendSampleRequest(nil, id, k, st); string(again) != string(payload) {
			t.Fatal("accepted request does not re-encode to itself")
		}
	})
}

// FuzzDecodeReassignRequest: the admin-command decoder never panics,
// allocates no more than the frame carries, fails typed, and accepts only
// the two actions.
func FuzzDecodeReassignRequest(f *testing.F) {
	f.Add(appendReassignRequest(nil, 2, true))
	f.Add(appendReassignRequest(nil, 0, false))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var shard int
		var acquire bool
		var err error
		if got := allocatedBy(func() { shard, acquire, err = decodeReassignRequest(payload) }); got > uint64(len(payload))+1<<14 {
			t.Fatalf("allocated %d bytes decoding a %d-byte frame", got, len(payload))
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if again := appendReassignRequest(nil, shard, acquire); string(again) != string(payload) {
			t.Fatal("accepted request does not re-encode to itself")
		}
	})
}

// FuzzDecodeMembersRequest: the membership decoder never panics,
// allocates no more than the frame carries, and fails typed.
func FuzzDecodeMembersRequest(f *testing.F) {
	f.Add(appendMembersRequest(nil, "10.0.0.2:7000"))
	f.Add(appendMembersRequest(nil, ""))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var announce string
		var err error
		if got := allocatedBy(func() { announce, err = decodeMembersRequest(payload) }); got > uint64(len(payload))+1<<14 {
			t.Fatalf("allocated %d bytes decoding a %d-byte frame", got, len(payload))
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if again := appendMembersRequest(nil, announce); string(again) != string(payload) {
			t.Fatal("accepted request does not re-encode to itself")
		}
	})
}

// FuzzDecodeReadNodesRequest: the server-side decoder never panics,
// never allocates beyond the cap, and fails typed.
func FuzzDecodeReadNodesRequest(f *testing.F) {
	req, _ := readNodesSeeds(f)
	f.Add(req)
	f.Fuzz(func(t *testing.T, payload []byte) {
		fields, gids, err := decodeReadNodesRequest(payload, nil)
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(gids) == 0 || len(gids) > maxReadNodes || 4*len(gids) > len(payload) || fields == 0 || fields&^graph.ReadAll != 0 {
			t.Fatalf("accepted %d ids, fields %#x from %d bytes", len(gids), fields, len(payload))
		}
		if again := appendReadNodesRequest(nil, gids, fields); string(again) != string(payload) {
			t.Fatal("accepted request does not re-encode to itself")
		}
	})
}

// FuzzDecodeReadNodesResponse: the client-side decoder never panics,
// carves no more arena than the frame has bytes, and fails typed.
func FuzzDecodeReadNodesResponse(f *testing.F) {
	_, resp := readNodesSeeds(f)
	f.Add(resp, uint8(graph.ReadAll), uint8(3))
	f.Fuzz(func(t *testing.T, body []byte, fieldBits, n uint8) {
		fields := graph.ReadFields(fieldBits) & graph.ReadAll
		var blk graph.NodeBlock
		blk.Resize(int(n), fields)
		var err error
		if got := allocatedBy(func() { err = decodeReadNodesResponse(body, nil, int(n), fields, &blk) }); got > 4*uint64(len(body))+1<<14 {
			t.Fatalf("allocated %d bytes decoding a %d-byte frame", got, len(body))
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again, err := appendReadNodesResponse(nil, &blk, int(n), fields)
		if err != nil || string(again) != string(body) {
			t.Fatalf("accepted response does not re-encode to itself (%v)", err)
		}
	})
}

// fuzzBatchIdx is the entry-index layout FuzzDecodeBatchResponse decodes
// under: n entries at the even positions of a 2n-entry batch, in reverse
// order — so the odd positions belong to other visits and must never be
// written.
func fuzzBatchIdx(n int) []int32 {
	idx := make([]int32, n)
	for j := range idx {
		idx[j] = int32(2 * (n - 1 - j))
	}
	return idx
}

// batchReplySeed is the body of a real handleBatch reply: a 3-entry k=3
// visit (one entry isolated) to a server over a three-node graph.
func batchReplySeed(t testing.TB) (body []byte, n, k int) {
	b := graph.NewBuilder()
	a := b.AddNode(graph.User, nil, nil)
	c := b.AddNode(graph.Item, nil, nil)
	lone := b.AddNode(graph.Item, nil, nil)
	b.AddUndirected(a, c, graph.Click, 1.5)
	s := NewServer(b.Build(), ServerConfig{})
	gids := []graph.NodeID{a, lone, c}
	frame, err := s.handleBatch(s.own.Load(), appendBatch(nil, gids, fuzzBatchIdx(len(gids)), 99, 3), &serverConn{})
	if err != nil {
		t.Fatal(err)
	}
	return frame[4+8+1:], len(gids), 3 // past the length, request id and status
}

// FuzzDecodeBatchResponse: the client-side batch decoder never panics,
// never writes outside the visit's own regions of out/ns, fails typed,
// and reports a total that agrees with the counts it wrote.
func FuzzDecodeBatchResponse(f *testing.F) {
	body, n, k := batchReplySeed(f)
	f.Add(body, uint8(n), uint8(k))
	f.Fuzz(func(t *testing.T, body []byte, entries, k8 uint8) {
		n, k := int(entries), int(k8)
		const canary = -7
		out := make([]graph.NodeID, 2*n*k)
		ns := make([]int32, 2*n)
		for i := range out {
			out[i] = canary
		}
		for i := range ns {
			ns[i] = canary
		}
		idx := fuzzBatchIdx(n)
		total, err := decodeBatch(body, make([]graph.NodeID, n), idx, k, out, ns)
		for i := 1; i < len(ns); i += 2 {
			if ns[i] != canary {
				t.Fatalf("wrote ns[%d], another visit's entry", i)
			}
			for _, v := range out[i*k : (i+1)*k] {
				if v != canary {
					t.Fatalf("wrote entry %d's draws, another visit's region", i)
				}
			}
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again, sum := appendU32(nil, uint32(total)), 0
		for _, i := range idx {
			if ns[i] < 0 || int(ns[i]) > k {
				t.Fatalf("accepted count %d for k=%d", ns[i], k)
			}
			sum += int(ns[i])
			again = appendDraws(again, out[int(i)*k:int(i)*k+int(ns[i])])
		}
		if total != sum {
			t.Fatalf("reported %d draws, wrote %d", total, sum)
		}
		if string(again) != string(body) {
			t.Fatal("accepted response does not re-encode to itself")
		}
	})
}

// seedServer is a server over a two-node, one-edge graph — the source of
// the real replies the response fuzz targets start from. body strips a
// reply frame's length, request id and status.
func seedServer(cfg ServerConfig) (s *Server, a, c graph.NodeID, body func(frame []byte, err error) []byte) {
	b := graph.NewBuilder()
	a = b.AddNode(graph.User, nil, nil)
	c = b.AddNode(graph.Item, nil, nil)
	b.AddUndirected(a, c, graph.Click, 1.5)
	return NewServer(b.Build(), cfg), a, c, func(frame []byte, err error) []byte {
		if err != nil {
			panic(err)
		}
		return frame[4+8+1:]
	}
}

// FuzzDecodeSampleResponse: the client-side sample decoder never panics,
// writes the RNG state only when it accepts the frame and no draw past
// the ones it carries, and fails typed.
func FuzzDecodeSampleResponse(f *testing.F) {
	s, a, _, body := seedServer(ServerConfig{})
	req := (&visit{op: OpSample, id: a, k: 3, st: [4]uint64{1, 2, 3, 4}}).encode(nil)
	f.Add(body(s.handleSample(s.own.Load(), req, &serverConn{})), uint8(3))
	f.Fuzz(func(t *testing.T, body []byte, k uint8) {
		const canary = -7
		out := make([]graph.NodeID, k)
		for i := range out {
			out[i] = canary
		}
		untouched := [4]uint64{^uint64(0)}
		st := untouched
		n, err := decodeSample(body, int(k), out, &st)
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			if st != untouched {
				t.Fatal("a refused frame advanced the RNG state")
			}
			return
		}
		if again := appendSampleResponse(nil, st, out[:n]); string(again) != string(body) {
			t.Fatal("accepted response does not re-encode to itself")
		}
		for _, v := range out[n:] {
			if v != canary {
				t.Fatalf("wrote past the %d draws the frame carries", n)
			}
		}
	})
}

// FuzzDecodeAppendResponse: the append-result decoder never panics,
// accepts only the three result codes, and fails typed.
func FuzzDecodeAppendResponse(f *testing.F) {
	s, a, c, body := seedServer(ServerConfig{})
	req := (&visit{op: OpAppend, seq: 1, edges: []ingest.Edge{{Src: a, Dst: c, Type: graph.Click, Weight: 2}}}).encode(nil)
	f.Add(body(s.handleAppend(s.own.Load(), req, &serverConn{})))
	f.Fuzz(func(t *testing.T, body []byte) {
		result, lastSeq, err := decodeAppendResult(body)
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if result > appendGap {
			t.Fatalf("accepted result code %d", result)
		}
		if again := appendAppendResult(nil, result, lastSeq); string(again) != string(body) {
			t.Fatal("accepted response does not re-encode to itself")
		}
	})
}

// FuzzDecodeEpochResponse: the ownership-poll decoder never panics, never
// allocates past a constant factor of the frame, and fails typed.
func FuzzDecodeEpochResponse(f *testing.F) {
	s, _, _, body := seedServer(ServerConfig{Shards: 2, Advertise: "10.0.0.1:7000"})
	s.AddMembers("10.0.0.2:7000")
	f.Add(body(s.handleEpoch(s.own.Load(), nil, &serverConn{})))
	f.Fuzz(func(t *testing.T, body []byte) {
		var owned []ShardInfo
		var members []string
		var err error
		if got := allocatedBy(func() { _, owned, members, err = decodeEpoch(body) }); got > 16*uint64(len(body))+1<<14 {
			t.Fatalf("allocated %d bytes decoding a %d-byte frame", got, len(body))
		}
		if err != nil {
			if !errors.Is(err, ErrMalformedFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if 12*len(owned)+4*len(members) > len(body) {
			t.Fatalf("accepted %d shards and %d members from %d bytes", len(owned), len(members), len(body))
		}
	})
}
