package rpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

// ingestRecord builds a deterministic edge batch: record i links node
// (i mod n) to node ((i*7+1) mod n) with a weight that dominates the
// base graph, so a draw from the source almost surely lands on the new
// neighbor once the append is visible.
func ingestRecord(g *graph.Graph, i int) []ingest.Edge {
	n := graph.NodeID(g.NumNodes())
	src := graph.NodeID(i) % n
	dst := (src*7 + 1) % n
	if dst == src {
		dst = (dst + 1) % n
	}
	return []ingest.Edge{{Src: src, Dst: dst, Type: graph.Click, Weight: float32(100 + i)}}
}

// hasEdge reports whether the adjacency of src includes dst.
func hasEdge(adj []graph.Edge, dst graph.NodeID) bool {
	for _, e := range adj {
		if e.To == dst {
			return true
		}
	}
	return false
}

// An Engine routed over TCP must accept appends, route them to the
// owning shards by epoch, and serve reads that are bit-identical to a
// local engine fed the same records — the loopback-equivalence pin
// extended to the write path.
func TestRemoteAppendRoundTrip(t *testing.T) {
	g := buildGraph(t)
	const shards = 2
	_, cluster := startCluster(t, g, shards, partition.Hash, [][]int{{0, 1}})
	remote := cluster.Engine
	local := engine.New(g, engine.Config{Shards: shards})

	var batch []ingest.Edge
	for i := 0; i < 24; i++ {
		batch = append(batch, ingestRecord(g, i)...)
	}
	if n, err := remote.Append(batch); err != nil || n != len(batch) {
		t.Fatalf("remote append: %d/%d edges, err %v", n, len(batch), err)
	}
	if n, err := local.Append(batch); err != nil || n != len(batch) {
		t.Fatalf("local append: %d/%d edges, err %v", n, len(batch), err)
	}

	for _, e := range batch {
		if adj := remote.Neighbors(e.Src); !hasEdge(adj, e.Dst) {
			t.Fatalf("appended edge %d->%d missing from remote adjacency %v", e.Src, e.Dst, adj)
		}
	}

	// Draw equivalence over the touched nodes: remote delta-aware
	// sampling must match the local engine draw for draw.
	rl, rr := rng.New(99), rng.New(99)
	want := make([]graph.NodeID, 8)
	got := make([]graph.NodeID, 8)
	for _, e := range batch {
		nl := local.SampleNeighborsInto(e.Src, want, rl)
		nr := remote.SampleNeighborsInto(e.Src, got, rr)
		if nl != nr {
			t.Fatalf("node %d: draw count %d remote vs %d local", e.Src, nr, nl)
		}
		for i := 0; i < nl; i++ {
			if want[i] != got[i] {
				t.Fatalf("node %d draw %d: remote %d, local %d", e.Src, i, got[i], want[i])
			}
		}
	}

	// The ingest rows travel in the v4 epoch response and surface
	// through the engine facet.
	if err := cluster.refresh(); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	rows := remote.IngestStats()
	if len(rows) != shards {
		t.Fatalf("ingest stats: %d rows, want %d", len(rows), shards)
	}
	var deltaEdges uint64
	for _, st := range rows {
		// One Append call = one record per owner shard, so each shard's
		// sequence is exactly 1; the edges spread across both.
		if st.Seq != 1 {
			t.Fatalf("shard %d: seq %d, want 1", st.Shard, st.Seq)
		}
		deltaEdges += st.DeltaEdges
	}
	if int(deltaEdges) != len(batch) {
		t.Fatalf("total delta edges %d, want %d", deltaEdges, len(batch))
	}
}

// The wire op itself is idempotent: re-sending an applied sequence
// answers dup with the high-water mark, skipping ahead answers gap, and
// a cold client stub resynchronizes off those answers without ever
// double-applying.
func TestAppendIdempotencyAndResync(t *testing.T) {
	g := buildGraph(t)
	_, addr := startServer(t, g, ServerConfig{Shards: 1, Strategy: partition.Hash})
	cl := newClient(addr, ClientConfig{})
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.Info(); err != nil {
		t.Fatalf("handshake: %v", err)
	}

	edges := ingestRecord(g, 3)
	res, last, err := cl.appendOnce(0, 1, edges, false)
	if err != nil || res != appendApplied || last != 1 {
		t.Fatalf("first append: res %d last %d err %v", res, last, err)
	}
	// Same sequence again: a lost-ack retry must be a no-op.
	res, last, err = cl.appendOnce(0, 1, edges, false)
	if err != nil || res != appendDup || last != 1 {
		t.Fatalf("dup append: res %d last %d err %v", res, last, err)
	}
	// Skipping ahead must be refused with the mark the server is at.
	res, last, err = cl.appendOnce(0, 5, edges, false)
	if err != nil || res != appendGap || last != 1 {
		t.Fatalf("gap append: res %d last %d err %v", res, last, err)
	}

	// A fresh stub has no idea the shard is at 1: it probes with 1, reads
	// the dup answer, resynchronizes and lands the record at 2.
	rs := newRemoteShard(cl, 0, g.NumNodes(), 0)
	seq, err := rs.AppendEdges(ingestRecord(g, 4))
	if err != nil || seq != 2 {
		t.Fatalf("cold-cache append: seq %d err %v", seq, err)
	}
	// The warmed cache goes straight to 3.
	seq, err = rs.AppendEdges(ingestRecord(g, 5))
	if err != nil || seq != 3 {
		t.Fatalf("warm-cache append: seq %d err %v", seq, err)
	}

	// Validation failures are typed and permanent — no retry loop, no WAL
	// record, no sequence burned — and the engine.ErrBadAppend sentinel
	// survives the wire (the gateway's 400 mapping depends on it).
	if _, err := rs.AppendEdges([]ingest.Edge{{Src: 0, Dst: 1, Type: graph.Click, Weight: -1}}); !errors.Is(err, engine.ErrBadAppend) {
		t.Fatalf("negative-weight append: got %v, want errors.Is ErrBadAppend", err)
	}
	seq, err = rs.AppendEdges(ingestRecord(g, 6))
	if err != nil || seq != 4 {
		t.Fatalf("append after rejected record: seq %d err %v", seq, err)
	}
}

// A client dialing a server one protocol version behind must fail loudly
// naming BOTH versions, so a skewed rollout reads as "upgrade the
// server", not a mystery timeout. Extends the TestVersionMismatch*
// family.
var (
	thisVersion = fmt.Sprintf("v%d", ProtocolVersion)
	oldVersion  = fmt.Sprintf("v%d", ProtocolVersion-1)
)

func TestVersionSkewOldServerNamesBothVersions(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				buf := make([]byte, prefaceLen)
				if _, err := io.ReadFull(c, buf); err == nil {
					// An older server echoes its own preface before rejecting.
					c.Write(appendPreface(buf[:0], ProtocolVersion-1))
				}
			}()
		}
	}()

	cl := newClient(ln.Addr().String(), ClientConfig{Timeout: 2 * time.Second})
	defer cl.Close()
	_, err = cl.Info()
	if err == nil {
		t.Fatalf("client accepted a server one version behind")
	}
	msg := err.Error()
	if !strings.Contains(msg, "version mismatch") || !strings.Contains(msg, oldVersion) || !strings.Contains(msg, thisVersion) {
		t.Fatalf("skew error must name both versions, got: %v", err)
	}
}

// The reverse direction: an older client (simulated with a raw preface)
// hitting a current server gets an error frame naming both versions
// before the connection drops.
func TestVersionSkewOldClientNamesBothVersions(t *testing.T) {
	g := buildGraph(t)
	_, addr := startServer(t, g, ServerConfig{Shards: 1, Strategy: partition.Hash})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendPreface(nil, ProtocolVersion-1)); err != nil {
		t.Fatalf("write preface: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	var fs frameScratch
	body, err := fs.readFrame(conn)
	if err != nil {
		t.Fatalf("old client got no error frame, just %v", err)
	}
	if len(body) == 0 || body[0] != statusErr {
		t.Fatalf("old client got a non-error reply (% x)", body)
	}
	msg := string(body[1:])
	if !strings.Contains(msg, "version mismatch") || !strings.Contains(msg, oldVersion) || !strings.Contains(msg, thisVersion) {
		t.Fatalf("skew error must name both versions, got: %q", msg)
	}
}

// startDurableServer starts an advertising server whose owned shards
// journal to walDir with fsync on — the production write-path shape.
func startDurableServer(t testing.TB, g *graph.Graph, shards int, owned []int, walDir string) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	s := NewServer(g, ServerConfig{
		Shards: shards, Strategy: partition.Hash, Owned: owned,
		Advertise: addr, WALDir: walDir, Fsync: true,
	})
	s.Start(ln)
	return s, addr
}

// The crash-recovery acceptance pin: a server that vanishes mid-stream
// without any shutdown courtesy must, on restart over the same WAL
// directory, reconstruct the exact delta state — draws bit-identical to
// a local engine fed the same records. (True kill -9 equivalence of the
// log format itself is pinned by ingest's TestWALCrashRecoveryEquivalence;
// this layer proves the server replays what the log holds.)
func TestAppendRecoveryAfterRestart(t *testing.T) {
	g := buildGraph(t)
	walDir := t.TempDir()
	srv, addr := startDurableServer(t, g, 1, nil, walDir)

	cl := newClient(addr, ClientConfig{})
	rs := newRemoteShard(cl, 0, g.NumNodes(), 0)
	const records = 30
	var all []ingest.Edge
	for i := 0; i < records; i++ {
		edges := ingestRecord(g, i)
		all = append(all, edges...)
		if seq, err := rs.AppendEdges(edges); err != nil || seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d err %v", i, seq, err)
		}
	}
	cl.Close()

	// Crash: drop the server on the floor. No Close, no WAL courtesy —
	// the acknowledged records must already be durable.
	abandonServer(srv)

	srv2, addr2 := startDurableServer(t, g, 1, nil, walDir)
	t.Cleanup(func() { srv2.Close() })
	rows := srv2.IngestStats()
	if len(rows) != 1 || rows[0].Seq != records {
		t.Fatalf("after replay: stats %+v, want seq %d", rows, records)
	}

	local := engine.New(g, engine.Config{Shards: 1})
	if n, err := local.Append(all); err != nil || n != len(all) {
		t.Fatalf("local control append: %d err %v", n, err)
	}

	cluster, err := DialClusterWith(ClientConfig{}, addr2)
	if err != nil {
		t.Fatalf("dial restarted server: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	remote := cluster.Engine
	rl, rr := rng.New(7), rng.New(7)
	want := make([]graph.NodeID, 8)
	got := make([]graph.NodeID, 8)
	for _, e := range all {
		nl := local.SampleNeighborsInto(e.Src, want, rl)
		nr := remote.SampleNeighborsInto(e.Src, got, rr)
		if nl != nr {
			t.Fatalf("node %d: draw count %d recovered vs %d control", e.Src, nr, nl)
		}
		for i := 0; i < nl; i++ {
			if want[i] != got[i] {
				t.Fatalf("node %d draw %d: recovered %d, control %d", e.Src, i, got[i], want[i])
			}
		}
	}

	// The restarted server continues the sequence, not a fresh one: a
	// cold stub resyncs to records+1.
	cl2 := newClient(addr2, ClientConfig{})
	t.Cleanup(func() { cl2.Close() })
	rs2 := newRemoteShard(cl2, 0, g.NumNodes(), 0)
	if seq, err := rs2.AppendEdges(ingestRecord(g, records)); err != nil || seq != records+1 {
		t.Fatalf("post-restart append: seq %d err %v", seq, err)
	}
}

// The serving-tier discipline under a writer crash, extending the
// TestRollingUpgrade rules to the write path: with a 2-way replica
// group ingesting a live stream, killing one replica mid-stream must
// cost readers nothing — zero failed reads while the survivor keeps
// accepting writes and the victim restarts from its WAL with every
// record it ever acknowledged.
func TestServingSurvivesWriterCrash(t *testing.T) {
	g := buildGraph(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	srvA, addrA := startDurableServer(t, g, 1, []int{0}, dirA)
	srvB, addrB := startDurableServer(t, g, 1, []int{0}, dirB)
	t.Cleanup(func() { srvB.Close() })
	srvA.addMembers(addrB)
	srvB.addMembers(addrA)

	cluster, err := DialClusterWith(ClientConfig{}, addrA, addrB)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	remote := cluster.Engine

	// Continuous reader: every draw must succeed for the full run.
	var failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rng.New(1)
		out := make([]graph.NodeID, 8)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := graph.NodeID(i % g.NumNodes())
			if _, err := remote.TrySampleNeighborsIntoBy(id, out, r, time.Time{}); err != nil {
				failed.Add(1)
			}
		}
	}()

	const total, crashAt = 60, 20
	for i := 0; i < total; i++ {
		if i == crashAt {
			// Kill A mid-stream. Its WAL holds everything it acknowledged;
			// the log's kill -9 torn-tail behavior is pinned at the ingest
			// layer, so severing the server is the rpc-layer crash shape.
			srvA.Close()
		}
		edges := ingestRecord(g, i)
		if n, err := remote.Append(edges); err != nil || n != len(edges) {
			t.Fatalf("append %d through crash: %d err %v", i, n, err)
		}
	}

	// The survivor holds the full stream: every record either landed on B
	// directly or arrived as a fan-out copy from A before the crash.
	rowsB := srvB.IngestStats()
	if len(rowsB) != 1 || rowsB[0].Seq != total {
		t.Fatalf("survivor stats %+v, want seq %d", rowsB, total)
	}

	// Restart A over its WAL: it recovers exactly its durable prefix and
	// rejoins. It lags the survivor until re-fed (replica write lag — see
	// OPERATIONS.md); what it must never do is invent or lose records.
	srvA2, _ := startDurableServer(t, g, 1, []int{0}, dirA)
	t.Cleanup(func() { srvA2.Close() })
	rowsA := srvA2.IngestStats()
	if len(rowsA) != 1 {
		t.Fatalf("restarted stats %+v", rowsA)
	}
	if rowsA[0].Seq < crashAt || rowsA[0].Seq > total {
		t.Fatalf("restarted server recovered seq %d, want within [%d,%d]", rowsA[0].Seq, crashAt, total)
	}

	close(stop)
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d reads failed during writer crash and recovery", n)
	}
}

// A full WAL directory must fail appends typed without wedging the read
// path — the disk-full satellite at the rpc layer. /dev/full makes every
// write return ENOSPC on Linux.
func TestAppendWALWriteFailureKeepsServing(t *testing.T) {
	g := buildGraph(t)
	walDir := t.TempDir()
	srv, addr := startDurableServer(t, g, 1, nil, walDir)
	t.Cleanup(func() { srv.Close() })

	cl := newClient(addr, ClientConfig{})
	t.Cleanup(func() { cl.Close() })
	rs := newRemoteShard(cl, 0, g.NumNodes(), 0)
	if seq, err := rs.AppendEdges(ingestRecord(g, 0)); err != nil || seq != 1 {
		t.Fatalf("seed append: seq %d err %v", seq, err)
	}

	// Sever the WAL under the server: closing the journal makes every
	// write fail typed, the same caller-visible shape as a full or
	// yanked disk.
	failWAL(t, srv, 0)

	if _, err := rs.AppendEdges(ingestRecord(g, 1)); err == nil {
		t.Fatalf("append succeeded with a dead WAL")
	}

	// Reads keep flowing: the durability fault stays on the write path.
	cluster, err := DialClusterWith(ClientConfig{}, addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cluster.Close() })
	r := rng.New(5)
	out := make([]graph.NodeID, 8)
	for i := 0; i < 50; i++ {
		if _, err := cluster.Engine.TrySampleNeighborsIntoBy(graph.NodeID(i%g.NumNodes()), out, r, time.Time{}); err != nil {
			t.Fatalf("read %d failed after WAL fault: %v", i, err)
		}
	}
}

// failWAL force-closes the shard's journal so the next write fails
// typed — the test stand-in for ENOSPC without needing /dev/full.
func failWAL(t testing.TB, s *Server, shard int) {
	t.Helper()
	ing := s.ingestFor(shard)
	if ing == nil || ing.wal == nil {
		t.Fatalf("shard %d has no WAL to fail", shard)
	}
	if err := ing.wal.Close(); err != nil {
		t.Fatalf("close WAL: %v", err)
	}
}

// abandonServer severs the listener and every live connection WITHOUT
// closing the WALs or draining handlers — the closest in-process
// stand-in for kill -9 that still lets the test reuse the WAL directory
// (the log format's true SIGKILL behavior is pinned by the ingest
// package's chaos suite).
func abandonServer(s *Server) {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.ln = nil
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}
