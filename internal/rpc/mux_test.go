package rpc

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

// script is what a scripted server does with every request frame: swallow
// it without answering (the zero value), drop the connection, or answer
// with a fixed [status | payload] body — byOp's for the request's op when
// it has one, else reply.
type script struct {
	drop  bool
	reply []byte
	byOp  map[Op][]byte
}

// blackholeServer speaks the preface and then treats every request frame
// as its script says; the zero script swallows them all — the
// deterministic way to hold K requests in flight. Kill severs the
// listener and every accepted connection.
type blackholeServer struct {
	ln     net.Listener
	mu     sync.Mutex
	conns  []net.Conn
	frames atomic.Int64
}

func startBlackhole(t *testing.T, addr string) *blackholeServer {
	return startScripted(t, addr, script{})
}

func startScripted(t *testing.T, addr string, sc script) *blackholeServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	b := &blackholeServer{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b.mu.Lock()
			b.conns = append(b.conns, c)
			b.mu.Unlock()
			go func() {
				var pre [prefaceLen]byte
				if _, err := io.ReadFull(c, pre[:]); err != nil {
					return
				}
				if _, err := parsePreface(pre[:]); err != nil {
					return
				}
				c.Write(appendPreface(pre[:0], ProtocolVersion))
				var fs frameScratch
				for {
					body, err := fs.readFrame(c)
					if err != nil || len(body) < 9 {
						return
					}
					b.frames.Add(1)
					reply := sc.reply
					if r, ok := sc.byOp[Op(body[8])]; ok {
						reply = r
					}
					switch {
					case sc.drop:
						c.Close()
						return
					case reply != nil:
						out := append(fs.begin(reply[0]), reply[1:]...)
						fs.writeFrame(c, out, binary.LittleEndian.Uint64(body[:8]))
					}
				}
			}()
		}
	}()
	return b
}

func (b *blackholeServer) kill() {
	b.ln.Close()
	b.mu.Lock()
	for _, c := range b.conns {
		c.Close()
	}
	b.conns = nil
	b.mu.Unlock()
}

// Killing a server with K multiplexed requests in flight must fail all K
// promptly with the typed error — no hang, and no request ever receives
// another request's bytes. A real server restarted on the same address
// must then be served again, bit-identical to a local engine.
func TestMuxInFlightFailure(t *testing.T) {
	g := buildGraph(t)
	bh := startBlackhole(t, "127.0.0.1:0")
	addr := bh.ln.Addr().String()

	cl := newClient(addr, ClientConfig{Timeout: 3 * time.Second})
	defer cl.Close()

	const K = 8
	errs := make(chan error, K)
	for w := 0; w < K; w++ {
		go func(seed uint64) {
			out := make([]graph.NodeID, 4)
			r := rng.New(seed)
			_, _, err := cl.sample(graph.NodeID(seed), 4, r.State(), out, time.Time{})
			errs <- err
		}(uint64(w))
	}
	// Wait until every request frame is on the server, i.e. in flight.
	deadline := time.Now().Add(2 * time.Second)
	for bh.frames.Load() < K {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests reached the server", bh.frames.Load(), K)
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	bh.kill()
	for i := 0; i < K; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrShardUnavailable) {
				t.Fatalf("in-flight request failed untyped: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request still hanging %v after the kill", time.Since(start))
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("draining %d in-flight failures took %v", K, elapsed)
	}

	// A real server on the same address serves the same client again —
	// the probe call reconnects and closes the failure circuit — and its
	// draws are bit-identical to a local store's.
	srv := NewServer(g, ServerConfig{Shards: 1, Strategy: partition.Hash})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten: %v", err)
	}
	srv.Start(ln)
	defer srv.Close()

	local := engine.New(g, engine.Config{Shards: 1})
	var id graph.NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if g.Degree(graph.NodeID(i)) > 0 {
			id = graph.NodeID(i)
			break
		}
	}
	rr := rng.New(42)
	got := make([]graph.NodeID, 5)
	var n int
	var st [4]uint64
	deadline = time.Now().Add(5 * time.Second)
	for {
		var err error
		n, st, err = cl.sample(id, 5, rr.State(), got, time.Time{})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("post-restart failure untyped: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("server restarted but client never reconnected: %v", err)
		}
	}
	rl := rng.New(42)
	want := make([]graph.NodeID, 5)
	nw := local.SampleNeighborsInto(id, want, rl)
	if n != nw {
		t.Fatalf("post-restart sample wrote %d draws, local %d", n, nw)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("post-restart draw %d: remote %d, local %d", i, got[i], want[i])
		}
	}
	if st != rl.State() {
		t.Fatal("post-restart RNG state diverged from local")
	}
}

// A protocol-1 client (no preface; first bytes are a bare frame) must be
// answered loudly — an old-style error frame naming the mismatch — and
// dropped, never silently misframed.
func TestVersionMismatchOldClientLoudError(t *testing.T) {
	g := buildGraph(t)
	_, addr := startServer(t, g, ServerConfig{Shards: 1, Strategy: partition.Hash})
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	// A v1 opInfo request: u32 length, then [op]. No preface.
	req := []byte{1, 0, 0, 0, byte(opInfo)}
	if _, err := c.Write(req); err != nil {
		t.Fatalf("write v1 frame: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(3 * time.Second))
	var fs frameScratch
	body, err := fs.readFrame(c)
	if err != nil {
		t.Fatalf("old client got no error frame, just %v", err)
	}
	if len(body) == 0 || body[0] != statusErr {
		t.Fatalf("old client got a non-error reply (% x)", body)
	}
	msg := string(body[1:])
	if !strings.Contains(msg, "protocol version mismatch") {
		t.Fatalf("error does not name the mismatch: %q", msg)
	}
	// The connection is then closed: the next read sees EOF, not a hang.
	if _, err := fs.readFrame(c); err == nil {
		t.Fatal("server kept serving a protocol-1 connection")
	}
}

// A v2 client hitting a peer that does not speak the preface (an old
// server, or something else entirely) must fail the handshake loudly
// instead of hanging or misframing.
func TestVersionMismatchOldServerLoudError(t *testing.T) {
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
			// An old server reads the preface as a frame header, deems it
			// oversized and drops the connection.
			go func() {
				buf := make([]byte, prefaceLen)
				io.ReadFull(c, buf)
				c.Close()
			}()
		}
	}()
	cl := newClient(ln.Addr().String(), ClientConfig{Timeout: 2 * time.Second})
	defer cl.Close()
	if _, err := cl.Info(); err == nil {
		t.Fatal("handshake with a preface-less server succeeded")
	} else if !errors.Is(err, ErrShardUnavailable) || !strings.Contains(err.Error(), "preface") {
		t.Fatalf("handshake failure is not loud/typed: %v", err)
	}
}

// A server speaking a different protocol version must be rejected by
// name, not negotiated with.
func TestVersionMismatchFutureServer(t *testing.T) {
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
					c.Write(appendPreface(buf[:0], 99))
				}
				// Leave the connection open: the client must still bail.
			}()
		}
	}()
	cl := newClient(ln.Addr().String(), ClientConfig{Timeout: 2 * time.Second})
	defer cl.Close()
	if _, err := cl.Info(); err == nil {
		t.Fatal("client accepted protocol version 99")
	} else if !strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("future-version failure is not loud: %v", err)
	}
}

// Hammer one multiplexed connection (Conns: 1, tiny window) from many
// goroutines — slot contention, reader-lease handoff and pipelined
// dispatch all on one socket. Every caller's draws must be bit-identical
// to a local engine consuming the same stream (run under -race).
func TestMuxSharedConnectionHammer(t *testing.T) {
	g := buildGraph(t)
	srv := NewServer(g, ServerConfig{Shards: 2, Strategy: partition.Hash})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv.Start(ln)
	t.Cleanup(func() { srv.Close() })

	cl := newClient(ln.Addr().String(), ClientConfig{conns: 1, window: 4})
	t.Cleanup(func() { cl.Close() })
	info, err := cl.Info()
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	routing, err := cl.Routing()
	if err != nil {
		t.Fatalf("routing: %v", err)
	}
	groups := make([][]engine.ShardBackend, info.NumShards)
	for _, sh := range info.Owned {
		groups[sh.ID] = []engine.ShardBackend{newRemoteShard(cl, sh.ID, sh.Nodes)}
	}
	remote := engine.NewWithReplicaSets(routing, groups, info.ContentDim)
	local := engine.New(g, engine.Config{Shards: 1})

	const workers, iters, k = 16, 80, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rRemote, rLocal := rng.New(seed), rng.New(seed)
			got := make([]graph.NodeID, k)
			want := make([]graph.NodeID, k)
			bs := engine.NewBatchScratch()
			ids := make([]graph.NodeID, 8)
			gotOut := make([]graph.NodeID, len(ids)*k)
			gotNs := make([]int32, len(ids))
			wantOut := make([]graph.NodeID, len(ids)*k)
			wantNs := make([]int32, len(ids))
			for it := 0; it < iters; it++ {
				id := graph.NodeID((int(seed)*131 + it*17) % g.NumNodes())
				ng, err := remote.TrySampleNeighborsIntoBy(id, got, rRemote, time.Time{})
				if err != nil {
					t.Errorf("sample: %v", err)
					return
				}
				nw := local.SampleNeighborsInto(id, want, rLocal)
				if ng != nw {
					t.Errorf("id %d: remote %d draws, local %d", id, ng, nw)
					return
				}
				for i := 0; i < nw; i++ {
					if got[i] != want[i] {
						t.Errorf("id %d draw %d: remote %d, local %d (cross-request corruption?)", id, i, got[i], want[i])
						return
					}
				}
				for i := range ids {
					ids[i] = graph.NodeID((int(seed)*37 + it*13 + i*7) % g.NumNodes())
				}
				base := rng.New(seed + uint64(it))
				if _, err := remote.SampleNeighborsBatchInto(ids, k, gotOut, gotNs, base, bs); err != nil {
					t.Errorf("batch: %v", err)
					return
				}
				baseL := rng.New(seed + uint64(it))
				if _, err := local.SampleNeighborsBatchInto(ids, k, wantOut, wantNs, baseL, engine.NewBatchScratch()); err != nil {
					t.Errorf("local batch: %v", err)
					return
				}
				for i := range ids {
					if gotNs[i] != wantNs[i] {
						t.Errorf("batch entry %d: remote count %d, local %d", i, gotNs[i], wantNs[i])
						return
					}
					for j := 0; j < int(wantNs[i]); j++ {
						if gotOut[i*k+j] != wantOut[i*k+j] {
							t.Errorf("batch entry %d draw %d differs (cross-request corruption?)", i, j)
							return
						}
					}
				}
			}
		}(uint64(w + 100))
	}
	wg.Wait()
}
