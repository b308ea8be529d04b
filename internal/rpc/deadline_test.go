package rpc

import (
	"errors"
	"net"
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

func startShardServer(t *testing.T) (*Server, string) {
	t.Helper()
	g := buildGraph(t)
	srv := NewServer(g, ServerConfig{Shards: 1, Strategy: partition.Hash})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv.Start(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// An expired per-call deadline fails fast and typed at the stub: no
// wire traffic, no RNG consumption, and — crucially — no charge against
// the health circuit. A slow caller budget is not a dead server.
func TestRemoteSampleDeadlineExpiredIsTypedAndUncharged(t *testing.T) {
	_, addr := startShardServer(t)
	cl := newClient(addr, ClientConfig{Timeout: 2 * time.Second})
	defer cl.Close()
	rs := newRemoteShard(cl, 0, 0, 0)

	r := rng.New(21)
	before := r.State()
	out := make([]graph.NodeID, 4)
	for i := 0; i < 10; i++ { // well past the circuit's failure threshold
		_, err := rs.SampleIntoBy(1, out, r, time.Now().Add(-time.Millisecond))
		if !errors.Is(err, engine.ErrDeadlineExceeded) {
			t.Fatalf("expired deadline: got %v, want engine.ErrDeadlineExceeded", err)
		}
	}
	if r.State() != before {
		t.Fatal("expired calls consumed the caller's RNG")
	}
	if !cl.Healthy() {
		t.Fatal("expired deadlines tripped the health circuit")
	}
	// The stub still serves normally afterwards.
	if _, err := rs.SampleIntoBy(1, out, r, time.Time{}); err != nil {
		t.Fatalf("post-deadline sample: %v", err)
	}
}

// A generous deadline leaves draws bit-identical to the unbounded call:
// the budget only shrinks the wire timeout, never the sampling stream.
func TestRemoteSampleDeadlineBitIdentical(t *testing.T) {
	_, addr := startShardServer(t)
	cl := newClient(addr, ClientConfig{Timeout: 2 * time.Second})
	defer cl.Close()
	rs := newRemoteShard(cl, 0, 0, 0)

	ra, rb := rng.New(33), rng.New(33)
	a := make([]graph.NodeID, 5)
	b := make([]graph.NodeID, 5)
	for id := 0; id < 40; id += 3 {
		na, err := rs.SampleIntoBy(graph.NodeID(id), a, ra, time.Time{})
		if err != nil {
			t.Fatalf("unbounded: %v", err)
		}
		nb, err := rs.SampleIntoBy(graph.NodeID(id), b, rb, time.Now().Add(time.Minute))
		if err != nil {
			t.Fatalf("bounded: %v", err)
		}
		if na != nb {
			t.Fatalf("id %d: %d vs %d draws", id, na, nb)
		}
		for i := 0; i < na; i++ {
			if a[i] != b[i] {
				t.Fatalf("id %d draw %d: %d vs %d", id, i, a[i], b[i])
			}
		}
	}
}

// A deadline expiring while the request waits on a blackholed server
// surfaces typed — wrapped over the transport detail — without waiting
// for the full static client timeout.
func TestRemoteSampleDeadlineBoundsWireWait(t *testing.T) {
	bh := startBlackhole(t, "127.0.0.1:0")
	defer bh.kill()
	cl := newClient(bh.ln.Addr().String(), ClientConfig{Timeout: 30 * time.Second})
	defer cl.Close()
	rs := newRemoteShard(cl, 0, 0, 0)

	r := rng.New(5)
	out := make([]graph.NodeID, 4)
	start := time.Now()
	_, err := rs.SampleIntoBy(1, out, r, time.Now().Add(150*time.Millisecond))
	elapsed := time.Since(start)
	if !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("blackholed call: got %v, want engine.ErrDeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline-bounded call took %v — the static 30s timeout leaked through", elapsed)
	}
}
