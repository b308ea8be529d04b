package rpc

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/partition"
)

// The request-lifecycle policy as a table: every kind of op against every
// kind of outcome, on a scripted server. Each cell runs the op
// failThreshold times and pins how many request frames the server saw per
// call (the attempts), the error class, and whether the circuit moved —
// only a transport failure may charge it, and only an idempotent op may
// be retried.
func TestRequestLifecyclePolicy(t *testing.T) {
	const threshold = 3
	var blk graph.NodeBlock
	blk.Resize(1, graph.ReadAll)
	ops := []struct {
		name  string
		tries int64
		visit func(deadline time.Time) *visit
	}{
		{"sample", 2, func(d time.Time) *visit {
			return &visit{op: OpSample, deadline: d, id: 1, k: 4, out: make([]graph.NodeID, 4)}
		}},
		{"batch", 2, func(d time.Time) *visit {
			return &visit{op: OpBatch, deadline: d, gids: []graph.NodeID{1}, idx: []int32{0}, base: 9, k: 4,
				out: make([]graph.NodeID, 4), ns: make([]int32, 1)}
		}},
		{"read-nodes", 2, func(d time.Time) *visit {
			return &visit{op: OpReadNodes, deadline: d, gids: []graph.NodeID{1}, fields: graph.ReadAll, blk: &blk}
		}},
		{"graph-append", 1, func(d time.Time) *visit {
			return &visit{op: opAppend, deadline: d, seq: 1, edges: []ingest.Edge{{Src: 1, Dst: 2, Weight: 1}}}
		}},
		{"routing-epoch", 2, func(d time.Time) *visit {
			return &visit{op: opEpoch, deadline: d, dec: func(body []byte) error {
				_, _, _, err := decodeEpoch(body)
				return err
			}}
		}},
	}
	moved := appendMoved([]byte{statusMoved}, 7, 0) // epoch 7, shard 0
	const wholeBudget = -1
	outcomes := []struct {
		name     string
		script   script
		deadline time.Duration // non-zero: the op runs against a full window with this budget
		attempts int64         // request frames per call; wholeBudget: as many as the op may make
		check    func(error) bool
		charged  bool
	}{
		{name: "connection dropped", script: script{drop: true}, attempts: wholeBudget, charged: true,
			check: func(err error) bool { return errors.Is(err, ErrShardUnavailable) }},
		{name: "error answer", script: script{reply: append([]byte{statusErr}, "boom"...)}, attempts: 1,
			check: func(err error) bool {
				var re *remoteError
				return errors.As(err, &re) && !errors.Is(err, ErrShardUnavailable)
			}},
		{name: "redirect", script: script{reply: moved}, attempts: 1,
			check: func(err error) bool { return errors.Is(err, engine.ErrWrongEpoch) }},
		{name: "truncated body", script: script{reply: []byte{statusOK, 1}}, attempts: 1,
			check: func(err error) bool {
				return errors.Is(err, ErrMalformedFrame) && !errors.Is(err, ErrShardUnavailable)
			}},
		{name: "window full past the deadline", deadline: 30 * time.Millisecond, attempts: 0,
			check: func(err error) bool { return errors.Is(err, engine.ErrDeadlineExceeded) }},
	}
	for _, op := range ops {
		for _, oc := range outcomes {
			t.Run(op.name+"/"+oc.name, func(t *testing.T) {
				srv := startScripted(t, "127.0.0.1:0", oc.script)
				defer srv.kill()
				cl := newClient(srv.ln.Addr().String(),
					ClientConfig{conns: 1, window: 1, Timeout: 5 * time.Second, failThreshold: threshold})
				defer cl.Close()
				if oc.deadline > 0 {
					// Fill the one-slot window with a request the server never
					// answers; closing the client ends it.
					holder := make(chan struct{})
					go func() {
						defer close(holder)
						cl.do(op.visit(time.Time{}))
					}()
					defer func() {
						cl.Close()
						<-holder
					}()
					for srv.frames.Load() == 0 {
						time.Sleep(time.Millisecond)
					}
				}
				want := oc.attempts
				if want == wholeBudget {
					want = op.tries
				}
				for i := 0; i < threshold; i++ {
					var deadline time.Time
					if oc.deadline > 0 {
						deadline = time.Now().Add(oc.deadline)
					}
					before := srv.frames.Load()
					_, err := cl.do(op.visit(deadline))
					if !oc.check(err) {
						t.Fatalf("call %d: wrong error class: %v", i, err)
					}
					if got := srv.frames.Load() - before; got != want {
						t.Fatalf("call %d: the server saw %d attempts, want %d", i, got, want)
					}
				}
				if cl.Healthy() == oc.charged {
					t.Fatalf("after %d calls Healthy() = %v; only a transport failure charges the circuit", threshold, !oc.charged)
				}
			})
		}
	}
}

// The lifecycle's one decode step keeps the decoder's own error identity:
// a server whose routing blob is of another format version fails the dial
// as a malformed response and as the version skew it is — the sentinel
// docs/OPERATIONS.md tells an operator to match.
func TestDecodeErrorKeepsIdentity(t *testing.T) {
	blob, err := partition.SplitOpts(buildGraph(t), 2, partition.Hash, partition.Options{}).RoutingTable().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob[4:], 3) // the format version field
	info := []byte{statusOK}
	for _, v := range []uint32{100, 8, 2, uint32(partition.Hash), 0} { // nodes, content dim, shards, strategy, no owned shards
		info = appendU32(info, v)
	}
	srv := startScripted(t, "127.0.0.1:0", script{byOp: map[Op][]byte{
		opInfo:    info,
		opRouting: append([]byte{statusOK}, blob...),
	}})
	defer srv.kill()
	_, err = DialClusterWith(ClientConfig{Timeout: 5 * time.Second}, srv.ln.Addr().String())
	if !errors.Is(err, ErrMalformedFrame) || !errors.Is(err, partition.ErrRoutingVersion) {
		t.Fatalf("dial against a version-3 routing blob: %v, want ErrMalformedFrame and partition.ErrRoutingVersion", err)
	}
}

// A body that does not decode condemns its connection, not its siblings:
// the call that decoded it fails typed and is not retried, while a request
// in flight on the same connection sees a transport failure — it is
// retried on a fresh connection and served.
func TestMalformedBodySparesSiblings(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var conns, frames atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			first := conns.Add(1) == 1
			go func() {
				defer c.Close()
				var pre [prefaceLen]byte
				if _, err := io.ReadFull(c, pre[:]); err != nil {
					return
				}
				c.Write(appendPreface(pre[:0], ProtocolVersion))
				var fs frameScratch
				var held uint64 // the first connection's first request id
				for n := 0; ; n++ {
					body, err := fs.readFrame(c)
					if err != nil || len(body) < 9 {
						return
					}
					frames.Add(1)
					id := binary.LittleEndian.Uint64(body[:8])
					switch {
					case !first: // an empty draw list after the 32-byte RNG state
						fs.writeFrame(c, append(fs.begin(statusOK), make([]byte, 36)...), id)
					case n == 0:
						held = id
					case n == 1: // both in flight: truncate the first, never answer the second
						fs.writeFrame(c, append(fs.begin(statusOK), 1), held)
					}
				}
			}()
		}
	}()
	cl := newClient(ln.Addr().String(), ClientConfig{conns: 1, window: 2, Timeout: 5 * time.Second})
	defer cl.Close()
	errs := make(chan error, 2)
	for i := int64(0); i < 2; i++ {
		go func() {
			_, err := cl.do(&visit{op: OpSample, id: 1, k: 4, out: make([]graph.NodeID, 4)})
			errs <- err
		}()
		for frames.Load() <= i { // one dial: the second call shares the first's connection
			time.Sleep(time.Millisecond)
		}
	}
	a, b := <-errs, <-errs
	if a == nil {
		a, b = b, a
	}
	if !errors.Is(a, ErrMalformedFrame) || b != nil {
		t.Fatalf("got %v and %v, want one malformed-frame failure and one served sibling", a, b)
	}
	if c, f := conns.Load(), frames.Load(); c != 2 || f != 3 {
		t.Fatalf("server saw %d connections and %d frames, want 2 and 3 (only the sibling is retried)", c, f)
	}
}

// A call whose deadline is already spent is refused before circuit
// admission: it must not be taken for the probe of an open circuit and
// close it without having touched the wire.
func TestSpentDeadlineDoesNotCloseCircuit(t *testing.T) {
	srv := startScripted(t, "127.0.0.1:0", script{drop: true})
	defer srv.kill()
	cl := newClient(srv.ln.Addr().String(), ClientConfig{conns: 1, Timeout: time.Second, failThreshold: 3})
	defer cl.Close()
	sample := func(deadline time.Time) error {
		_, err := cl.do(&visit{op: OpSample, deadline: deadline, id: 1, k: 4, out: make([]graph.NodeID, 4)})
		return err
	}
	for i := 0; i < 3; i++ {
		if err := sample(time.Time{}); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("call %d: %v, want ErrShardUnavailable", i, err)
		}
	}
	if cl.Healthy() {
		t.Fatal("circuit did not open")
	}
	before := srv.frames.Load()
	if err := sample(time.Now().Add(-time.Millisecond)); !errors.Is(err, engine.ErrDeadlineExceeded) {
		t.Fatalf("spent deadline: %v, want engine.ErrDeadlineExceeded", err)
	}
	if cl.Healthy() || srv.frames.Load() != before {
		t.Fatal("a call that never reached the wire closed the circuit")
	}
}
