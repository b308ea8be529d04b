package rpc

import (
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/tensor"
)

// recConn is the connection serve writes one response frame to.
type recConn struct {
	net.Conn
	buf []byte
}

func (c *recConn) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}
func (c *recConn) SetWriteDeadline(time.Time) error { return nil }
func (c *recConn) Close() error                     { return nil }

// transcriptGolden is every op's request and response bytes, as the
// protocol-6 encoders wrote them. A change that moves one byte of it
// changes the wire format and must bump ProtocolVersion instead.
const transcriptGolden = "testdata/op_transcript.golden"

// The op transcript pins the wire format: every served op, one redirect
// and the unknown-op bytes, each request composed by the client's encoder
// and answered by the server's serve path, must match the golden bytes.
// The server is a 6-node graph split in two partitions; it owns one, so
// every reply is deterministic.
func TestOpTranscript(t *testing.T) {
	b := graph.NewBuilder()
	n0 := b.AddNode(graph.User, []int32{1, 2}, tensor.Vec{0.5, -1})
	n1 := b.AddNode(graph.Item, []int32{3}, tensor.Vec{0.25, 2})
	n2 := b.AddNode(graph.Item, nil, nil)
	n3 := b.AddNode(graph.Query, []int32{4}, nil)
	n4 := b.AddNode(graph.Item, nil, tensor.Vec{}) // isolated
	n5 := b.AddNode(graph.User, nil, nil)
	b.AddUndirected(n0, n1, graph.Click, 1.5)
	b.AddUndirected(n0, n2, graph.Session, 0.5)
	b.AddUndirected(n2, n3, graph.Similarity, 2)
	b.AddUndirected(n5, n0, graph.Click, 1)
	s := NewServer(b.Build(), ServerConfig{Shards: 2, Owned: []int{0}, Advertise: "127.0.0.1:7001"})
	s.addMembers("127.0.0.1:7002")

	var blk graph.NodeBlock
	blk.Resize(3, graph.ReadAll)
	batchOut, batchNs := make([]graph.NodeID, 3*2), make([]int32, 3)
	steps := []struct {
		name string
		op   Op
		req  []byte
	}{
		{"info", opInfo, nil},
		{"routing", opRouting, nil},
		{"sample", OpSample, (&visit{op: OpSample, id: n0, k: 3, st: [4]uint64{1, 2, 3, 4}}).encode(nil)},
		{"sample redirect", OpSample, (&visit{op: OpSample, id: n1, k: 3, st: [4]uint64{5, 6, 7, 8}}).encode(nil)},
		{"batch", OpBatch, (&visit{op: OpBatch, gids: []graph.NodeID{n0, n2, n4}, idx: []int32{2, 0, 1}, base: 99, k: 2,
			out: batchOut, ns: batchNs}).encode(nil)},
		{"read-nodes", OpReadNodes, (&visit{op: OpReadNodes, gids: []graph.NodeID{n4, n0, n2}, fields: graph.ReadAll, blk: &blk}).encode(nil)},
		{"members", opMembers, appendMembersRequest(nil, "127.0.0.1:7003")},
		{"graph-append", opAppend, (&visit{op: opAppend, shard: 0, seq: 1, fanout: true,
			edges: []ingest.Edge{{Src: n0, Dst: n4, Type: graph.Session, Weight: 2}}}).encode(nil)},
		{"routing-epoch", opEpoch, nil},
		{"op 5", Op(5), []byte{1, 2, 3}},
		{"op 6", Op(6), nil},
		{"op 7", Op(7), nil},
		{"op 13", Op(13), nil},
		{"reassign", opReassign, appendReassignRequest(nil, 1, true)},
	}
	var got strings.Builder
	var wmu sync.Mutex
	for i, st := range steps {
		c := &recConn{}
		s.serve(c, &reqSlot{id: uint64(i + 1), buf: append([]byte{byte(st.op)}, st.req...)}, &serverConn{}, &wmu)
		fmt.Fprintf(&got, "%s\n  request %x\n  reply   %x\n", st.name, st.req, c.buf)
	}

	want, err := os.ReadFile(transcriptGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("frames differ from %s at line %d:\n got  %s\n want %s", transcriptGolden, i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("transcript is a prefix of %s", transcriptGolden)
	}

	// Every served op is counted once per request, the redirect included;
	// the unknown bytes are counted against nothing.
	counts := map[Op]int64{opInfo: 1, opRouting: 1, OpSample: 2, OpBatch: 1, OpReadNodes: 1,
		opMembers: 1, opAppend: 1, opEpoch: 1, opReassign: 1, Op(5): 0, Op(6): 0, Op(7): 0, Op(13): 0}
	for op, want := range counts {
		if got := s.OpCount(op); got != want {
			t.Errorf("OpCount(%v) = %d, want %d", op, got, want)
		}
	}
}
