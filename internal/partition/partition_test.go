package partition

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
)

func buildGraph(t testing.TB) *graph.Graph {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	return graphbuild.Build(logs, graphbuild.DefaultConfig()).Graph
}

// Every node must be owned by exactly one shard, with a consistent
// (Owner, Local) -> Nodes mapping and the exact adjacency, feature and
// content rows of the source graph.
func testCoversGraph(t *testing.T, g *graph.Graph, p *Partition) {
	t.Helper()
	seen := 0
	for s := range p.Shards {
		sh := &p.Shards[s]
		if len(sh.Offsets) != len(sh.Nodes)+1 {
			t.Fatalf("shard %d: %d offsets for %d nodes", s, len(sh.Offsets), len(sh.Nodes))
		}
		for li, id := range sh.Nodes {
			seen++
			if p.Owner(id) != s {
				t.Fatalf("node %d stored on shard %d but routed to %d", id, s, p.Owner(id))
			}
			if int(p.Local(id)) != li {
				t.Fatalf("node %d: local %d, stored at %d", id, p.Local(id), li)
			}
			want := g.Neighbors(id)
			got := sh.Edges[sh.Offsets[li]:sh.Offsets[li+1]]
			if len(got) != len(want) {
				t.Fatalf("node %d: %d edges on shard, %d in graph", id, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("node %d edge %d: %+v != %+v", id, i, got[i], want[i])
				}
			}
			if len(sh.Features[li]) != len(g.Features(id)) {
				t.Fatalf("node %d: feature row mismatch", id)
			}
			if len(sh.Content[li]) != len(g.Content(id)) {
				t.Fatalf("node %d: content row mismatch", id)
			}
		}
	}
	if seen != g.NumNodes() {
		t.Fatalf("shards cover %d nodes, graph has %d", seen, g.NumNodes())
	}
}

func TestHashSplitCoversGraph(t *testing.T) {
	g := buildGraph(t)
	for _, shards := range []int{1, 2, 4, 7} {
		testCoversGraph(t, g, SplitOpts(g, shards, Hash, Options{}))
	}
}

func TestDegreeBalancedSplitCoversGraph(t *testing.T) {
	g := buildGraph(t)
	for _, shards := range []int{1, 3, 4} {
		testCoversGraph(t, g, SplitOpts(g, shards, DegreeBalanced, Options{}))
	}
}

// Hash routing must be the documented arithmetic, with no table.
func TestHashRoutingIsArithmetic(t *testing.T) {
	g := buildGraph(t)
	p := SplitOpts(g, 4, Hash, Options{})
	if p.owner != nil || p.local != nil {
		t.Fatal("hash partition built a routing table")
	}
	for id := 0; id < g.NumNodes(); id++ {
		nid := graph.NodeID(id)
		if p.Owner(nid) != id%4 || int(p.Local(nid)) != id/4 {
			t.Fatalf("node %d routed to (%d,%d), want (%d,%d)",
				id, p.Owner(nid), p.Local(nid), id%4, id/4)
		}
	}
}

// The degree-balanced strategy must spread edges close to evenly even
// when hash assignment would not (skewed degree distributions).
func TestDegreeBalancedBalancesEdges(t *testing.T) {
	// A graph where all heavy nodes share the same id residue mod 4, so
	// hash partitioning piles every edge onto one shard.
	b := graph.NewBuilder()
	const n = 64
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = b.AddNode(graph.Item, nil, nil)
	}
	for i := 0; i < n; i += 4 { // heavy nodes: 0, 4, 8, ... all ≡ 0 (mod 4)
		for j := i + 4; j < n; j += 4 {
			b.AddUndirected(ids[i], ids[j], graph.Click, 1)
		}
	}
	g := b.Build()
	p := SplitOpts(g, 4, DegreeBalanced, Options{})
	total := g.NumEdges()
	for s := range p.Shards {
		frac := float64(p.Shards[s].NumEdges()) / float64(total)
		if frac < 0.15 || frac > 0.35 {
			t.Fatalf("shard %d holds %.2f of edges, want ~0.25", s, frac)
		}
	}
	// Sanity: hash really is pathological on this graph.
	hp := SplitOpts(g, 4, Hash, Options{})
	if hp.Shards[0].NumEdges() != total {
		t.Fatalf("expected hash to pile all %d edges on shard 0, got %d", total, hp.Shards[0].NumEdges())
	}
}

func TestSplitPanicsOnBadShardCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SplitOpts(buildGraph(t), 0, Hash, Options{})
}

func TestParseStrategy(t *testing.T) {
	if s, err := ParseStrategy("hash"); err != nil || s != Hash {
		t.Fatalf("hash: %v %v", s, err)
	}
	if s, err := ParseStrategy("degree-balanced"); err != nil || s != DegreeBalanced {
		t.Fatalf("degree-balanced: %v %v", s, err)
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Fatal("bad strategy accepted")
	}
}

// More shards than nodes must yield empty-but-valid shards.
func TestMoreShardsThanNodes(t *testing.T) {
	b := graph.NewBuilder()
	a := b.AddNode(graph.User, nil, nil)
	c := b.AddNode(graph.Item, nil, nil)
	b.AddUndirected(a, c, graph.Click, 1)
	g := b.Build()
	for _, strat := range []Strategy{Hash, DegreeBalanced} {
		p := SplitOpts(g, 8, strat, Options{})
		testCoversGraph(t, g, p)
		for s := range p.Shards {
			if got := len(p.Shards[s].Offsets); got != p.Shards[s].NumNodes()+1 {
				t.Fatalf("%v shard %d: offsets len %d", strat, s, got)
			}
		}
	}
}

// The routing table must survive serialization bit-for-bit: a client
// reconstructing it from the wire must route every node to the same
// (owner, local) pair as the server that built the partition.
func TestRoutingSerializationRoundTrip(t *testing.T) {
	g := buildGraph(t)
	for _, strat := range []Strategy{Hash, DegreeBalanced} {
		for _, shards := range []int{1, 3, 4} {
			p := SplitOpts(g, shards, strat, Options{})
			blob, err := p.RoutingTable().MarshalBinary()
			if err != nil {
				t.Fatalf("%s/%d: marshal: %v", strat, shards, err)
			}
			r, err := UnmarshalRouting(blob)
			if err != nil {
				t.Fatalf("%s/%d: unmarshal: %v", strat, shards, err)
			}
			if r.NumShards() != shards || r.Strategy() != strat || r.NumNodes() != g.NumNodes() {
				t.Fatalf("%s/%d: shape mismatch %d/%s/%d", strat, shards, r.NumShards(), r.Strategy(), r.NumNodes())
			}
			for id := 0; id < g.NumNodes(); id++ {
				nid := graph.NodeID(id)
				if r.Owner(nid) != p.Owner(nid) || r.Local(nid) != p.Local(nid) {
					t.Fatalf("%s/%d: node %d routes to (%d,%d), want (%d,%d)",
						strat, shards, id, r.Owner(nid), r.Local(nid), p.Owner(nid), p.Local(nid))
				}
			}
		}
	}
	// Corrupt header must be rejected, not crash.
	if _, err := UnmarshalRouting([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated routing table accepted")
	}
}

// The ownership epoch must round-trip through the blob — both the unset
// default (a freshly split partition) and a stamped value (a cluster
// that has moved shards) — under both strategies.
func TestRoutingEpochRoundTrip(t *testing.T) {
	g := buildGraph(t)
	for _, strat := range []Strategy{Hash, DegreeBalanced} {
		for _, epoch := range []uint64{0, 42, 1 << 40} {
			p := SplitOpts(g, 3, strat, Options{})
			rt := p.RoutingTable()
			if rt.Epoch() != 0 {
				t.Fatalf("%s: fresh partition has epoch %d, want 0", strat, rt.Epoch())
			}
			rt.SetEpoch(epoch)
			blob, err := rt.MarshalBinary()
			if err != nil {
				t.Fatalf("%s/epoch=%d: marshal: %v", strat, epoch, err)
			}
			r, err := UnmarshalRouting(blob)
			if err != nil {
				t.Fatalf("%s/epoch=%d: unmarshal: %v", strat, epoch, err)
			}
			if r.Epoch() != epoch {
				t.Fatalf("%s: epoch %d round-tripped to %d", strat, epoch, r.Epoch())
			}
			// The assignment is untouched by stamping.
			for id := 0; id < g.NumNodes(); id += 7 {
				nid := graph.NodeID(id)
				if r.Owner(nid) != p.Owner(nid) || r.Local(nid) != p.Local(nid) {
					t.Fatalf("%s: node %d routing changed after epoch stamp", strat, id)
				}
			}
		}
	}
}

// Version skew: a version-1 blob (pre-epoch format, shorter fixed
// header) must fail with the typed ErrRoutingVersion — naming both
// versions — rather than misparse its table flag as epoch bytes. Future
// versions, and v3 blobs with their placement section, are rejected the
// same way.
func TestRoutingVersionSkew(t *testing.T) {
	g := buildGraph(t)
	blob, err := SplitOpts(g, 4, Hash, Options{}).RoutingTable().MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, skew := range []uint32{1, 2, 3, 999} {
		old := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(old[4:8], skew) // forge the version field
		_, err := UnmarshalRouting(old)
		if err == nil {
			t.Fatalf("version-%d blob accepted", skew)
		}
		if !errors.Is(err, ErrRoutingVersion) {
			t.Fatalf("version-%d blob: error %v is not ErrRoutingVersion", skew, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d", skew)) {
			t.Fatalf("version-%d blob: error %q does not name the blob version", skew, err)
		}
	}
	// A genuine version-1 blob is shorter than the v2 header (no epoch
	// field at all): hand-build one and confirm the same typed rejection.
	v1 := make([]byte, 0, 24)
	put := func(v uint32) { v1 = binary.LittleEndian.AppendUint32(v1, v) }
	put(routingMagic)
	put(1)                    // version 1
	put(uint32(Hash))         // strategy
	put(4)                    // shards
	put(uint32(g.NumNodes())) // numNodes
	put(0)                    // table flag (v1 layout: right after numNodes)
	if _, err := UnmarshalRouting(v1); !errors.Is(err, ErrRoutingVersion) {
		t.Fatalf("v1 blob: error %v is not ErrRoutingVersion", err)
	}
}
