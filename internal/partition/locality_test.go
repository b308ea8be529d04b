package partition

import (
	"bytes"
	"testing"

	"zoomer/internal/graph"
)

// The locality layout must be a pure renumbering: same ownership, same
// per-node rows, just a different row order inside each shard.
func TestLocalitySplitCoversGraph(t *testing.T) {
	g := buildGraph(t)
	for _, strat := range []Strategy{Hash, DegreeBalanced} {
		p := SplitOpts(g, 4, strat, Options{Locality: true})
		testCoversGraph(t, g, p)
	}
}

// Ownership must not move under locality — only local indices may.
func TestLocalityPreservesOwnership(t *testing.T) {
	g := buildGraph(t)
	for _, strat := range []Strategy{Hash, DegreeBalanced} {
		plain := SplitOpts(g, 4, strat, Options{})
		loc := SplitOpts(g, 4, strat, Options{Locality: true})
		for id := 0; id < g.NumNodes(); id++ {
			nid := graph.NodeID(id)
			if plain.Owner(nid) != loc.Owner(nid) {
				t.Fatalf("%s: node %d owner moved %d -> %d under locality",
					strat, id, plain.Owner(nid), loc.Owner(nid))
			}
		}
	}
}

// The BFS order is a pure function of the graph: two splits of the same
// graph — e.g. on two different shard servers — must produce the same
// local numbering byte for byte, since local indices travel in routing
// blobs and batch RPCs rely on servers and clients agreeing.
func TestLocalityDeterministic(t *testing.T) {
	g := buildGraph(t)
	a := SplitOpts(g, 4, Hash, Options{Locality: true})
	b := SplitOpts(g, 4, Hash, Options{Locality: true})
	for s := range a.Shards {
		an, bn := a.Shards[s].Nodes, b.Shards[s].Nodes
		if len(an) != len(bn) {
			t.Fatalf("shard %d: %d vs %d nodes", s, len(an), len(bn))
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("shard %d row %d: %d vs %d", s, i, an[i], bn[i])
			}
		}
	}
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("routing blobs of two identical locality splits differ")
	}
}

// A Hash split with locality materializes its tables, and the existing
// format-version-3 wire format carries them unchanged: a deserialized
// table must route every node exactly like the original.
func TestLocalityHashRoutingRoundTrip(t *testing.T) {
	g := buildGraph(t)
	p := SplitOpts(g, 4, Hash, Options{Locality: true})
	if p.owner == nil || p.local == nil {
		t.Fatal("locality split did not materialize routing tables")
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r, err := UnmarshalRouting(blob)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < g.NumNodes(); id++ {
		nid := graph.NodeID(id)
		if r.Owner(nid) != p.Owner(nid) || r.Local(nid) != p.Local(nid) {
			t.Fatalf("node %d: decoded (%d,%d), want (%d,%d)",
				id, r.Owner(nid), r.Local(nid), p.Owner(nid), p.Local(nid))
		}
	}
}

// localEdgeGap is the mean |local(u)-local(v)| over same-shard edges —
// the locality figure of merit: smaller means a sampled frontier's rows
// sit closer together in the shard's arrays.
func localEdgeGap(g *graph.Graph, p *Partition) float64 {
	var sum float64
	var count int
	for id := 0; id < g.NumNodes(); id++ {
		nid := graph.NodeID(id)
		s := p.Owner(nid)
		for _, e := range g.Neighbors(nid) {
			if p.Owner(e.To) != s {
				continue
			}
			d := int(p.Local(nid)) - int(p.Local(e.To))
			if d < 0 {
				d = -d
			}
			sum += float64(d)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// The point of the pass: BFS numbering must not worsen — and on this
// clustered graph should shrink — the mean same-shard edge gap relative
// to ascending-id numbering.
func TestLocalityShrinksEdgeGap(t *testing.T) {
	g := buildGraph(t)
	for _, strat := range []Strategy{Hash, DegreeBalanced} {
		plain := SplitOpts(g, 4, strat, Options{})
		loc := SplitOpts(g, 4, strat, Options{Locality: true})
		gp, gl := localEdgeGap(g, plain), localEdgeGap(g, loc)
		t.Logf("%s: mean same-shard edge gap %.1f (id order) -> %.1f (BFS)", strat, gp, gl)
		if gl > gp {
			t.Fatalf("%s: BFS order worsened the mean edge gap: %.1f -> %.1f", strat, gp, gl)
		}
	}
}

// Each shard's first row must be its highest-degree member (the first
// BFS seed), pinning the seed policy the doc comment promises.
func TestLocalitySeedsByDegree(t *testing.T) {
	g := buildGraph(t)
	p := SplitOpts(g, 4, Hash, Options{Locality: true})
	for s := range p.Shards {
		sh := &p.Shards[s]
		if len(sh.Nodes) == 0 {
			continue
		}
		first := sh.Nodes[0]
		for _, id := range sh.Nodes {
			if g.Degree(id) > g.Degree(first) {
				t.Fatalf("shard %d: row 0 is node %d (degree %d), but member %d has degree %d",
					s, first, g.Degree(first), id, g.Degree(id))
			}
		}
	}
}
