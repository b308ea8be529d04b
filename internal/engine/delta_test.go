package engine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/rng"
)

// deltaWorld builds a 4-node single-shard world: ego with two weighted
// base edges, plus one isolated node.
func deltaWorld(t testing.TB, shards int) (*Engine, graph.NodeID, graph.NodeID, graph.NodeID, graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder()
	ego := b.AddNode(graph.User, nil, nil)
	heavy := b.AddNode(graph.Item, nil, nil)
	light := b.AddNode(graph.Item, nil, nil)
	lone := b.AddNode(graph.Item, nil, nil)
	b.AddUndirected(ego, heavy, graph.Click, 9)
	b.AddUndirected(ego, light, graph.Click, 1)
	return New(b.Build(), Config{Shards: shards}), ego, heavy, light, lone
}

func TestAppendSamplingSeesNewEdges(t *testing.T) {
	e, ego, _, _, lone := deltaWorld(t, 1)
	// Appended mass equals the base mass: the new neighbor should take
	// about half the draws.
	n, err := e.Append([]ingest.Edge{{Src: ego, Dst: lone, Type: graph.Session, Weight: 10}})
	if err != nil || n != 1 {
		t.Fatalf("Append = (%d, %v), want (1, nil)", n, err)
	}
	r := rng.New(7)
	hits := 0
	const draws = 20000
	out := make([]graph.NodeID, 1)
	for i := 0; i < draws; i++ {
		if e.SampleNeighborsInto(ego, out, r) != 1 {
			t.Fatal("sample failed")
		}
		if out[0] == lone {
			hits++
		}
	}
	frac := float64(hits) / draws
	if frac < 0.46 || frac > 0.54 {
		t.Fatalf("appended edge sampled %.3f of draws, want ~0.5", frac)
	}
	if d, _ := e.Shard(0).IngestStats(); d.Seq != 1 || d.DeltaEdges != 1 || d.DeltaNodes != 1 {
		t.Fatalf("IngestStats = %+v", d)
	}
}

func TestAppendUntouchedNodesDrawBitIdentical(t *testing.T) {
	e1, g := buildEngine(t)
	e2, _ := buildEngine(t)
	// Append to node 0's shard only; every other node's stream must be
	// untouched relative to the pristine engine.
	if _, err := e1.Append([]ingest.Edge{{Src: 0, Dst: 1, Type: graph.Click, Weight: 2}}); err != nil {
		t.Fatal(err)
	}
	r1, r2 := rng.New(99), rng.New(99)
	a := make([]graph.NodeID, 4)
	b := make([]graph.NodeID, 4)
	for id := 1; id < g.NumNodes(); id += 3 {
		nid := graph.NodeID(id)
		n1 := e1.SampleNeighborsInto(nid, a, r1)
		n2 := e2.SampleNeighborsInto(nid, b, r2)
		if n1 != n2 {
			t.Fatalf("node %d: counts %d vs %d", id, n1, n2)
		}
		for i := 0; i < n1; i++ {
			if a[i] != b[i] {
				t.Fatalf("node %d draw %d: %d vs %d — append leaked into an untouched node's stream", id, i, a[i], b[i])
			}
		}
	}
}

func TestAppendIsolatedNodeGainsEdges(t *testing.T) {
	e, ego, _, _, lone := deltaWorld(t, 1)
	r := rng.New(5)
	got := make([]graph.NodeID, 3)
	if n := e.SampleNeighborsInto(lone, got, r); n != 0 {
		t.Fatalf("isolated node sampled %d draws before append", n)
	}
	if _, err := e.Append([]ingest.Edge{{Src: lone, Dst: ego, Type: graph.Session, Weight: 1}}); err != nil {
		t.Fatal(err)
	}
	if n := e.SampleNeighborsInto(lone, got, r); n != 3 || got[0] != ego || got[1] != ego || got[2] != ego {
		t.Fatalf("isolated node after append sampled %v, want [ego ego ego]", got)
	}
	if nbrs := e.Neighbors(lone); len(nbrs) != 1 || nbrs[0].To != ego {
		t.Fatalf("Neighbors(lone) = %v after append", nbrs)
	}
}

func TestApplyAppendIdempotentAndGapTyped(t *testing.T) {
	e, ego, _, _, lone := deltaWorld(t, 1)
	sh := e.Shard(0)
	edges := []ingest.Edge{{Src: ego, Dst: lone, Type: graph.Click, Weight: 1}}

	applied, last, err := sh.ApplyAppend(1, edges)
	if !applied || last != 1 || err != nil {
		t.Fatalf("first apply = (%v, %d, %v)", applied, last, err)
	}
	// Redelivery (client retry, replica fan-out) is a no-op success.
	applied, last, err = sh.ApplyAppend(1, edges)
	if applied || last != 1 || err != nil {
		t.Fatalf("duplicate apply = (%v, %d, %v), want (false, 1, nil)", applied, last, err)
	}
	// A sequence skipping ahead fails typed, carrying the expected next.
	_, last, err = sh.ApplyAppend(5, edges)
	if !errors.Is(err, errSeqGap) {
		t.Fatalf("gap apply err = %v, want errSeqGap", err)
	}
	var gap *seqGapError
	if !errors.As(err, &gap) || gap.Want != 2 || gap.Got != 5 || last != 1 {
		t.Fatalf("gap detail = %+v (last %d), want Want=2 Got=5 last=1", gap, last)
	}
	if sh.LastAppliedSeq() != 1 {
		t.Fatalf("LastAppliedSeq = %d after rejected applies, want 1", sh.LastAppliedSeq())
	}
}

func TestAppendValidationTyped(t *testing.T) {
	e, ego, _, _, lone := deltaWorld(t, 2)
	si := e.ShardOf(ego)
	foreign := lone
	if e.ShardOf(foreign) == si {
		foreign = graph.NodeID(1)
	}
	if e.ShardOf(foreign) == si {
		t.Skip("could not find a foreign node in 2 shards")
	}
	sh := e.Shard(si)
	cases := []ingest.Edge{
		{Src: foreign, Dst: ego, Type: graph.Click, Weight: 1},        // wrong shard
		{Src: ego, Dst: 9999, Type: graph.Click, Weight: 1},           // out of range
		{Src: ego, Dst: lone, Type: graph.EdgeType(7), Weight: 1},     // unknown type
		{Src: ego, Dst: lone, Type: graph.Click, Weight: 0},           // zero weight
		{Src: ego, Dst: lone, Type: graph.Click, Weight: float32(-1)}, // negative
	}
	for i, bad := range cases {
		if _, _, err := sh.ApplyAppend(1, []ingest.Edge{bad}); !errors.Is(err, ErrBadAppend) {
			t.Fatalf("case %d: err = %v, want ErrBadAppend", i, err)
		}
	}
	if sh.LastAppliedSeq() != 0 {
		t.Fatal("rejected appends advanced the sequence")
	}
}

// genAppendStream builds the deterministic record stream used by the
// replay-equivalence tests: many edges funneled at ego (to cross the
// compaction threshold repeatedly) plus scattered edges elsewhere.
func genAppendStream(ego, lone graph.NodeID, n int) [][]ingest.Edge {
	recs := make([][]ingest.Edge, n)
	for i := range recs {
		x := uint64(i)*2654435761 + 12345
		rec := []ingest.Edge{
			{Src: ego, Dst: graph.NodeID(x % 4), Type: graph.EdgeType(x % 3), Weight: float32(x%17) + 0.25},
		}
		if i%3 == 0 {
			rec = append(rec, ingest.Edge{Src: lone, Dst: ego, Type: graph.Session, Weight: float32(x%5) + 1})
		}
		recs[i] = rec
	}
	return recs
}

func TestAppendReplayBitIdentical(t *testing.T) {
	// Two engines, one record stream: engine A applies it live, engine B
	// "recovers" by replaying the same prefix. Every draw must agree bit
	// for bit at every prefix length — the property WAL recovery rests on.
	eA, egoA, _, _, loneA := deltaWorld(t, 1)
	eB, _, _, _, _ := deltaWorld(t, 1)
	shA, shB := eA.Shard(0), eB.Shard(0)
	stream := genAppendStream(egoA, loneA, 100)

	for seq, rec := range stream {
		if _, _, err := shA.ApplyAppend(uint64(seq)+1, rec); err != nil {
			t.Fatalf("A apply %d: %v", seq+1, err)
		}
	}
	for seq, rec := range stream {
		if _, _, err := shB.ApplyAppend(uint64(seq)+1, rec); err != nil {
			t.Fatalf("B apply %d: %v", seq+1, err)
		}
	}

	dA, _ := shA.IngestStats()
	dB, _ := shB.IngestStats()
	if !reflect.DeepEqual(dA, dB) {
		t.Fatalf("IngestStats diverged: %+v vs %+v", dA, dB)
	}
	if dA.Compactions == 0 {
		t.Fatalf("stream of %d records never compacted (threshold %d) — test lost its teeth", len(stream), compactThreshold)
	}

	out1 := make([]graph.NodeID, 8)
	out2 := make([]graph.NodeID, 8)
	for _, id := range []graph.NodeID{egoA, loneA} {
		r1, r2 := rng.New(42), rng.New(42)
		for rep := 0; rep < 50; rep++ {
			shA.SampleNeighborsInto(id, out1, r1)
			shB.SampleNeighborsInto(id, out2, r2)
			for i := range out1 {
				if out1[i] != out2[i] {
					t.Fatalf("node %d rep %d draw %d: diverged %v vs %v", id, rep, i, out1, out2)
				}
			}
		}
	}
}

func TestAppendSampleNoAlloc(t *testing.T) {
	e, ego, _, _, lone := deltaWorld(t, 1)
	sh := e.Shard(0)
	// Drive ego past the compaction threshold and leave a pending tail,
	// so the draw exercises the merged+pending mixture; lone stays
	// pre-compaction (base+pending mixture).
	stream := genAppendStream(ego, lone, compactThreshold+5)
	for seq, rec := range stream {
		if _, _, err := sh.ApplyAppend(uint64(seq)+1, rec); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(11)
	out := make([]graph.NodeID, 16)
	for _, id := range []graph.NodeID{ego, lone} {
		id := id
		if allocs := testing.AllocsPerRun(200, func() {
			sh.SampleNeighborsInto(id, out, r)
		}); allocs != 0 {
			t.Fatalf("node %d: %v allocs/op on the delta sampling path, want 0", id, allocs)
		}
	}
}

func TestAppendBatchPathConsistent(t *testing.T) {
	// The scatter-gather batch path must produce the same draws as the
	// single-node path for overlaid nodes (same derived-stream contract).
	e, ego, _, _, lone := deltaWorld(t, 1)
	sh := e.Shard(0)
	stream := genAppendStream(ego, lone, 40)
	for seq, rec := range stream {
		if _, _, err := sh.ApplyAppend(uint64(seq)+1, rec); err != nil {
			t.Fatal(err)
		}
	}
	const k = 6
	gids := []graph.NodeID{ego, lone}
	idx := []int32{0, 1}
	out := make([]graph.NodeID, len(gids)*k)
	ns := make([]int32, len(gids))
	base := uint64(777)
	if _, err := sh.SampleBatchInto(gids, idx, base, k, out, ns); err != nil {
		t.Fatal(err)
	}
	var sub rng.RNG
	want := make([]graph.NodeID, k)
	for i, id := range gids {
		if ns[i] != k {
			t.Fatalf("node %d: ns = %d, want %d", id, ns[i], k)
		}
		sub.Reseed(entrySeed(base, i))
		sh.SampleNeighborsInto(id, want, &sub)
		for j := 0; j < k; j++ {
			if out[i*k+j] != want[j] {
				t.Fatalf("node %d draw %d: batch %d vs single %d", id, j, out[i*k+j], want[j])
			}
		}
	}
}

// BenchmarkDeltaApply measures the copy-on-write apply path (including
// periodic compactions) of one 2-edge record on a 4096-node shard that
// already carries `live` overlays. Every 256 applies the shard is reset
// to that starting view outside the timer, so the two touched nodes'
// growth — and with it the compaction cost — stays bounded and the
// cases differ only in how many other overlays are live.
func BenchmarkDeltaApply(b *testing.B) {
	const nodes, reset = 4096, 256
	for _, live := range []int{2, 2000} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			gb := graph.NewBuilder()
			for i := 0; i < nodes; i++ {
				gb.AddNode(graph.User, nil, nil)
			}
			for i := 0; i < nodes; i += 2 {
				gb.AddUndirected(graph.NodeID(i), graph.NodeID(i+1), graph.Click, 1)
			}
			sh := New(gb.Build(), Config{Shards: 1}).Shard(0)
			for id := 0; id < live; id++ {
				rec := []ingest.Edge{{Src: graph.NodeID(id), Dst: graph.NodeID(nodes - 1 - id), Type: graph.Click, Weight: 1}}
				if _, err := sh.AppendEdges(rec); err != nil {
					b.Fatal(err)
				}
			}
			start := sh.delta.Load()
			rec := []ingest.Edge{
				{Src: 0, Dst: 1, Type: graph.Click, Weight: 1.5},
				{Src: 1, Dst: 0, Type: graph.Click, Weight: 1.5},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%reset == 0 {
					b.StopTimer()
					sh.delta.Store(start)
					b.StartTimer()
				}
				if _, _, err := sh.ApplyAppend(start.seq+uint64(i%reset)+1, rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeltaSample measures post-compaction mixture draws against a
// node with live deltas — the post-ingest read hot path.
func BenchmarkDeltaSample(b *testing.B) {
	e, ego, _, _, lone := deltaWorld(b, 1)
	sh := e.Shard(0)
	stream := genAppendStream(ego, lone, 64)
	for seq, rec := range stream {
		if _, _, err := sh.ApplyAppend(uint64(seq)+1, rec); err != nil {
			b.Fatal(err)
		}
	}
	r := rng.New(3)
	out := make([]graph.NodeID, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.SampleNeighborsInto(ego, out, r)
	}
}
