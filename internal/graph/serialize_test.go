package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

func randomGraph(seed uint64, n, m int) *Graph {
	r := rng.New(seed)
	b := NewBuilder()
	for i := 0; i < n; i++ {
		var feats []int32
		for j := 0; j < 1+r.Intn(4); j++ {
			feats = append(feats, int32(r.Intn(100)))
		}
		var content tensor.Vec
		if r.Float64() < 0.8 {
			content = tensor.Vec{r.Float32(), r.Float32() - 0.5, r.Float32() * 3}
		}
		b.AddNode(NodeType(i%NumNodeTypes), feats, content)
	}
	for i := 0; i < m; i++ {
		b.addEdge(NodeID(r.Intn(n)), NodeID(r.Intn(n)), EdgeType(r.Intn(NumEdgeTypes)), r.Float32()+0.1)
	}
	return b.Build()
}

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	if a.ContentDim() != b.ContentDim() {
		t.Fatalf("content dim %d vs %d", a.ContentDim(), b.ContentDim())
	}
	if a.countByType != b.countByType || a.edgesByType != b.edgesByType {
		t.Fatalf("per-type counts %v/%v vs %v/%v", a.countByType, a.edgesByType, b.countByType, b.edgesByType)
	}
	for id := 0; id < a.NumNodes(); id++ {
		nid := NodeID(id)
		if a.LocalIndex(nid) != b.LocalIndex(nid) {
			t.Fatalf("node %d local index %d vs %d", id, a.LocalIndex(nid), b.LocalIndex(nid))
		}
		if a.Type(nid) != b.Type(nid) {
			t.Fatalf("node %d type mismatch", id)
		}
		af, bf := a.Features(nid), b.Features(nid)
		if len(af) != len(bf) {
			t.Fatalf("node %d feature count mismatch", id)
		}
		for j := range af {
			if af[j] != bf[j] {
				t.Fatalf("node %d feature %d mismatch", id, j)
			}
		}
		ac, bc := a.Content(nid), b.Content(nid)
		if (ac == nil) != (bc == nil) || len(ac) != len(bc) {
			t.Fatalf("node %d content presence mismatch", id)
		}
		for j := range ac {
			if ac[j] != bc[j] {
				t.Fatalf("node %d content %d mismatch", id, j)
			}
		}
		an, bn := a.Neighbors(nid), b.Neighbors(nid)
		if len(an) != len(bn) {
			t.Fatalf("node %d degree mismatch", id)
		}
		for j := range an {
			if an[j] != bn[j] {
				t.Fatalf("node %d edge %d mismatch: %v vs %v", id, j, an[j], bn[j])
			}
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	g := randomGraph(1, 50, 200)
	var buf bytes.Buffer
	n, err := g.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)
}

func TestSerializeEmptyFeaturesAndContent(t *testing.T) {
	b := NewBuilder()
	b.AddNode(User, nil, nil)
	b.AddNode(Item, []int32{7}, nil)
	g := b.Build()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, g, got)
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a graph at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	g := randomGraph(2, 20, 60)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Any truncation must error, never panic or return a bogus graph.
	for _, cut := range []int{4, 9, len(full) / 2, len(full) - 3} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	g := randomGraph(3, 5, 10)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // corrupt version field
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestWriteToPropagatesWriterErrors(t *testing.T) {
	g := randomGraph(4, 10, 30)
	if _, err := g.WriteTo(failingWriter{}); err == nil {
		t.Fatal("writer error swallowed")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func BenchmarkSerialize(b *testing.B) {
	g := randomGraph(5, 5000, 40000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeserialize(b *testing.B) {
	g := randomGraph(6, 5000, 40000)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// allocatedBy reports the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// checkRead is the one property of the graph-file decoder: it never
// panics, allocates no more than a constant factor of its input, fails
// only with ErrCorruptFile, and what it accepts WriteTo writes back byte
// for byte. It returns Read's error.
func checkRead(t *testing.T, data []byte) error {
	t.Helper()
	var g *Graph
	var err error
	if n := allocatedBy(func() { g, err = Read(bytes.NewReader(data)) }); n > 1<<19+16*uint64(len(data)) {
		t.Fatalf("allocated %d bytes reading a %d-byte file", n, len(data))
	}
	if err != nil {
		if !errors.Is(err, ErrCorruptFile) {
			t.Fatalf("untyped error: %v", err)
		}
		return err
	}
	var again bytes.Buffer
	if _, err := g.WriteTo(&again); err != nil || !bytes.Equal(again.Bytes(), data) {
		t.Fatalf("accepted file does not re-encode to itself (%v)", err)
	}
	return nil
}

// tinyFile is a two-node, two-edge graph file whose layout the corrupt
// rows below patch by offset: header 0, types 20, feature lists 28,
// content rows 40, offsets 56, edges 68, end 92.
func tinyFile(t testing.TB) []byte {
	b := NewBuilder()
	u := b.AddNode(User, []int32{7}, tensor.Vec{1, 2})
	i := b.AddNode(Item, nil, nil)
	b.addEdge(u, i, Click, 1)
	b.addEdge(i, u, Click, 2)
	var buf bytes.Buffer
	if _, err := b.Build().WriteTo(&buf); err != nil || buf.Len() != 92 {
		t.Fatalf("tiny file: %d bytes, err %v", buf.Len(), err)
	}
	return buf.Bytes()
}

// corruptFiles are inputs Read must refuse: headers and counts that
// promise more than the file holds, structure WriteTo never writes.
func corruptFiles(t testing.TB) map[string][]byte {
	patch := func(off int, v uint32) []byte {
		x := tinyFile(t)
		binary.LittleEndian.PutUint32(x[off:], v)
		return x
	}
	return map[string][]byte{
		"20-byte file, 2^30 nodes":    patch(8, 1<<30)[:20],
		"lying numNodes":              patch(8, 1<<30),
		"lying numEdges":              patch(12, 1<<30),
		"lying contentDim":            patch(16, 1<<30),
		"contentDim no row has":       append(patch(40, 0)[:44], tinyFile(t)[52:]...),
		"lying feature count":         patch(28, 1<<30),
		"content flag 2":              patch(40, 2),
		"invalid node type":           patch(20, 9),
		"non-monotone offsets":        patch(60, 3),
		"offsets end before numEdges": patch(64, 1),
		"edge to a node out of range": patch(68, 2),
		"invalid edge type":           patch(72, 9),
		"negative weight":             patch(76, 0xbf800000),
		"trailing byte":               append(tinyFile(t), 0),
		"adjacency not sorted by To":  unsortedFile(t),
	}
}

// unsortedFile is a node whose two edges are stored in descending To
// order — a shape Build never leaves.
func unsortedFile(t testing.TB) []byte {
	b := NewBuilder()
	for i := 0; i < 3; i++ {
		b.AddNode(User, nil, nil)
	}
	b.addEdge(0, 1, Click, 1)
	b.addEdge(0, 2, Click, 1)
	var buf bytes.Buffer
	if _, err := b.Build().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	x := buf.Bytes()
	edges := x[len(x)-24:]
	edges[0], edges[12] = edges[12], edges[0] // swap the two To fields' low bytes
	return x
}

// A graph file is sized from its bytes, not its header: every corrupt
// row and every truncation of a valid file fails typed in under 1 MiB,
// (checkRead's bound for inputs this small), and a valid file round-trips
// byte-identically.
func TestReadBoundsAndTypes(t *testing.T) {
	var valid bytes.Buffer
	if _, err := randomGraph(7, 20, 60).WriteTo(&valid); err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]byte{valid.Bytes(), tinyFile(t)} {
		if err := checkRead(t, x); err != nil {
			t.Fatalf("valid file refused: %v", err)
		}
		for cut := 0; cut < len(x); cut++ {
			if checkRead(t, x[:cut]) == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(x))
			}
		}
	}
	for name, x := range corruptFiles(t) {
		if checkRead(t, x) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzRead: checkRead over arbitrary bytes, seeded from real WriteTo
// output and the corrupt rows.
func FuzzRead(f *testing.F) {
	var valid bytes.Buffer
	if _, err := randomGraph(8, 6, 12).WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(tinyFile(f))
	for _, x := range corruptFiles(f) {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkRead(t, data) })
}
