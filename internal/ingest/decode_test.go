package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// allocatedBy reports the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// checkDecodeRecord is the one property of the edge-record decoder — the
// WAL's and the graph-append op's: it never panics, allocates no more
// than a constant factor of its input, fails only with ErrCorrupt, and
// what it accepts AppendPayload writes back byte for byte. It returns
// DecodeRecord's error.
func checkDecodeRecord(t *testing.T, p []byte) error {
	t.Helper()
	var rec Record
	var err error
	if n := allocatedBy(func() { rec, err = DecodeRecord(p, nil) }); n > 1<<16+2*uint64(len(p)) {
		t.Fatalf("allocated %d bytes decoding a %d-byte payload", n, len(p))
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped error: %v", err)
		}
		return err
	}
	if again := AppendPayload(nil, rec.Seq, rec.Edges); !bytes.Equal(again, p) {
		t.Fatal("accepted payload does not re-encode to itself")
	}
	return nil
}

// corruptPayloads are record payloads DecodeRecord must refuse.
func corruptPayloads() map[string][]byte {
	count := func(p []byte, n uint32) []byte {
		binary.LittleEndian.PutUint32(p[8:], n)
		return p
	}
	valid := func() []byte { return AppendPayload(nil, 3, genRecord(3)) }
	return map[string][]byte{
		"lying edge count":      count(valid(), 1<<30),
		"count above the limit": count(valid(), maxRecordEdges+1),
		"count one too many":    count(valid(), uint32(len(genRecord(3)))+1),
		"count one too few":     count(valid(), uint32(len(genRecord(3)))-1),
		"trailing byte":         append(valid(), 0),
	}
}

// An edge record is sized from its bytes: every corrupt row and every
// truncation of a valid payload fails typed in under 1 MiB
// (checkDecodeRecord's bound for inputs this small), a valid one
// round-trips byte-identically, and a large enough buffer is reused.
func TestDecodeRecordBoundsAndTypes(t *testing.T) {
	for _, p := range [][]byte{AppendPayload(nil, 1, nil), AppendPayload(nil, 9, genRecord(9))} {
		if err := checkDecodeRecord(t, p); err != nil {
			t.Fatalf("valid payload refused: %v", err)
		}
		for cut := 0; cut < len(p); cut++ {
			if checkDecodeRecord(t, p[:cut]) == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(p))
			}
		}
	}
	for name, p := range corruptPayloads() {
		if checkDecodeRecord(t, p) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	buf := make([]Edge, 8) // a server worker's scratch: enough for genRecord(4)'s five edges
	rec, err := DecodeRecord(AppendPayload(nil, 4, genRecord(4)), buf)
	if err != nil || len(rec.Edges) != 5 || &rec.Edges[0] != &buf[0] {
		t.Fatalf("decode into a large enough buffer: %d edges (err %v) not in the buffer", len(rec.Edges), err)
	}
}

// FuzzDecodeRecord: checkDecodeRecord over arbitrary bytes, seeded from
// real AppendPayload output and the corrupt rows.
func FuzzDecodeRecord(f *testing.F) {
	f.Add(AppendPayload(nil, 1, nil))
	f.Add(AppendPayload(nil, 9, genRecord(9)))
	for _, p := range corruptPayloads() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) { checkDecodeRecord(t, p) })
}
