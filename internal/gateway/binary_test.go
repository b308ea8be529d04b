package gateway

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/http/httptest"
	"runtime"
	"testing"

	"zoomer/internal/ann"
	"zoomer/internal/wire"
)

// allocatedBy reports the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// encodeBinary is the frame writeBinary answers with.
func encodeBinary(degraded bool, items []Item) []byte {
	results := make([]ann.Result, len(items))
	for i, it := range items {
		results[i] = ann.Result{ID: it.ID, Score: it.Score}
	}
	rec := httptest.NewRecorder()
	(&Gateway{}).writeBinary(rec, degraded, results)
	return rec.Body.Bytes()
}

// checkDecodeBinary is the one property of the ZGR1 decoder: it never
// panics, allocates no more than a constant factor of its input, fails
// only with wire.ErrMalformed, and what it accepts writeBinary writes
// back byte for byte — but for the flag bits a reader ignores. It
// returns DecodeBinary's error.
func checkDecodeBinary(t *testing.T, frame []byte) error {
	t.Helper()
	var items []Item
	var degraded bool
	var err error
	if n := allocatedBy(func() { items, degraded, err = DecodeBinary(frame) }); n > 1<<16+2*uint64(len(frame)) {
		t.Fatalf("allocated %d bytes decoding a %d-byte frame", n, len(frame))
	}
	if err != nil {
		if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("untyped error: %v", err)
		}
		return err
	}
	want := bytes.Clone(frame)
	want[len(binMagic)] &= 1
	if again := encodeBinary(degraded, items); !bytes.Equal(again, want) {
		t.Fatal("accepted frame does not re-encode to itself")
	}
	return nil
}

// corruptFrames are replies DecodeBinary must refuse.
func corruptFrames() map[string][]byte {
	valid := func() []byte { return encodeBinary(true, []Item{{ID: 7, Score: 0.5}, {ID: 1 << 40, Score: -1}}) }
	count := func(n uint32) []byte {
		x := valid()
		binary.LittleEndian.PutUint32(x[len(binMagic)+1:], n)
		return x
	}
	return map[string][]byte{
		"bad magic":          append([]byte("ZGR2"), valid()[4:]...),
		"lying item count":   count(1 << 30),
		"count one too many": count(3),
		"count one too few":  count(1),
		"trailing byte":      append(valid(), 0),
	}
}

// A ZGR1 reply is sized from its bytes: every corrupt row and every
// truncation of a valid frame fails typed in under 1 MiB
// (checkDecodeBinary's bound for inputs this small), and a valid frame
// round-trips byte-identically.
func TestDecodeBinaryBoundsAndTypes(t *testing.T) {
	for _, frame := range [][]byte{encodeBinary(false, nil), encodeBinary(true, []Item{{ID: 7, Score: 0.5}, {ID: 9, Score: 2}})} {
		if err := checkDecodeBinary(t, frame); err != nil {
			t.Fatalf("valid frame refused: %v", err)
		}
		for cut := 0; cut < len(frame); cut++ {
			if checkDecodeBinary(t, frame[:cut]) == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(frame))
			}
		}
	}
	for name, frame := range corruptFrames() {
		if checkDecodeBinary(t, frame) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeBinary: checkDecodeBinary over arbitrary bytes, seeded from
// real writeBinary output and the corrupt rows.
func FuzzDecodeBinary(f *testing.F) {
	f.Add(encodeBinary(false, nil))
	f.Add(encodeBinary(true, []Item{{ID: 7, Score: 0.5}, {ID: 9, Score: 2}}))
	for _, frame := range corruptFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) { checkDecodeBinary(t, frame) })
}
