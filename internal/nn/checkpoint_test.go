package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"zoomer/internal/rng"
	"zoomer/internal/wire"
)

func ckptFixture(seed uint64) ([]*Param, []*EmbeddingTable) {
	r := rng.New(seed)
	params := []*Param{
		NewParam("w1", 3, 4).XavierInit(r),
		NewParam("b1", 1, 4),
	}
	tables := []*EmbeddingTable{
		NewEmbeddingTable("emb1", 10, 4, r),
		NewEmbeddingTable("emb2", 5, 4, r),
	}
	return params, tables
}

func TestCheckpointRoundTrip(t *testing.T) {
	params, tables := ckptFixture(1)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, params, tables); err != nil {
		t.Fatal(err)
	}
	// Fresh model with same architecture but different init.
	params2, tables2 := ckptFixture(99)
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), params2, tables2); err != nil {
		t.Fatal(err)
	}
	for i := range params {
		for j := range params[i].Val.Data {
			if params[i].Val.Data[j] != params2[i].Val.Data[j] {
				t.Fatalf("param %d value %d not restored", i, j)
			}
		}
	}
	for i := range tables {
		for row := int32(0); row < int32(tables[i].Vocab()); row++ {
			a, b := tables[i].Row(row), tables2[i].Row(row)
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("table %d row %d not restored", i, row)
				}
			}
		}
	}
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	params, tables := ckptFixture(2)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, params, tables); err != nil {
		t.Fatal(err)
	}
	// Wrong param name.
	p2, t2 := ckptFixture(2)
	p2[0].Name = "other"
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), p2, t2); err == nil {
		t.Fatal("name mismatch accepted")
	}
	// Wrong shape.
	p3, t3 := ckptFixture(2)
	p3[0] = NewParam("w1", 2, 2)
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), p3, t3); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	// Wrong table vocab.
	p4, t4 := ckptFixture(2)
	t4[0] = NewEmbeddingTable("emb1", 11, 4, rng.New(3))
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), p4, t4); err == nil {
		t.Fatal("vocab mismatch accepted")
	}
	// Wrong counts.
	p5, t5 := ckptFixture(2)
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), p5[:1], t5); err == nil {
		t.Fatal("count mismatch accepted")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	params, tables := ckptFixture(3)
	if err := LoadCheckpoint(strings.NewReader("garbage data here"), params, tables); err == nil {
		t.Fatal("garbage accepted")
	}
	if err := LoadCheckpoint(strings.NewReader(""), params, tables); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestCheckpointTruncation(t *testing.T) {
	params, tables := ckptFixture(4)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, params, tables); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{3, 10, len(data) / 2, len(data) - 2} {
		p, tb := ckptFixture(4)
		if err := LoadCheckpoint(bytes.NewReader(data[:cut]), p, tb); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
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

// checkLoad is the one property of the checkpoint decoder, against the
// ckptFixture architecture: it never panics, allocates no more than a
// constant factor of its input, fails only with wire.ErrMalformed, and a
// checkpoint it accepts SaveCheckpoint writes back byte for byte. It
// returns LoadCheckpoint's error.
func checkLoad(t *testing.T, data []byte) error {
	t.Helper()
	params, tables := ckptFixture(99)
	var err error
	if n := allocatedBy(func() { err = LoadCheckpoint(bytes.NewReader(data), params, tables) }); n > 1<<16+8*uint64(len(data)) {
		t.Fatalf("allocated %d bytes loading a %d-byte checkpoint", n, len(data))
	}
	if err != nil {
		if !errors.Is(err, wire.ErrMalformed) {
			t.Fatalf("untyped error: %v", err)
		}
		return err
	}
	var again bytes.Buffer
	if err := SaveCheckpoint(&again, params, tables); err != nil || !bytes.Equal(again.Bytes(), data) {
		t.Fatalf("accepted checkpoint does not re-encode to itself (%v)", err)
	}
	return nil
}

func savedFixture(t testing.TB) []byte {
	params, tables := ckptFixture(5)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, params, tables); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptCheckpoints are inputs LoadCheckpoint must refuse. The first
// section's name length sits at byte 16, after magic, version and the
// two counts.
func corruptCheckpoints(t testing.TB) map[string][]byte {
	patch := func(off int, v uint32) []byte {
		x := savedFixture(t)
		binary.LittleEndian.PutUint32(x[off:], v)
		return x
	}
	return map[string][]byte{
		"bad magic":         patch(0, 7),
		"bad version":       patch(4, ckptVersion+1),
		"lying param count": patch(8, 1<<30),
		"lying name length": patch(16, 1<<30),
		"64 KiB name":       patch(16, 1<<16),
		"trailing byte":     append(savedFixture(t), 0),
	}
}

// A checkpoint is sized from its bytes: every corrupt row and every
// truncation of a valid checkpoint fails typed in under 1 MiB, and a
// valid one round-trips byte-identically.
func TestCheckpointBoundsAndTypes(t *testing.T) {
	valid := savedFixture(t)
	if err := checkLoad(t, valid); err != nil {
		t.Fatalf("valid checkpoint refused: %v", err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if checkLoad(t, valid[:cut]) == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(valid))
		}
	}
	for name, x := range corruptCheckpoints(t) {
		if checkLoad(t, x) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzLoadCheckpoint: checkLoad over arbitrary bytes, seeded from real
// SaveCheckpoint output and the corrupt rows.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add(savedFixture(f))
	for _, x := range corruptCheckpoints(f) {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkLoad(t, data) })
}
