package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

var errFormat = errors.New("test: format sentinel")

// Every read decodes little-endian, advances, and consuming the input
// exactly satisfies Err.
func TestCursorReads(t *testing.T) {
	var b []byte
	b = append(b, 0xab)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 1<<40+3)
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(-1.5))
	b = binary.LittleEndian.AppendUint32(b, 2) // a count of two u32 elements
	b = binary.LittleEndian.AppendUint32(b, 10)
	b = binary.LittleEndian.AppendUint32(b, 11)
	b = binary.LittleEndian.AppendUint32(b, 3)
	b = append(b, "abc"...)
	b = append(b, 9, 8)

	cu := Cursor{B: b}
	if v := cu.U8(); v != 0xab {
		t.Fatalf("U8 = %#x", v)
	}
	if v := cu.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := cu.U64(); v != 1<<40+3 {
		t.Fatalf("U64 = %d", v)
	}
	if v := cu.F32(); v != -1.5 {
		t.Fatalf("F32 = %v", v)
	}
	if n := cu.Count(4); n != 2 || cu.U32() != 10 || cu.U32() != 11 {
		t.Fatalf("Count = %d", n)
	}
	if s := cu.Str(); s != "abc" {
		t.Fatalf("Str = %q", s)
	}
	if err := cu.Err(errFormat); !errors.Is(err, errFormat) {
		t.Fatalf("Err with two bytes unread = %v, want the sentinel", err)
	}
	if !cu.Fits(2, 1) || cu.Fits(3, 1) {
		t.Fatal("Fits disagrees with the two bytes left")
	}
	cu.Bad = false
	if v := cu.Bytes(2); !bytes.Equal(v, []byte{9, 8}) || len(cu.Rest()) != 0 {
		t.Fatalf("Bytes = %v, rest %d", v, len(cu.Rest()))
	}
	if err := cu.Err(errFormat); err != nil {
		t.Fatalf("Err after an exact decode = %v", err)
	}
}

// The bounds and failure rules: a read or a declared count the input is
// too short for yields a zero value and latches Bad, which sticks through
// later reads that fit, and Err reports the sentinel.
func TestCursorLatchesOutOfBounds(t *testing.T) {
	short := []byte{1, 2, 3}
	count := binary.LittleEndian.AppendUint32(nil, 1<<31) // declares 2^31 elements, carries 8 bytes
	count = append(count, make([]byte, 8)...)
	rows := []struct {
		name string
		in   []byte
		zero func(cu *Cursor) bool
	}{
		{"U8", nil, func(cu *Cursor) bool { return cu.U8() == 0 }},
		{"U32", short, func(cu *Cursor) bool { return cu.U32() == 0 }},
		{"U64", short, func(cu *Cursor) bool { return cu.U64() == 0 }},
		{"F32", short, func(cu *Cursor) bool { return cu.F32() == 0 }},
		{"Count", count, func(cu *Cursor) bool { return cu.Count(1) == 0 }},
		{"Str", count, func(cu *Cursor) bool { return cu.Str() == "" }},
		{"Bytes", short, func(cu *Cursor) bool { return cu.Bytes(4) == nil }},
		{"Bytes(-1)", short, func(cu *Cursor) bool { return cu.Bytes(-1) == nil }},
		{"Fits", short, func(cu *Cursor) bool { return !cu.Fits(2, 2) }},
	}
	for _, row := range rows {
		cu := Cursor{B: row.in}
		if !row.zero(&cu) || !cu.Bad {
			t.Errorf("%s past the end: Bad = %v", row.name, cu.Bad)
		}
		cu.U8() // fits, except in the empty input
		if !cu.Bad || cu.Rest() != nil || cu.Count(1) != 0 || !errors.Is(cu.Err(errFormat), errFormat) {
			t.Errorf("%s: the failure did not stick", row.name)
		}
	}
}
