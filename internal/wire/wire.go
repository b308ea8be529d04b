// Package wire is how untrusted bytes become values. Every format this
// tree reads from outside the process — RPC frames, routing blobs, graph
// files, WAL records, checkpoints, gateway replies — is decoded through
// one Cursor, under three rules:
//
//   - bounds: a declared count or length is believed only up to the
//     bytes actually left divided by the element size, so nothing is
//     ever sized from a header alone;
//   - failure: an out-of-bounds read latches one flag and yields zero
//     values; the decode loop stays branch-light and the caller checks
//     once, failing with its format's one typed error;
//   - completeness: a decoder that does not consume its input exactly
//     rejects it; Err checks both.
//
// All integers are little-endian. The package imports only the standard
// library; the formats themselves live with the packages that own them.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrMalformed is the typed decode failure of the formats that have no
// sentinel of their own (the model checkpoint, the gateway's binary
// reply).
var ErrMalformed = errors.New("wire: malformed input")

// Cursor decodes B sequentially; out-of-bounds reads latch Bad (checked
// once at the end) instead of returning per-read errors, keeping decode
// loops branch-light and allocation-free. Decoders latch Bad themselves
// for a value that is in bounds but out of range.
type Cursor struct {
	B   []byte
	Bad bool
	off int
}

func (cu *Cursor) U8() byte {
	if cu.off+1 > len(cu.B) {
		cu.Bad = true
		return 0
	}
	v := cu.B[cu.off]
	cu.off++
	return v
}

func (cu *Cursor) U32() uint32 {
	if cu.off+4 > len(cu.B) {
		cu.Bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(cu.B[cu.off:])
	cu.off += 4
	return v
}

func (cu *Cursor) U64() uint64 {
	if cu.off+8 > len(cu.B) {
		cu.Bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(cu.B[cu.off:])
	cu.off += 8
	return v
}

// F32 decodes a float32 stored as its IEEE-754 bits.
func (cu *Cursor) F32() float32 { return math.Float32frombits(cu.U32()) }

// Fits reports whether n elements of elem bytes each are still unread,
// latching Bad when they are not — the bounds rule for a count declared
// earlier than the data it sizes (a file header's node count, a row
// dimension). Check it before allocating for n. n is a decoded u32 and
// elem a small constant, so the product cannot overflow.
func (cu *Cursor) Fits(n, elem int) bool {
	if cu.Bad || n < 0 || uint64(n)*uint64(elem) > uint64(len(cu.B)-cu.off) {
		cu.Bad = true
		return false
	}
	return true
}

// Count decodes a u32 element count and checks that that many elements
// of elem bytes each are actually left in the input — the bound that
// keeps a short input from demanding a large allocation.
func (cu *Cursor) Count(elem int) int {
	n := int(cu.U32())
	if !cu.Fits(n, elem) {
		return 0
	}
	return n
}

// Bytes returns the next n bytes as a view of the input.
func (cu *Cursor) Bytes(n int) []byte {
	if !cu.Fits(n, 1) {
		return nil
	}
	cu.off += n
	return cu.B[cu.off-n : cu.off]
}

// Str decodes a length-prefixed string (u32 length + raw bytes). It
// spells its bound out, where Bytes(Count(1)) would do, to stay inlinable.
func (cu *Cursor) Str() string {
	n := int(cu.U32())
	if cu.Bad || uint(n) > uint(len(cu.B)-cu.off) {
		cu.Bad = true
		return ""
	}
	cu.off += n
	return string(cu.B[cu.off-n : cu.off])
}

// Rest returns the undecoded tail of the input.
func (cu *Cursor) Rest() []byte {
	if cu.Bad {
		return nil
	}
	return cu.B[cu.off:]
}

// Err is the one check at the end of a decode: nil when every read was
// in bounds and the input was consumed exactly, else the caller's typed
// error. A decoder that hands Rest to another decoder leaves the check to
// that one.
func (cu *Cursor) Err(sentinel error) error {
	if cu.Bad || cu.off != len(cu.B) {
		return cu.fail(sentinel)
	}
	return nil
}

// fail composes Err's failure, out of line so that Err itself inlines.
func (cu *Cursor) fail(sentinel error) error {
	if cu.Bad {
		return fmt.Errorf("%w: truncated or oversized count (%d bytes)", sentinel, len(cu.B))
	}
	return fmt.Errorf("%w: %d bytes after the last field", sentinel, len(cu.B)-cu.off)
}
