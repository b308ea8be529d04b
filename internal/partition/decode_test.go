package partition

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

// checkUnmarshal is the one property of the routing-blob decoder: it
// never panics, allocates no more than a constant factor of its input,
// fails only with ErrCorruptRouting or ErrRoutingVersion, and what it
// accepts MarshalBinary writes back byte for byte. It returns
// UnmarshalRouting's error.
func checkUnmarshal(t *testing.T, blob []byte) error {
	t.Helper()
	var r *Routing
	var err error
	if n := allocatedBy(func() { r, err = UnmarshalRouting(blob) }); n > 1<<16+8*uint64(len(blob)) {
		t.Fatalf("allocated %d bytes decoding a %d-byte blob", n, len(blob))
	}
	if err != nil {
		if !errors.Is(err, ErrCorruptRouting) && !errors.Is(err, ErrRoutingVersion) {
			t.Fatalf("untyped error: %v", err)
		}
		return err
	}
	if again, err := r.MarshalBinary(); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("accepted blob does not re-encode to itself (%v)", err)
	}
	return nil
}

// Field offsets of a marshaled blob; the owner table of tableBlob starts
// at offTable+4.
const (
	offVersion  = 4
	offStrategy = 8
	offShards   = 12
	offNodes    = 16
	offTable    = 28
)

func mustMarshal(t testing.TB, r *Routing) []byte {
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// tableBlob is a three-node degree-balanced table over two shards;
// hashBlob a hash table over 2^20 nodes, which carries no arrays.
func tableBlob(t testing.TB) []byte {
	return mustMarshal(t, &Routing{strategy: DegreeBalanced, shards: 2, numNodes: 3, epoch: 5,
		owner: []int32{0, 1, 0}, local: []int32{0, 0, 1}})
}

func hashBlob(t testing.TB) []byte {
	return mustMarshal(t, &Routing{strategy: Hash, shards: 2, numNodes: 1 << 20, epoch: 1 << 40})
}

// corruptBlobs are inputs UnmarshalRouting must refuse with
// ErrCorruptRouting.
func corruptBlobs(t testing.TB) map[string][]byte {
	patch := func(blob []byte, off int, v uint32) []byte {
		binary.LittleEndian.PutUint32(blob[off:], v)
		return blob
	}
	return map[string][]byte{
		"bad magic":               patch(tableBlob(t), 0, 7),
		"unknown strategy":        patch(tableBlob(t), offStrategy, 2),
		"strategy 256":            patch(tableBlob(t), offStrategy, 256), // Hash once narrowed to a byte
		"zero shards":             patch(hashBlob(t), offShards, 0),
		"shard count below owner": patch(tableBlob(t), offShards, 1),
		"lying numNodes":          patch(tableBlob(t), offNodes, 1<<30),
		"lying table flag":        patch(hashBlob(t), offTable, 1),
		"table flag 2":            patch(tableBlob(t), offTable, 2),
		"owner out of range":      patch(tableBlob(t), offTable+4, 2),
		"owner with the high bit": patch(tableBlob(t), offTable+4, 1<<31),
		"trailing byte":           append(tableBlob(t), 0),
	}
}

// A routing blob is sized from its bytes: every corrupt row and every
// truncation of a valid blob fails typed in under 1 MiB (checkUnmarshal's
// bound for inputs this small), version skew keeps its own sentinel, and
// a valid blob round-trips byte-identically.
func TestUnmarshalBoundsAndTypes(t *testing.T) {
	hash := mustMarshal(t, &Routing{strategy: Hash, shards: 4, numNodes: 99})
	for _, blob := range [][]byte{hash, tableBlob(t), hashBlob(t)} {
		if err := checkUnmarshal(t, blob); err != nil {
			t.Fatalf("valid blob refused: %v", err)
		}
		for cut := 0; cut < len(blob); cut++ {
			if checkUnmarshal(t, blob[:cut]) == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(blob))
			}
		}
	}
	for name, blob := range corruptBlobs(t) {
		if err := checkUnmarshal(t, blob); !errors.Is(err, ErrCorruptRouting) {
			t.Errorf("%s: got %v, want ErrCorruptRouting", name, err)
		}
	}
	skewed := tableBlob(t)
	binary.LittleEndian.PutUint32(skewed[offVersion:], routingVersion+1)
	if err := checkUnmarshal(t, skewed); !errors.Is(err, ErrRoutingVersion) || errors.Is(err, ErrCorruptRouting) {
		t.Fatalf("version skew: got %v, want ErrRoutingVersion alone", err)
	}
}

// FuzzUnmarshalRouting: checkUnmarshal over arbitrary bytes, seeded from
// real MarshalBinary output, the corrupt rows and two version-skewed
// blobs. The checked-in corpus keeps its format-v3 entries, written when
// the blob carried a replica-placement section: each must now fail as
// version skew.
func FuzzUnmarshalRouting(f *testing.F) {
	f.Add(mustMarshal(f, &Routing{strategy: Hash, shards: 4, numNodes: 99}))
	f.Add(tableBlob(f))
	f.Add(hashBlob(f))
	for _, blob := range corruptBlobs(f) {
		f.Add(blob)
	}
	for _, v := range []uint32{3, routingVersion + 1} {
		skewed := tableBlob(f)
		binary.LittleEndian.PutUint32(skewed[offVersion:], v)
		f.Add(skewed)
	}
	f.Fuzz(func(t *testing.T, blob []byte) { checkUnmarshal(t, blob) })
}
