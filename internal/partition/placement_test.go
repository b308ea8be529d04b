package partition

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// Placement round trip: a v3 blob carries the replica address lists
// bit-exactly, shards without replicas stay empty, and a table without
// placement still round-trips to HasPlacement() == false.
func TestPlacementRoundTrip(t *testing.T) {
	g := buildGraph(t)
	for _, strat := range []Strategy{Hash, DegreeBalanced} {
		p := SplitOpts(g, 4, strat, Options{})
		rt := p.RoutingTable()
		rt.SetEpoch(7)

		// No placement: section flag is written but empty.
		blob, err := rt.MarshalBinary()
		if err != nil {
			t.Fatalf("%v marshal: %v", strat, err)
		}
		got, err := UnmarshalRouting(blob)
		if err != nil {
			t.Fatalf("%v unmarshal: %v", strat, err)
		}
		if got.HasPlacement() {
			t.Fatalf("%v: placement materialized from nothing", strat)
		}
		if got.Placement(0) != nil {
			t.Fatalf("%v: Placement(0) = %v on a placement-free table", strat, got.Placement(0))
		}

		want := [][]string{
			{"127.0.0.1:9001", "127.0.0.1:9002"},
			{"127.0.0.1:9002"},
			{},
			{"host-with-a-longer-name.internal:12345"},
		}
		rt.SetPlacement(want)
		blob, err = rt.MarshalBinary()
		if err != nil {
			t.Fatalf("%v marshal with placement: %v", strat, err)
		}
		got, err = UnmarshalRouting(blob)
		if err != nil {
			t.Fatalf("%v unmarshal with placement: %v", strat, err)
		}
		if !got.HasPlacement() {
			t.Fatalf("%v: placement lost in round trip", strat)
		}
		for s := range want {
			g := got.Placement(s)
			if len(g) == 0 && len(want[s]) == 0 {
				continue
			}
			if !reflect.DeepEqual(g, want[s]) {
				t.Fatalf("%v shard %d: placement %v, want %v", strat, s, g, want[s])
			}
		}
		if got.Epoch() != 7 {
			t.Fatalf("%v: epoch %d after placement round trip", strat, got.Epoch())
		}

		// PatchEpoch still lands on the epoch field with the placement
		// section appended after the arrays.
		if err := PatchEpoch(blob, 42); err != nil {
			t.Fatalf("%v patch: %v", strat, err)
		}
		got, err = UnmarshalRouting(blob)
		if err != nil {
			t.Fatalf("%v unmarshal patched: %v", strat, err)
		}
		if got.Epoch() != 42 {
			t.Fatalf("%v: patched epoch %d, want 42", strat, got.Epoch())
		}
		if !reflect.DeepEqual(got.Placement(0), want[0]) {
			t.Fatalf("%v: patch corrupted placement: %v", strat, got.Placement(0))
		}
	}
}

// SetPlacement validates shape; hostile blobs with implausible replica
// counts or address lengths are rejected instead of driving allocations.
func TestPlacementBounds(t *testing.T) {
	g := buildGraph(t)
	rt := SplitOpts(g, 2, Hash, Options{}).RoutingTable()

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("mismatched placement length accepted")
			}
		}()
		rt.SetPlacement([][]string{{"a"}}) // 1 group for 2 shards
	}()

	rt.SetPlacement([][]string{{"a:1"}, {"b:2"}})
	blob, err := rt.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}

	// Forge the first replica count into something implausible. The count
	// field sits right after the table flag (Hash: no arrays) and the
	// placement flag.
	forged := append([]byte(nil), blob...)
	off := 5*4 + 8 + 4 + 4 // header + epoch + table flag + placement flag
	binary.LittleEndian.PutUint32(forged[off:], 1<<30)
	if _, err := UnmarshalRouting(forged); err == nil {
		t.Fatal("implausible replica count accepted")
	}

	// Forge the first address length past the limit.
	forged = append(forged[:0], blob...)
	binary.LittleEndian.PutUint32(forged[off+4:], 1<<20)
	if _, err := UnmarshalRouting(forged); err == nil {
		t.Fatal("implausible address length accepted")
	}

	// Truncate mid-address.
	if _, err := UnmarshalRouting(blob[:len(blob)-2]); err == nil {
		t.Fatal("truncated placement accepted")
	}
}
