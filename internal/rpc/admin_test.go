package rpc

import (
	"errors"
	"net"
	"testing"
	"time"
)

// An admin session against an unreachable server fails within its
// probe budget with the typed deadline error — never hanging for the
// generous operation timeout.
func TestAdminDeadlineTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close() // reserve a dead address

	adm := NewAdmin(addr, time.Minute)
	t.Cleanup(func() { adm.Close() })
	start := time.Now()
	_, err = adm.Reassign(0, true)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("reassign against a dead address succeeded")
	}
	if !errors.Is(err, ErrAdminDeadline) {
		t.Fatalf("error %v does not match ErrAdminDeadline", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("deadline took %v, want 3 refused probes and 750ms of backoff", elapsed)
	}
}

// The happy path: reassign moves a partition in and out of the served
// set, and status reports the epoch, owned partitions and member view.
func TestAdminReassignAndStatus(t *testing.T) {
	g := buildGraph(t)
	_, addr := startReplicaServer(t, g, 2, []int{0})
	adm := NewAdmin(addr, 5*time.Minute)
	t.Cleanup(func() { adm.Close() })

	epoch0, owned, members, err := adm.Status()
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if len(owned) != 1 || owned[0].ID != 0 {
		t.Fatalf("initial owned set %+v, want partition 0 only", owned)
	}
	if len(members) != 1 || members[0] != addr {
		t.Fatalf("member view %v, want [%s]", members, addr)
	}

	epoch1, err := adm.Reassign(1, true)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if epoch1 <= epoch0 {
		t.Fatalf("acquire did not bump the epoch (%d → %d)", epoch0, epoch1)
	}
	if _, owned, _, err = adm.Status(); err != nil || len(owned) != 2 {
		t.Fatalf("owned set after acquire %+v (err %v), want 2 partitions", owned, err)
	}

	epoch2, err := adm.Reassign(1, false)
	if err != nil {
		t.Fatalf("release: %v", err)
	}
	if epoch2 <= epoch1 {
		t.Fatalf("release did not bump the epoch (%d → %d)", epoch1, epoch2)
	}
	if _, owned, _, err = adm.Status(); err != nil || len(owned) != 1 {
		t.Fatalf("owned set after release %+v (err %v), want 1 partition", owned, err)
	}
}
