package rpc

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/partition"
)

// The circuit opens after failThreshold consecutive transport failures,
// refuses calls typed while open, and closes again the moment a probe
// reaches a server restarted on the same address.
func TestCircuitAcrossServerRestart(t *testing.T) {
	g := buildGraph(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	srv := NewServer(g, ServerConfig{Shards: 2, Strategy: partition.Hash})
	srv.Start(ln)

	cl := newClient(addr, ClientConfig{conns: 1, Timeout: 500 * time.Millisecond, failThreshold: 3})
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.Info(); err != nil {
		t.Fatalf("warm info: %v", err)
	}
	if !cl.Healthy() {
		t.Fatal("healthy client reports unhealthy")
	}

	srv.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Info(); err == nil {
			t.Fatalf("call %d against dead server succeeded", i)
		}
	}
	if cl.Healthy() {
		t.Fatal("circuit did not open after threshold failures")
	}
	if _, err := cl.Info(); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("open-circuit call error %v, want ErrShardUnavailable", err)
	}

	// Restart on the same address: the next call is admitted as the
	// probe, reaches the new server and closes the circuit.
	var ln2 net.Listener
	for i := 0; i < 40; i++ {
		if ln2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2 := NewServer(g, ServerConfig{Shards: 2, Strategy: partition.Hash})
	srv2.Start(ln2)
	t.Cleanup(func() { srv2.Close() })

	if _, err := cl.Info(); err != nil {
		t.Fatalf("probe against restarted server: %v", err)
	}
	if !cl.Healthy() {
		t.Fatal("circuit did not close after a successful probe")
	}
}

// An idle circuit decays to half-open: after breakerDecay with no
// traffic Healthy flips back, and the next call is the probe — a failed
// probe re-opens the circuit at once instead of restarting the count.
func TestCircuitIdleDecay(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close() // reserve a dead address

	cl := newClient(addr, ClientConfig{conns: 1, Timeout: 200 * time.Millisecond, failThreshold: 2})
	t.Cleanup(func() { cl.Close() })
	for i := 0; i < 2; i++ {
		if _, err := cl.Info(); err == nil {
			t.Fatal("call against dead address succeeded")
		}
	}
	if cl.Healthy() {
		t.Fatal("circuit did not open")
	}

	time.Sleep(breakerDecay + 100*time.Millisecond)
	if !cl.Healthy() {
		t.Fatal("idle circuit did not decay")
	}

	// The half-open circuit admits one probe; its failure re-opens the
	// circuit for another breakerDecay.
	if _, err := cl.Info(); err == nil {
		t.Fatal("call against dead address succeeded after decay")
	}
	if cl.Healthy() {
		t.Fatal("a failed post-decay probe left the circuit closed")
	}
}

// While the circuit is open, concurrent callers adopt one probe's
// outcome instead of dialing per caller: a stalled server costs the
// fleet one probe (bounded by the call timeout), and every waiter fails
// typed without ever touching the network.
func TestCircuitWaiterAdoption(t *testing.T) {
	bh := startBlackhole(t, "127.0.0.1:0")
	t.Cleanup(bh.kill)
	addr := bh.ln.Addr().String()
	accepts := func() int {
		bh.mu.Lock()
		defer bh.mu.Unlock()
		return len(bh.conns)
	}

	cl := newClient(addr, ClientConfig{conns: 1, Timeout: 250 * time.Millisecond, failThreshold: 1})
	t.Cleanup(func() { cl.Close() })
	if _, err := cl.Info(); err == nil {
		t.Fatal("call against blackhole succeeded")
	}
	if cl.Healthy() {
		t.Fatal("circuit did not open at threshold 1")
	}
	before := accepts()

	const callers = 16
	var (
		wg    sync.WaitGroup
		typed atomic.Int64
	)
	start := time.Now()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := cl.Info()
			if errors.Is(err, ErrShardUnavailable) {
				typed.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	if got := typed.Load(); got != callers {
		t.Fatalf("%d/%d waiters failed typed", got, callers)
	}
	// Unguarded, 16 callers × 2 dial attempts would land 32 connections.
	// Waiter adoption bounds it to the probe's attempts (plus at most a
	// couple of stragglers that became the next probe).
	if dialed := accepts() - before; dialed > 6 {
		t.Fatalf("%d connections dialed by %d callers behind an open circuit", dialed, callers)
	}
	// And nobody serialized behind per-caller timeouts.
	if elapsed > 4*250*time.Millisecond {
		t.Fatalf("waiters took %v, want ≈ one probe timeout", elapsed)
	}
}
