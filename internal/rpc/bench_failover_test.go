package rpc

import (
	"testing"
	"time"

	"zoomer/internal/graph"
	"zoomer/internal/rng"
)

// BenchmarkFailoverFirstDraw times the caller-visible failover latency:
// one replica of a warm 2-replica cluster is killed and the timed
// region is the first single draw after the kill — dead-connection
// detection plus the retry on the surviving sibling. Setup (servers,
// dial, warm-up) is rebuilt outside the timer each iteration.
func BenchmarkFailoverFirstDraw(b *testing.B) {
	Logf = func(string, ...any) {} // refresh skip-logging would corrupt -bench output parsing
	g := buildGraph(b)
	all := []int{0, 1}
	out := make([]graph.NodeID, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srvA, addrA := startReplicaServer(b, g, 2, all)
		_, addrB := startReplicaServer(b, g, 2, all)
		cluster, err := DialCluster(addrA, addrB)
		if err != nil {
			b.Fatal(err)
		}
		cluster.SetPollTimeout(time.Second)
		r := rng.New(uint64(i) + 1)
		var ego graph.NodeID
		for id := 0; id < g.NumNodes(); id++ {
			if g.Degree(graph.NodeID(id)) >= 5 {
				ego = graph.NodeID(id)
				break
			}
		}
		// Warm both replicas' connections so the timed draw pays only for
		// the failure, not a first dial.
		for w := 0; w < 4; w++ {
			if _, err := cluster.Engine.TrySampleNeighborsIntoBy(ego, out, r, time.Time{}); err != nil {
				b.Fatal(err)
			}
		}
		srvA.Close()
		b.StartTimer()
		if _, err := cluster.Engine.TrySampleNeighborsIntoBy(ego, out, r, time.Time{}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cluster.Close()
		b.StartTimer()
	}
}

// BenchmarkFailoverDeadReplica measures steady-state single draws while
// one of two replicas stays dead — after the circuit has opened and the
// background refresh has rebound the group, i.e. the per-call price of
// serving through an outage (it should sit at the healthy round-trip
// figure, not pay a failed dial per call).
func BenchmarkFailoverDeadReplica(b *testing.B) {
	Logf = func(string, ...any) {} // refresh skip-logging would corrupt -bench output parsing
	g := buildGraph(b)
	all := []int{0, 1}
	srvA, addrA := startReplicaServer(b, g, 2, all)
	_, addrB := startReplicaServer(b, g, 2, all)
	cluster, err := DialCluster(addrA, addrB)
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	cluster.SetPollTimeout(time.Second)
	remote := cluster.Engine
	var ego graph.NodeID
	for id := 0; id < g.NumNodes(); id++ {
		if g.Degree(graph.NodeID(id)) >= 5 {
			ego = graph.NodeID(id)
			break
		}
	}
	r := rng.New(1)
	out := make([]graph.NodeID, 10)
	srvA.Close()
	// Drive the transition: first draws pay the failover, open the dead
	// replica's circuit and kick the refresh that drops it from the
	// group; then settle.
	for w := 0; w < 64; w++ {
		if _, err := remote.TrySampleNeighborsIntoBy(ego, out, r, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := remote.TrySampleNeighborsIntoBy(ego, out, r, time.Time{}); err != nil {
			b.Fatal(err)
		}
	}
}
