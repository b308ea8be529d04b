// Command zoomer-shard runs one graph shard server: it builds (or loads)
// the graph, partitions it, precomputes alias tables for the shards it
// owns, and serves them over TCP with the internal/rpc protocol — the
// server side of the paper's distributed graph engine (§VI). A serving
// tier started with the same world parameters connects with
// zoomer-gateway -remote, a trainer with zoomer-train -remote.
//
// Usage (a two-server cluster over four partitions):
//
//	zoomer-shard -scale small -seed 1 -shards 4 -own 0,1 -listen :7001 &
//	zoomer-shard -scale small -seed 1 -shards 4 -own 2,3 -listen :7002 &
//	zoomer-gateway -scale small -seed 1 -remote localhost:7001,localhost:7002
//
// With -graph the graph is loaded from a compact binary file (graphgen
// -out) instead of regenerated, so every server — and the serving tier —
// is guaranteed the identical graph.
//
// The wire protocol (rpc.ProtocolVersion) multiplexes many in-flight
// requests per connection. A client that speaks the old
// one-request-per-connection protocol is rejected loudly at the preface
// handshake.
//
// # Durable ingestion
//
// With -wal-dir the server journals every accepted graph-append to a
// per-shard write-ahead log under that directory and replays it on
// startup (and on admin acquire), so a crash — kill -9 included — loses
// nothing that was acknowledged. -fsync (default true) syncs each
// group-committed batch before acknowledging; with -fsync=false
// durability is bounded by the OS page cache (a process crash still
// loses nothing; a machine crash loses the tail):
//
//	zoomer-shard -own 0,1 -listen :7001 -wal-dir /var/lib/zoomer/wal
//
// Without -wal-dir appends are accepted into the in-memory delta layer
// only — durability then rests on replica-group siblings.
//
// # Replicas and dynamic membership
//
// With -advertise the server announces a reachable address to the
// cluster: its routing-epoch replies carry the member list, so a serving
// tier discovers it on its next refresh even when dialed before it
// existed, and its appends fan out to its replica siblings. -join names any live member to
// announce to at startup — the one step that makes a freshly started
// server discoverable:
//
//	zoomer-shard -own 0,1 -listen :7003 -advertise localhost:7003 -join localhost:7001
//
// Multiple servers may own the same partitions at once (N-way replicas):
// a serving tier spreads reads across all of them and fails over
// transparently when one dies.
//
// # Admin mode: live shard handoff
//
// With -admin the binary acts as an admin client to a running server
// instead of serving itself: -acquire/-release send reassign commands
// that move partitions in and out of the server's served set at runtime,
// and -status prints the server's routing epoch, owned partitions and
// member view. To migrate partition 1 from the :7001 server to the
// :7002 server with zero downtime, acquire on the destination before
// draining the source:
//
//	zoomer-shard -admin localhost:7002 -acquire 1
//	zoomer-shard -admin localhost:7001 -release 1
//
// Admin operations are deadline-bounded: the target server is probed
// with three short-deadline attempts (backing off between them) before
// any command is sent, so an unreachable server fails
// within seconds instead of hanging. Exit codes: 0 success, 1 command
// refused/failed, 2 usage error, 3 server unreachable within the
// deadline (rpc.ErrAdminDeadline).
//
// A serving tier attached with zoomer-gateway -remote follows the move on
// its own: the first request that hits the drained server is answered
// with a wrong-epoch redirect, the tier re-resolves ownership across its
// servers and retries — no restart, no failed requests, bit-identical
// draws (see docs/OPERATIONS.md for the full runbook).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zoomer/internal/core"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rpc"
)

func main() {
	listen := flag.String("listen", ":7001", "TCP address to serve on")
	graphFile := flag.String("graph", "", "load the graph from this binary file instead of generating")
	scale := flag.String("scale", "small", "generated world size: tiny | small | medium | large")
	seed := flag.Uint64("seed", 1, "world seed (must match the serving tier's)")
	shards := flag.Int("shards", 4, "total graph partitions")
	own := flag.String("own", "", "comma-separated shard ids this server owns (default: all)")
	strategy := flag.String("partition", "hash", "node-to-shard assignment: hash | degree-balanced")
	walDir := flag.String("wal-dir", "", "journal graph-appends to per-shard WALs under this directory (replayed on startup)")
	fsync := flag.Bool("fsync", true, "with -wal-dir: fsync each group-committed append before acknowledging")
	advertise := flag.String("advertise", "", "address to announce to the cluster (enables membership + append fan-out)")
	join := flag.String("join", "", "comma-separated addresses of live cluster members to announce to at startup (requires -advertise)")
	admin := flag.String("admin", "", "admin mode: address of a running zoomer-shard to command instead of serving")
	acquire := flag.String("acquire", "", "comma-separated partition ids the -admin server should acquire")
	release := flag.String("release", "", "comma-separated partition ids the -admin server should drain")
	status := flag.Bool("status", false, "with -admin: print the server's routing epoch, owned partitions and member view")
	adminTimeout := flag.Duration("admin-timeout", 5*time.Minute,
		"per-command deadline in admin mode (an acquire blocks while the server builds the partition's alias tables)")
	flag.Parse()

	if *admin != "" {
		os.Exit(runAdmin(*admin, *acquire, *release, *status, *adminTimeout))
	}
	if *acquire != "" || *release != "" || *status {
		fmt.Fprintln(os.Stderr, "-acquire/-release/-status require -admin <addr>")
		os.Exit(2)
	}
	if *join != "" && *advertise == "" {
		fmt.Fprintln(os.Stderr, "-join requires -advertise (the address to announce)")
		os.Exit(2)
	}

	strat, err := partition.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	owned, err := parseOwned(*own, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var g *graph.Graph
	if *graphFile != "" {
		f, err := os.Open(*graphFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		g, err = graph.Read(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "loading %s: %v\n", *graphFile, err)
			os.Exit(1)
		}
		fmt.Printf("loaded graph from %s: %d nodes, %d edges\n", *graphFile, g.NumNodes(), g.NumEdges())
	} else {
		sc, err := loggen.ParseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("building world (scale %s, seed %d)...\n", *scale, *seed)
		g = core.BuildWorld(loggen.TaobaoConfig(sc, *seed)).Graph
	}

	// The cluster's layout is decided here and nowhere else: clients take
	// it from the routing table. Every server renumbers its shards' rows
	// in BFS order, so the layout is -shards and -partition alone.
	fmt.Printf("partitioning into %d shards (%s) and building alias tables...\n", *shards, strat)
	srv := rpc.NewServer(g, rpc.ServerConfig{
		Shards:    *shards,
		Strategy:  strat,
		Owned:     owned,
		Locality:  true,
		Advertise: *advertise,
		WALDir:    *walDir,
		Fsync:     *fsync,
	})
	if err := srv.ListenAndServe(*listen); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("serving shards %v of %d on %s\n", srv.OwnedShards(), *shards, srv.Addr())
	if *walDir != "" {
		for _, st := range srv.IngestStats() {
			if st.Seq > 0 {
				fmt.Printf("  shard %d WAL replayed to seq %d (%d delta edges, %d segments)\n",
					st.Shard, st.Seq, st.DeltaEdges, st.WALSegments)
			}
		}
		fmt.Printf("journaling appends under %s (fsync %v)\n", *walDir, *fsync)
	}
	if *join != "" {
		for _, peer := range strings.Split(*join, ",") {
			peer = strings.TrimSpace(peer)
			if peer == "" {
				continue
			}
			if err := srv.AnnounceTo(peer, 0); err != nil {
				fmt.Fprintf(os.Stderr, "join: %v (continuing; clients dialing %s directly still work)\n", err, *advertise)
				continue
			}
			fmt.Printf("announced %s to cluster member %s\n", *advertise, peer)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	srv.Close()
}

// parseIDList parses a comma-separated partition id list.
func parseIDList(flagName, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var ids []int
	for _, f := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %v", flagName, f, err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// parseOwned parses -own against -shards, before the world is built:
// nil means every partition, and an id outside [0, shards) or a shards
// below 1 is an error naming the flag.
func parseOwned(own string, shards int) ([]int, error) {
	if shards < 1 {
		return nil, fmt.Errorf("-shards %d: need at least 1 partition", shards)
	}
	owned, err := parseIDList("-own", own)
	if err != nil {
		return nil, err
	}
	for _, id := range owned {
		if id < 0 || id >= shards {
			return nil, fmt.Errorf("bad -own entry %d: partition ids run 0..%d with -shards %d", id, shards-1, shards)
		}
	}
	return owned, nil
}

// runAdmin drives a running shard server: acquire partitions first, then
// drain (the order a zero-downtime handoff needs when both lists target
// the same server), then report status. The server is probed with
// short-deadline attempts before any command goes out, so an
// unreachable server fails within seconds (exit code 3, typed
// rpc.ErrAdminDeadline) instead of hanging for the operation deadline —
// which stays generous, covering the server-side alias-table build an
// acquire blocks on. Returns the process exit code.
func runAdmin(addr, acquire, release string, status bool, timeout time.Duration) int {
	acq, err := parseIDList("-acquire", acquire)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rel, err := parseIDList("-release", release)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if len(acq) == 0 && len(rel) == 0 && !status {
		fmt.Fprintln(os.Stderr, "-admin needs -acquire, -release or -status")
		return 2
	}
	code := func(err error) int {
		if errors.Is(err, rpc.ErrAdminDeadline) {
			return 3
		}
		return 1
	}
	adm := rpc.NewAdmin(addr, timeout)
	defer adm.Close()
	for _, id := range acq {
		epoch, err := adm.Reassign(id, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "acquire %d on %s: %v\n", id, addr, err)
			return code(err)
		}
		fmt.Printf("%s acquired partition %d (routing epoch %d)\n", addr, id, epoch)
	}
	for _, id := range rel {
		epoch, err := adm.Reassign(id, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "release %d on %s: %v\n", id, addr, err)
			return code(err)
		}
		fmt.Printf("%s drained partition %d (routing epoch %d)\n", addr, id, epoch)
	}
	if status {
		epoch, owned, members, err := adm.Status()
		if err != nil {
			fmt.Fprintf(os.Stderr, "status of %s: %v\n", addr, err)
			return code(err)
		}
		fmt.Printf("%s routing epoch %d, %d partitions:\n", addr, epoch, len(owned))
		for _, sh := range owned {
			fmt.Printf("  partition %d: %d nodes, %d edges\n", sh.ID, sh.Nodes, sh.Edges)
			if ing := sh.Ingest; ing != nil && ing.Seq > 0 {
				fmt.Printf("    ingest: seq %d, %d delta edges over %d nodes, %d run merges, %d WAL segments, %d fsyncs\n",
					ing.Seq, ing.DeltaEdges, ing.DeltaNodes, ing.Compactions, ing.WALSegments, ing.Fsyncs)
			}
		}
		if len(members) > 0 {
			fmt.Printf("  members: %s\n", strings.Join(members, ", "))
		}
	}
	return 0
}
