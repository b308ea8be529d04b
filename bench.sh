#!/usr/bin/env bash
# bench.sh — run the retrieval hot-path benchmarks and emit
# BENCH_hotpath.json, a snapshot for the perf trajectory across PRs.
# The gate is bench_compare.sh, which compares against the parent,
# paired, and reads no JSON.
#
# Usage: ./bench.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")"

OUT="${1:-BENCH_hotpath.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# Pin GOMAXPROCS so the -N suffix go test appends to benchmark names is
# known exactly (cgroup limits can make Go's effective value differ from
# nproc), keeping JSON keys stable across environments.
export GOMAXPROCS="${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)}"

echo "== go vet ./... (tier-1 gate)" >&2
go vet ./...

# Which dense-kernel dispatch this machine runs (avx2 | purego) — the
# header names it so trajectories from different kernel sets are never
# compared blindly.
SIMD="$(go run ./cmd/graphgen -scale tiny | sed -n 's/^simd: //p')"
echo "== simd dispatch: $SIMD" >&2

echo "== hot-path benchmarks" >&2
go test -run '^$' -bench 'BenchmarkHotPath' -benchmem . | tee -a "$TMP" >&2
# BenchmarkSampleNeighbors matches the Parallel (multi-core contention)
# and Batch (scatter-gather) variants.
go test -run '^$' -bench 'BenchmarkSampleNeighbors|BenchmarkSampleTree' -benchmem ./internal/engine/ | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkFocalBiased|BenchmarkBuildTree' -benchmem ./internal/sampling/ | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkServingEmbedding|BenchmarkEndToEndRequest|BenchmarkCacheRefresh' -benchmem ./internal/serve/ | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkSearchInto|BenchmarkCoarseScan' -benchmem ./internal/ann/ | tee -a "$TMP" >&2
# The index build at the rig's retrieve shape (fixed iteration count — a
# build is ~0.3 s).
go test -run '^$' -bench 'BenchmarkIndexBuild' -benchtime 3x -benchmem ./internal/ann/ | tee -a "$TMP" >&2
# The world build every benchmark workload brings up (ScaleLarge; fixed
# iteration count — a build is ~0.3 s).
go test -run '^$' -bench 'BenchmarkBuildLarge' -benchtime 3x -benchmem ./internal/graphbuild/ | tee -a "$TMP" >&2
# Dense kernels behind the dispatch seam: the dispatched and generic
# variants side by side quantify the SIMD win at serving dims.
go test -run '^$' -bench 'BenchmarkDot|BenchmarkMatVec|BenchmarkAxpy' -benchmem ./internal/tensor/ | tee -a "$TMP" >&2
# Remote graph store: loopback TCP round trip, scatter-gather batch
# (serial + concurrent callers on the shared multiplexed pool) and the
# multi-shard remote tree.
go test -run '^$' -bench 'BenchmarkRPCRoundTrip|BenchmarkRemoteBatch$|BenchmarkRemoteBatchParallel|BenchmarkRemoteTree' -benchmem ./internal/rpc/ | tee -a "$TMP" >&2
# One 64-edge append over the 4 shards of 2 servers, no WAL (fixed
# iteration count — every append grows the delta overlays it lands in).
go test -run '^$' -bench 'BenchmarkRemoteAppend' -benchtime 1000x -benchmem ./internal/rpc/ | tee -a "$TMP" >&2
# The bulk node read and what training gains from it: one scatter-gather
# attribute read (64 / 512 ids, 4 shards on 2 servers, 0 allocs/op), a
# 2-hop focal-biased ROI tree over the wire through a read set, and a
# whole 32-example training step over the in-memory graph and over the
# cluster (fixed iteration count — a step is ~0.1 s).
go test -run '^$' -bench 'BenchmarkRemoteReadNodes|BenchmarkBuildTreeRemote' -benchmem ./internal/rpc/ 2>/dev/null | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkTrainStep' -benchtime 20x -benchmem ./internal/rpc/ 2>/dev/null | tee -a "$TMP" >&2
# Failover latency: first draw after a replica kill (fixed iteration
# count — every iteration rebuilds a 2-server cluster outside the timer)
# and steady-state draws with one replica dead.
go test -run '^$' -bench 'BenchmarkFailoverFirstDraw' -benchtime 50x ./internal/rpc/ 2>/dev/null | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkFailoverDeadReplica' -benchmem ./internal/rpc/ 2>/dev/null | tee -a "$TMP" >&2
# Write path: WAL append throughput (fsync-batched group commit) and the
# delta layer — copy-on-write apply and post-compaction mixture draws.
go test -run '^$' -bench 'BenchmarkWALAppend' -benchmem ./internal/ingest/ | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkDeltaApply|BenchmarkDeltaSample' -benchmem ./internal/engine/ | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkAblationAlias' -benchmem . | tee -a "$TMP" >&2

# Fold "BenchmarkName  N  x ns/op  y B/op  z allocs/op" lines into JSON,
# one sample per bench. A single sample on a shared box can swing by
# tens of percent either way (see the layout-noise note in ROADMAP.md),
# so the file is a trajectory, not a baseline. The header records
# GOMAXPROCS and the machine CPU count so multi-core and 1-CPU
# trajectories are distinguishable across boxes.
NUM_CPU="$(nproc 2>/dev/null || echo 1)"
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v procs="$GOMAXPROCS" -v cpus="$NUM_CPU" -v simd="$SIMD" '
/^Benchmark/ {
    name = $1
    # go test appends -GOMAXPROCS only when it exceeds 1; strip exactly it
    # so subtest suffixes like alias-deg-256 survive.
    if (procs > 1) sub("-" procs "$", "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "" || name in ns_of) next
    order[++n] = name
    ns_of[name] = ns; b_of[name] = bytes; a_of[name] = allocs
}
END {
    print "{"
    printf "  \"generated\": \"%s\",\n  \"gomaxprocs\": %d,\n  \"num_cpu\": %d,\n  \"simd\": \"%s\",\n  \"benchmarks\": {\n", date, procs, cpus, simd
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}%s\n", \
            name, ns_of[name], (b_of[name] == "" ? "null" : b_of[name]), \
            (a_of[name] == "" ? "null" : a_of[name]), (i < n ? "," : "")
    }
    print "  }\n}"
}
' "$TMP" > "$OUT.new"

mv "$OUT.new" "$OUT"

echo "wrote $OUT" >&2
