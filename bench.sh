#!/usr/bin/env bash
# bench.sh — run the retrieval hot-path benchmarks and emit
# BENCH_hotpath.json, the perf trajectory future PRs compare against.
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

# Samples per bench; the JSON records the per-bench *minimum* ns/op —
# the noise-robust estimator on a shared 1-CPU box, where a single
# sample can swing either way by tens of percent (see the layout-noise
# note in ROADMAP.md). bench_compare.sh sets 3; the default 1 keeps
# ad-hoc trajectory runs fast.
COUNT="${BENCH_COUNT:-1}"

echo "== go vet ./... (tier-1 gate)" >&2
go vet ./...

# Which dense-kernel dispatch this machine runs (avx2 | purego) — the
# header names it so trajectories from different kernel sets are never
# compared blindly.
SIMD="$(go run ./cmd/graphgen -scale tiny | sed -n 's/^simd: //p')"
echo "== simd dispatch: $SIMD" >&2

echo "== hot-path benchmarks" >&2
go test -run '^$' -bench 'BenchmarkHotPath' -benchmem -count "$COUNT" . | tee -a "$TMP" >&2
# BenchmarkSampleNeighbors matches the Parallel (multi-core contention)
# and Batch (scatter-gather) variants.
go test -run '^$' -bench 'BenchmarkSampleNeighbors|BenchmarkSampleTree' -benchmem -count "$COUNT" ./internal/engine/ | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkFocalBiased|BenchmarkBuildTree' -benchmem -count "$COUNT" ./internal/sampling/ | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkServingEmbedding|BenchmarkEndToEndRequest|BenchmarkCacheRefresh' -benchmem -count "$COUNT" ./internal/serve/ | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkSearchInto|BenchmarkQuantizedScan|BenchmarkFullPrecisionScan' -benchmem -count "$COUNT" ./internal/ann/ | tee -a "$TMP" >&2
# The index build at the rig's retrieve shape (fixed iteration count — a
# build is ~0.3 s).
go test -run '^$' -bench 'BenchmarkIndexBuild' -benchtime 3x -benchmem -count "$COUNT" ./internal/ann/ | tee -a "$TMP" >&2
# The world build every benchmark workload brings up (ScaleLarge; fixed
# iteration count — a build is ~0.3 s).
go test -run '^$' -bench 'BenchmarkBuildLarge' -benchtime 3x -benchmem -count "$COUNT" ./internal/graphbuild/ | tee -a "$TMP" >&2
# Dense kernels behind the dispatch seam: the dispatched and generic
# variants side by side quantify the SIMD win at serving dims.
go test -run '^$' -bench 'BenchmarkDot|BenchmarkMatVec|BenchmarkAxpy' -benchmem -count "$COUNT" ./internal/tensor/ | tee -a "$TMP" >&2
# Remote graph store: loopback TCP round trip, scatter-gather batch
# (serial + concurrent callers on the shared multiplexed pool) and the
# multi-shard remote tree.
go test -run '^$' -bench 'BenchmarkRPCRoundTrip|BenchmarkRemoteBatch$|BenchmarkRemoteBatchParallel|BenchmarkRemoteTree' -benchmem -count "$COUNT" ./internal/rpc/ | tee -a "$TMP" >&2
# One 64-edge append over the 4 shards of 2 servers, no WAL (fixed
# iteration count — every append grows the delta overlays it lands in).
go test -run '^$' -bench 'BenchmarkRemoteAppend' -benchtime 1000x -benchmem -count "$COUNT" ./internal/rpc/ | tee -a "$TMP" >&2
# The bulk node read and what training gains from it: one scatter-gather
# attribute read (64 / 512 ids, 4 shards on 2 servers, 0 allocs/op), a
# 2-hop focal-biased ROI tree over the wire through a read set, and a
# whole 32-example training step over the in-memory graph and over the
# cluster (fixed iteration count — a step is ~0.1 s).
go test -run '^$' -bench 'BenchmarkRemoteReadNodes|BenchmarkBuildTreeRemote' -benchmem -count "$COUNT" ./internal/rpc/ 2>/dev/null | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkTrainStep' -benchtime 20x -benchmem -count "$COUNT" ./internal/rpc/ 2>/dev/null | tee -a "$TMP" >&2
# Failover latency: first draw after a replica kill (fixed iteration
# count — every iteration rebuilds a 2-server cluster outside the timer)
# and steady-state draws with one replica dead.
go test -run '^$' -bench 'BenchmarkFailoverFirstDraw' -benchtime 50x -count 1 ./internal/rpc/ 2>/dev/null | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkFailoverDeadReplica' -benchmem -count "$COUNT" ./internal/rpc/ 2>/dev/null | tee -a "$TMP" >&2
# Write path: WAL append throughput (fsync-batched group commit) and the
# delta layer — copy-on-write apply and post-compaction mixture draws.
go test -run '^$' -bench 'BenchmarkWALAppend' -benchmem -count "$COUNT" ./internal/ingest/ | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkDeltaApply|BenchmarkDeltaSample' -benchmem -count "$COUNT" ./internal/engine/ | tee -a "$TMP" >&2
go test -run '^$' -bench 'BenchmarkAblationAlias' -benchmem -count "$COUNT" . | tee -a "$TMP" >&2

# Fold "BenchmarkName  N  x ns/op  y B/op  z allocs/op" lines into JSON,
# keeping the minimum ns/op per bench across the $COUNT samples (B/op
# and allocs/op are deterministic; the fastest sample's values ride
# along). The header records GOMAXPROCS and the machine CPU count so
# multi-core and 1-CPU trajectories are distinguishable across boxes.
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
    if (ns == "") next
    if (!(name in min_ns)) {
        order[++n] = name
    } else if (ns + 0 >= min_ns[name] + 0) {
        next
    }
    min_ns[name] = ns; min_b[name] = bytes; min_a[name] = allocs
}
END {
    print "{"
    printf "  \"generated\": \"%s\",\n  \"gomaxprocs\": %d,\n  \"num_cpu\": %d,\n  \"simd\": \"%s\",\n  \"benchmarks\": {\n", date, procs, cpus, simd
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}%s\n", \
            name, min_ns[name], (min_b[name] == "" ? "null" : min_b[name]), \
            (min_a[name] == "" ? "null" : min_a[name]), (i < n ? "," : "")
    }
    print "  }\n}"
}
' "$TMP" > "$OUT.new"

mv "$OUT.new" "$OUT"

echo "wrote $OUT" >&2
