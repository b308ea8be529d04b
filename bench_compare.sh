#!/usr/bin/env bash
# bench_compare.sh — re-run the benchmark suite and fail if any hot-path
# bench (BenchmarkHotPath*) regresses more than 20% in ns/op against the
# committed BENCH_hotpath.json, or stops being allocation-free. The
# remote RPC benches (BenchmarkRPCRoundTrip, BenchmarkRemote*) are gated
# too, at a looser threshold (RPC_THRESH, default 1.60) because loopback
# numbers on small containers carry scheduler noise; their allocation
# behavior is pinned by TestRemoteHotPathDoesNotAllocate instead of here.
#
# The dense-kernel benches (BenchmarkDot*, BenchmarkMatVec*,
# BenchmarkAxpy*, and BenchmarkCoarseScan, the ANN coarse scan) are gated
# at the same default threshold and must stay allocation-free — a kernel
# that silently falls back to a slower path or starts allocating fails
# here. Comparison is refused outright when the baseline was recorded
# under a different simd dispatch or on a box with a different CPU count
# than the current run.
#
# Noise handling, in two layers (this container's scheduler/timer noise
# can swing an untouched bench 0.6x-1.6x between single samples):
#   1. The suite runs BENCH_COUNT (default 3) samples per bench and
#      bench.sh folds the per-bench minimum into the JSON.
#   2. Benches still over threshold get one second-chance pass: each is
#      re-measured in isolation (its 3 samples no longer back-to-back
#      with the original noise burst) and the minimum is merged before
#      the final verdict. A genuine regression is slow in every sample
#      of both passes; correlated noise is not. Allocation failures are
#      deterministic and are never retried.
#
# Usage: ./bench_compare.sh [baseline.json]
#        (env THRESH=1.20 RPC_THRESH=1.60 KERNEL_THRESH=1.20
#         BENCH_COUNT=3 to tune)
set -euo pipefail
cd "$(dirname "$0")"

BASE="${1:-BENCH_hotpath.json}"
THRESH="${THRESH:-1.20}"
RPC_THRESH="${RPC_THRESH:-1.60}"
KERNEL_THRESH="${KERNEL_THRESH:-1.20}"
export GOMAXPROCS="${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)}"
if [ ! -f "$BASE" ]; then
    echo "error: baseline $BASE not found (run ./bench.sh first)" >&2
    exit 1
fi
command -v python3 >/dev/null || { echo "error: python3 required" >&2; exit 1; }

NOW="$(mktemp /tmp/bench_now.XXXXXX.json)"
FLAGGED="$(mktemp /tmp/bench_flagged.XXXXXX)"
RETRY="$(mktemp /tmp/bench_retry.XXXXXX)"
trap 'rm -f "$NOW" "$FLAGGED" "$RETRY"' EXIT
BENCH_COUNT="${BENCH_COUNT:-3}" ./bench.sh "$NOW"

# compare <now.json> <flagged-out|/dev/null>: prints the verdict table;
# writes ratio-regressed (retryable) bench names one per line.
compare() {
    python3 - "$BASE" "$1" "$THRESH" "$RPC_THRESH" "$KERNEL_THRESH" "$2" <<'PY'
import json, sys

base_path, now_path = sys.argv[1], sys.argv[2]
thresh, rpc_thresh, kernel_thresh = float(sys.argv[3]), float(sys.argv[4]), float(sys.argv[5])
flagged_path = sys.argv[6]
with open(base_path) as f:
    base_doc = json.load(f)
with open(now_path) as f:
    now_doc = json.load(f)
base, now = base_doc["benchmarks"], now_doc["benchmarks"]

# Numbers from different kernel dispatches (avx2 vs purego) or boxes with
# different CPU counts are not a regression signal — refuse the
# comparison instead of failing it.
for key in ("simd", "num_cpu"):
    was, now_is = base_doc.get(key), now_doc.get(key)
    if was and now_is and was != now_is:
        print(f"error: baseline recorded with {key}={was}, current run is {key}={now_is}; "
              "regenerate the baseline with ./bench.sh on this box and build", file=sys.stderr)
        sys.exit(1)

RPC_PREFIXES = ("BenchmarkRPCRoundTrip", "BenchmarkRemote")
KERNEL_PREFIXES = ("BenchmarkDot", "BenchmarkMatVec", "BenchmarkAxpy", "BenchmarkCoarseScan")

def is_rpc(name):
    return name.startswith(RPC_PREFIXES)

def is_kernel(name):
    return name.startswith(KERNEL_PREFIXES)

def gated(name):
    return name.startswith("BenchmarkHotPath") or is_rpc(name) or is_kernel(name)

failed = False
retryable = []
print(f"{'gated bench':44s} {'baseline':>10s} {'now':>10s}  verdict")
for name in sorted(n for n in now if gated(n)):
    cur = now[name]
    old = base.get(name)
    if old is None:
        print(f"{name:44s} {'-':>10s} {cur['ns_op']:>10}  new (no baseline)")
        continue
    limit = rpc_thresh if is_rpc(name) else kernel_thresh if is_kernel(name) else thresh
    ratio = cur["ns_op"] / old["ns_op"]
    verdict = f"{ratio:.2f}x ok"
    if ratio > limit:
        verdict = f"{ratio:.2f}x REGRESSION (> {limit:.2f}x)"
        failed = True
        retryable.append(name)
    # Allocation gate: hot-path benches only; the RPC pins live in
    # TestRemoteHotPathDoesNotAllocate (loopback allocs/op here include
    # warm-up noise from connection buffers).
    if not is_rpc(name) and cur.get("allocs_op"):
        verdict += f" + ALLOCATES ({cur['allocs_op']} allocs/op)"
        failed = True
        if name in retryable:  # an alloc failure is not noise; no retry
            retryable.remove(name)
    print(f"{name:44s} {old['ns_op']:>10} {cur['ns_op']:>10}  {verdict}")

missing = [n for n in base if gated(n) and n not in now]
for name in missing:
    print(f"{name:44s} dropped from the suite  REGRESSION")
    failed = True

if flagged_path != "/dev/null":
    with open(flagged_path, "w") as f:
        f.write("".join(n + "\n" for n in retryable))
sys.exit(1 if failed else 0)
PY
}

pkg_for() {
    case "$1" in
    BenchmarkRPCRoundTrip* | BenchmarkRemote*) echo ./internal/rpc/ ;;
    BenchmarkCoarseScan*) echo ./internal/ann/ ;;
    BenchmarkDot* | BenchmarkMatVec* | BenchmarkAxpy*) echo ./internal/tensor/ ;;
    *) echo . ;; # BenchmarkHotPath*
    esac
}

if compare "$NOW" "$FLAGGED"; then
    exit 0
fi
if [ ! -s "$FLAGGED" ]; then
    exit 1 # allocation/dropped-bench failures only: deterministic, no retry
fi

echo "== second chance: re-measuring flagged benches in isolation" >&2
sort -u "$FLAGGED" | sed 's|/.*||' | sort -u | while read -r top; do
    go test -run '^$' -bench "^${top}\$" -benchmem -count 3 "$(pkg_for "$top")"
done >"$RETRY"

python3 - "$NOW" "$RETRY" "$GOMAXPROCS" <<'PY'
import json, re, sys

now_path, raw_path, procs = sys.argv[1], sys.argv[2], int(sys.argv[3])
pat = re.compile(r"^(Benchmark\S+)\s+\d+\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?")
with open(now_path) as f:
    doc = json.load(f)
bench = doc["benchmarks"]
for line in open(raw_path):
    m = pat.match(line)
    if not m:
        continue
    name, ns = m.group(1), float(m.group(2))
    if procs > 1 and name.endswith(f"-{procs}"):
        name = name[: -len(f"-{procs}")]
    cur = bench.get(name)
    # Merge the minimum ns/op only; the first pass's allocs stand (an
    # allocation regression must not be retried away).
    if cur is not None and ns < cur["ns_op"]:
        cur["ns_op"] = ns
with open(now_path, "w") as f:
    json.dump(doc, f, indent=2)
PY

echo "== final verdict (isolated minima merged)" >&2
compare "$NOW" /dev/null
