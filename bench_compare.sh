#!/usr/bin/env bash
# bench_compare.sh — the microbenchmark gate: runs the gated benches of
# a base commit beside those of the working tree, on this box in one
# run, and fails on a paired regression.
#
# Both sides' test binaries are built into one temp dir (the base from
# `git archive`, so the repo's git state is never touched) and run
# alternately: ROUNDS rounds, the side order flipped each round, each
# gated bench once per side per round. A bench is judged by its
# per-round change/base ns/op ratios. A timing regression needs both:
#   - the median ratio above the row's bound, and
#   - the change slower in at least ROUNDS-1 of the rounds.
# On a shared 2-core box an untouched bench swings 0.6x–1.6x between
# single samples and drifts over tens of seconds. Pairing cancels the
# drift, the median ignores a burst, and the sign count keeps a bench
# whose rounds split both ways from failing on its median alone.
# Per-side minima were tried instead and flagged unchanged benches up
# to 1.75x there. A planted ~1.3x regression read 1.20x-1.39x over four
# runs (2 cores), slower in 6-7 of 7 rounds: the gate resolves
# regressions well above the bound, not at it.
#
# Also a failure: a bench over its row's allocs budget (any round,
# change side), and a gated bench that the base has and the change
# lacks. A bench only the change has is reported, not judged.
#
# A package whose base and change test binaries are byte-identical
# (both built with -trimpath) cannot have regressed: its rows print as
# "identical" and get no timing verdict, though their allocs budgets
# still apply. Before this rule two runs failed on ./internal/tensor's
# 40-300 ns -generic kernels (1.22x-1.28x, slower in 6-7 of 7) with
# both binaries equal under cmp: the sign rule does not hold drift off
# benches that short. A changed package is judged as before.
# BENCH_hotpath.json (./bench.sh) is the perf trajectory, not this gate.
#
# Usage: ./bench_compare.sh [base-rev]
#        (default: HEAD, the parent of uncommitted work; pass HEAD~1 to
#        judge the last commit)
set -euo pipefail
cd "$(dirname "$0")"
command -v python3 >/dev/null || { echo "error: python3 required" >&2; exit 1; }

# The gated set, one row per package and -bench pattern: the run length
# per sample, the bound on the median paired ratio, and the allocs/op
# budget (- = not gated here). The loopback RPC benches carry scheduler
# noise, hence 1.60; their allocations are pinned by
# TestRemoteHotPathDoesNotAllocate instead. BenchmarkRemoteAppend grows
# the delta overlays every iteration, so it runs a fixed count, as in
# bench.sh. BenchmarkDeltaApply is the write path's apply: its live=N
# cases hold a steady overlay size, hot=4096 one node's whole growth.
# BenchmarkTrainStepLocal is one 32-example training step over the
# in-memory graph; a sample is 5 steady-state steps, timed and counted
# after 3 untimed warm-up steps (benchTrainSteps), so each timed step's
# sampling overlaps the step before it, and the first batch's serial
# sampling, the tape's slab growth and most first-touch Adam moments
# fall outside the sample. Its budget is the steady-state step's
# (TestTrainStepAllocs in internal/core holds the same 5000; ~30
# allocs/op read on 2 cores). BenchmarkTrainStepRemote is the same step
# with every graph read crossing loopback TCP to a two-server cluster:
# it takes the loopback rows' 1.60 bound and the local step's 5000
# budget (~31 allocs/op).
# BenchmarkEndToEndRequest is one whole retrieval through
# serve.Server.Retrieve; its one allocation is the result copy handed to
# the caller.
GATED='
.                  ^BenchmarkHotPath                                      200ms  1.20  0
./internal/tensor  ^Benchmark(Dot|MatVec|Axpy)                            200ms  1.20  0
./internal/ann     ^Benchmark(CoarseScan|SearchInto|SearchIntoRig)$       200ms  1.20  0
./internal/serve   ^BenchmarkEndToEndRequest$                             200ms  1.20  1
./internal/engine  ^BenchmarkDeltaApply$                                  200ms  1.20  -
./internal/rpc     ^Benchmark(RPCRoundTrip|Remote(Batch|Tree|ReadNodes))  200ms  1.60  -
./internal/rpc     ^BenchmarkRemoteAppend$                                1000x  1.60  -
./internal/rpc     ^BenchmarkTrainStepLocal$                              5x     1.20  5000
./internal/rpc     ^BenchmarkTrainStepRemote$                             5x     1.60  5000
'
ROUNDS=7
PROCS="$(nproc 2>/dev/null || echo 1)"

BASE="${1:-HEAD}"
BASE="$(git rev-parse --verify --quiet "$BASE^{commit}")" || { echo "error: unknown base ${1:-}" >&2; exit 2; }
echo "base: $(git log -1 --format='%h %s' "$BASE")"
echo "change: working tree of $(git log -1 --format='%h %s' HEAD)$(git diff --quiet HEAD || echo ' + uncommitted edits')"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
trap 'exit 130' INT TERM
mkdir "$WORK/src"
git archive "$BASE" | tar -x -C "$WORK/src"
src() { if [ "$1" = base ]; then echo "$WORK/src"; else pwd; fi; }
bin() { echo "$WORK/$1$(echo "$2" | tr / _).test"; }

echo "== building test binaries (base, change)" >&2
for side in base change; do
    for pkg in $(awk 'NF { print $1 }' <<<"$GATED" | sort -u); do
        (cd "$(src "$side")" && go test -c -trimpath -o "$(bin "$side" "$pkg")" "$pkg")
    done
done
# identical: the packages whose two test binaries are byte-identical.
identical=" "
for pkg in $(awk 'NF { print $1 }' <<<"$GATED" | sort -u); do
    if cmp -s "$(bin base "$pkg")" "$(bin change "$pkg")"; then
        identical+="$pkg "
        echo "== $pkg: base and change test binaries are identical" >&2
    fi
done

# runs: one line per sample — round side bound allocs-budget identical name ns/op allocs/op.
for round in $(seq "$ROUNDS"); do
    order="base change"
    if [ $((round % 2)) -eq 0 ]; then order="change base"; fi
    echo "== round $round/$ROUNDS ($order)" >&2
    while read -r pkg pattern benchtime bound budget <&3; do
        same=0
        if [[ "$identical" == *" $pkg "* ]]; then same=1; fi
        for side in $order; do
            out="$(cd "$(src "$side")/$pkg" && "$(bin "$side" "$pkg")" -test.run '^$' -test.bench "$pattern" \
                -test.benchtime "$benchtime" -test.benchmem -test.cpu "$PROCS" </dev/null 2>&1)" ||
                { echo "$out" >&2; echo "error: $side benches in $pkg failed" >&2; exit 1; }
            awk -v pre="$round $side $bound $budget $same" -v procs="$PROCS" '
                /^Benchmark/ {
                    name = $1; ns = ""; allocs = ""
                    if (procs > 1) sub("-" procs "$", "", name)
                    for (i = 2; i < NF; i++) {
                        if ($(i+1) == "ns/op") ns = $i
                        if ($(i+1) == "allocs/op") allocs = $i
                    }
                    if (ns != "" && allocs != "") print pre, name, ns, allocs
                }' <<<"$out" >>"$WORK/runs"
        done
    done 3< <(awk 'NF' <<<"$GATED")
done

python3 - "$WORK/runs" "$ROUNDS" <<'PY'
import statistics, sys

rounds = int(sys.argv[2])
benches = {}  # name -> {"bound", "budget", "identical", "base": {round: (ns, allocs)}, "change": {...}}
for line in open(sys.argv[1]):
    rnd, side, bound, budget, same, name, ns, allocs = line.split()
    b = benches.setdefault(name, {"bound": float(bound), "budget": budget, "identical": same == "1", "base": {}, "change": {}})
    b[side][int(rnd)] = (float(ns), int(allocs))

failed = False
print(f"{'gated bench':44s} {'base ns':>10s} {'change ns':>10s} {'ratio':>6s} slower  verdict")
for name, b in benches.items():
    base, change = b["base"], b["change"]
    if not change:
        print(f"{name:44s} dropped from the change  REGRESSION")
        failed = True
        continue
    med_change = statistics.median(ns for ns, _ in change.values())
    if not base:
        print(f"{name:44s} {'-':>10s} {med_change:>10.1f}  new (no baseline)")
        continue
    ratios = [change[r][0] / base[r][0] for r in base if r in change]
    ratio, slower = statistics.median(ratios), sum(x > 1 for x in ratios)
    verdict = "ok"
    if b["identical"]:
        verdict = "identical"
    elif ratio > b["bound"] and slower >= rounds - 1:
        verdict = f"REGRESSION (median > {b['bound']:.2f}x, slower in {slower}/{len(ratios)})"
        failed = True
    most = max(allocs for _, allocs in change.values())
    if b["budget"] != "-" and most > int(b["budget"]):
        verdict += f" + ALLOCATES ({most} allocs/op, budget {b['budget']})"
        failed = True
    med_base = statistics.median(ns for ns, _ in base.values())
    print(f"{name:44s} {med_base:>10.1f} {med_change:>10.1f} {ratio:>5.2f}x {slower:>3d}/{len(ratios)}  {verdict}")
sys.exit(1 if failed else 0)
PY
