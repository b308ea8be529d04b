# Tier-1 verification and perf tooling for the Zoomer reproduction.

.PHONY: verify verify-purego test race chaos ingest-chaos bench bench-compare docs-check compose-check gateway-smoke experiments-check rig-check fuzz-smoke world-check ci

# The full CI gate: tier-1 verify (both kernel dispatches), race hammer,
# fault-injection suite, ingest crash-recovery equivalence, perf
# regression check, documentation link check, deploy topology lint, the
# multi-process gateway smoke run, the experiments-harness smoke, the
# benchmark rig's compile-and-self-test, a short fuzz pass over every
# decoder of untrusted bytes, and the world checked against its recorded bytes.
ci: verify verify-purego race chaos ingest-chaos bench-compare docs-check compose-check gateway-smoke experiments-check rig-check fuzz-smoke world-check

# The tier-1 loop: vet + build + test. vet's asmdecl check covers the
# AVX2 kernel frames in internal/tensor.
verify:
	go vet ./...
	go build ./...
	go test ./...

# The same loop with the assembly kernels compiled out — proves the
# pure-Go reference path stays healthy on non-amd64 targets.
verify-purego:
	go vet -tags purego ./...
	go build -tags purego ./...
	go test -tags purego ./...

test:
	go test ./...

# Race-exercise the concurrent serving stack (scatter-gather, the RPC
# client connection pool, and the gateway and servestack, whose HTTP
# handler and load-generator goroutines share serve's worker states,
# included) plus the full training stack: nn
# optimizers, the experiments harness (incl. the cross-topology
# equivalence suite and the dead-cluster training test), the A/B
# replay, the ANN index build's parallel k-means passes, the world
# build's parallel MinHash signing and LSH banding, and the open-loop
# load generator's workers.
race:
	go test -race ./internal/engine/... ./internal/serve/... ./internal/gateway/... ./internal/servestack/... ./internal/sampling/... ./internal/partition/... ./internal/rpc/... ./internal/nn/... ./internal/experiments/... ./internal/abtest/... ./internal/ann/... ./internal/graph/... ./internal/graphbuild/... ./internal/openloop/...

# run_listed runs `go test -race -count=1 -run NAMES PKG` after checking
# that every |-separated name in NAMES matches a test `go test -list`
# finds in PKG: a -run pattern that matches nothing passes with "[no
# tests to run]", so a renamed test would drop out of a suite unnoticed.
define run_listed
	@listed=$$(go test -race -list '^Test' $(2)) || exit 1; \
	for name in $$(echo '$(1)' | tr '|' ' '); do \
		echo "$$listed" | grep -qE -- "$$name" || { echo "$@: no test in $(2) matches $$name"; exit 1; }; \
	done
	go test -race -count=1 -run '$(1)' $(2)
endef

# Fault-injection suite under the race detector: server kill/restart and
# churn, replica failover mid-batch, rolling upgrade, zero-replica
# degradation, dynamic membership (a partition handed to a server the
# client never dialed included), stalled-member refresh, append fan-out
# past a dead or silent sibling (one copy per circuit decay once it is
# open), circuit breaker (open/half-open decay/waiter adoption), mux
# in-flight kill.
chaos:
	$(call run_listed,TestShardFailureAndReconnect|TestNoPartialResultsUnderChurn|TestClientPoolConcurrency|TestMuxInFlightFailure|TestMuxSharedConnectionHammer|TestKillReplicaMidBatch|TestKillReplicaMidBulkRead|TestLiveHandoffBulkRead|TestZeroHealthyReplicasTyped|TestRollingUpgrade|TestMembershipDiscovery|TestRedirectBindsServerNeverDialed|TestRefreshSkipsStalledServer|TestFanoutSkipsDeadSibling|TestFanoutBoundsSilentSibling|TestFanoutSilentSiblingOneCopyPerDecay|TestReplicatedClusterSpreadsLoad|TestCircuit,./internal/rpc/)
	$(call run_listed,TestReplica,./internal/engine/)

# Durable-ingest crash suite under the race detector: kill -9 a child
# writer mid-append and prove WAL replay reconverges bit-identically
# (torn tail, corrupt record and disk-full paths included), plus the
# rpc-layer crash/restart, skew and replicated-append tests, and a
# multi-shard append with one shard's replica group dark.
ingest-chaos:
	$(call run_listed,TestWALCrashRecoveryEquivalence|TestWALTornTailTruncated|TestWALCorrupt|TestWALDiskFull,./internal/ingest/)
	$(call run_listed,TestAppendDarkShardLandsOtherShards,./internal/engine/)
	$(call run_listed,TestAppendRecoveryAfterRestart|TestServingSurvivesWriterCrash|TestAppendWALWriteFailureKeepsServing|TestAppendIdempotencyAndResync|TestVersionSkew,./internal/rpc/)

# Hot-path benchmarks -> BENCH_hotpath.json (perf trajectory across PRs).
bench:
	./bench.sh

# Compares against the parent, paired: builds the gated benches of the
# base commit (HEAD, the parent of uncommitted work; pass another rev
# as ./bench_compare.sh REV) and of the working tree, alternates them
# over 7 rounds, and fails on a paired regression or any new allocation.
bench-compare:
	./bench_compare.sh

# Fail on broken intra-repo links in *.md (docs/, READMEs, ROADMAP...),
# on flag tables that disagree with the binaries, on docs naming a
# binary that has no cmd/<name>/, on an internal/ package that no
# binary, example or benchmark-rig package reaches, and — the API gate,
# TestExportedNamesHaveCallers in api_test.go — on an exported internal/
# name that no non-test file of another package (benchmark/ included)
# uses and testdata/api-allowlist.txt does not list with a reason.
docs-check:
	./docs_check.sh
	go test -count=1 -run '^TestExportedNamesHaveCallers$$' .

# Lint the containerized topology (docker compose config when a compose
# plugin exists, structural YAML check otherwise).
compose-check:
	./deploy/compose_check.sh

# End-to-end multi-process run: 2 zoomer-shard + zoomer-gateway +
# zoomer-loadgen over real TCP; asserts the degradation ladder engages
# under overload and the gateway drains cleanly on SIGTERM.
gateway-smoke:
	./deploy/gateway_smoke.sh

# Run the experiments harness end to end on CI-sized budgets — a fixed
# seed over the tiny world through the offline (table2, table3), online
# A/B (table4) and interpretability (fig13) paths — and diff its output,
# with the per-experiment timings stripped, against the checked-in
# golden file: every printed figure is seed-determined, so any change
# to a draw, an embedding or a ranking fails here.
EXPERIMENTS_GOLDEN := internal/experiments/testdata/experiments-check.golden
experiments-check:
	go run ./cmd/zoomer-experiments -exp table2,table3,table4,fig13 -quick -seed 7 > /tmp/experiments-check.out
	sed -E 's/^(== .*) \([0-9.]+s\) ==$$/\1 ==/' /tmp/experiments-check.out | diff -u $(EXPERIMENTS_GOLDEN) - \
		|| { echo "experiments-check: output differs from $(EXPERIMENTS_GOLDEN)"; exit 1; }

# The benchmark rig (benchmark/) is its own module, so the root
# `go build ./... && go test ./...` never sees it: compile it against
# this tree and run its self-test, so an interface change here cannot
# break benchmark/run.sh silently.
rig-check:
	cd benchmark && go vet ./... && go test ./...

# A few seconds of native fuzzing per decoder of untrusted bytes, on top
# of the checked-in seed corpora (which every plain `go test` already
# replays). The targets are found by listing every package under
# internal/, so a new decoder's target cannot be forgotten.
fuzz-smoke:
	@found=0; for pkg in $$(go list ./internal/...); do \
		for f in $$(go test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			found=1; echo "fuzz-smoke: $$pkg $$f" && go test -run '^$$' -fuzz "^$$f\$$" -fuzztime 3s $$pkg || exit 1; \
		done; \
	done; test $$found = 1

# The world is a function of (scale, seed) across processes: every
# binary of a deployment regenerates it, so graphgen must write the bytes
# and print the per-type counts recorded in WORLD_GOLDEN, at both scales,
# and two processes must agree on the small world. An in-process test
# cannot see this — Go randomizes map iteration per process. The build
# runs on every core, so the large world is also built at GOMAXPROCS 1
# and 8 and held to the same sha256.
WORLD_GOLDEN := internal/graphbuild/testdata/world.golden
world-check:
	@set -e; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	go build -o "$$d/graphgen" ./cmd/graphgen; \
	"$$d/graphgen" -scale large -seed 1 -out "$$d/large.zmrg" > "$$d/large.out" & large=$$!; \
	"$$d/graphgen" -scale small -seed 1 -out "$$d/small.zmrg" > "$$d/small.out"; \
	"$$d/graphgen" -scale small -seed 1 -out "$$d/b.zmrg" >/dev/null; \
	cmp "$$d/small.zmrg" "$$d/b.zmrg"; \
	wait $$large; \
	for p in 1 8; do \
		GOMAXPROCS=$$p "$$d/graphgen" -scale large -seed 1 -out "$$d/large-$$p.zmrg" >/dev/null; \
		echo "large sha256 $$(sha256sum < "$$d/large-$$p.zmrg" | cut -d' ' -f1)" | grep -qxF -f - $(WORLD_GOLDEN) \
			|| { echo "world-check: graphgen at GOMAXPROCS=$$p wrote a large world that differs from $(WORLD_GOLDEN)"; exit 1; }; \
	done; \
	for s in small large; do \
		echo "$$s sha256 $$(sha256sum < "$$d/$$s.zmrg" | cut -d' ' -f1)"; \
		grep -E '^(nodes|edges):' "$$d/$$s.out" | sed "s/^/$$s /"; \
	done > "$$d/world"; \
	grep -v '^#' $(WORLD_GOLDEN) | diff -u - "$$d/world" \
		|| { echo "world-check: graphgen's worlds differ from $(WORLD_GOLDEN)"; exit 1; }; \
	echo "world-check: graphgen wrote the worlds in $(WORLD_GOLDEN), the large one at GOMAXPROCS 1 and 8 too, and two processes agree"
