package main

import (
	"time"

	"zoomer/internal/loggen"
	"zoomer/internal/serve"
)

// The system under test, pinned here so parent and change receive the
// same load. BENCHMARK.json admits only the driver's keys, so every
// other knob of the rig lives in this file and is printed in the result
// header of each run.
const (
	clients = 2 // client connections (this box has nproc = 2)

	numShards  = 4 // hash partitions, Locality on
	numServers = 2 // rpc.Servers, numShards/numServers owned partitions each, 1 replica

	zipfExp = 1.05 // loggen.TaobaoConfig's PopularityExp

	appendBatch = 64 // edges per POST /v1/append
	appendEvery = 16 // retrieve_append: every 16th operation is an append batch

	coldSweep = 6250 // requests per cold sweep: one per query, each with a distinct user

	trainBatch = 32

	sampleEvery = 16 // replies fully decoded and checked during timed phases (1 in 16)

	minRecall   = 0.30
	minTrainAUC = 0.60

	recallQueries = 3000
	aucProbe      = 1024
)

// The dataset is pinned: -seed seeds the generated requests, append
// batches, sweep permutations and training order, not the world. A world
// per seed moves recall@100 by ±12 % between seeds, which would drown
// any bound on it.
const worldSeed = 1

var worldScale = loggen.ScaleLarge

// serveCfg sizes every serving tier; newTier sets the Seed.
var serveCfg = serve.Config{Workers: 2, CacheK: 30, TopK: 100, NProbe: 4, QueueSize: 4096}

// Open-loop rates, calibrated once on the builder's 2-core box, then
// frozen so parent and change receive identical load (README.md,
// "Calibration"): 40 % of the measured closed-loop throughput on
// retrieve_hot and retrieve_cold, less on retrieve_append, where an
// append holds one of the two connections for 2.6 ms.
var openRate = map[string]float64{
	"retrieve_hot":    7000,
	"retrieve_cold":   6900,
	"retrieve_append": 1250,
}

// train_roi's step counts are a function of the run length alone, so
// parent and change train for the same number of steps. Calibrated on
// the builder's box (3.9 s per step over the cluster, 82 ms locally) so
// the remote steps fill about three quarters of -seconds.
const (
	remoteStepsPerSecond = 0.2
	localStepsPerSecond  = 3
)

func trainSteps(seconds float64) (remote, local int) {
	return max(1, int(remoteStepsPerSecond*seconds)), max(1, int(localStepsPerSecond*seconds))
}

// A retrieve run alternates closed and open slices over its -seconds
// budget. The open latencies are cut into segments of segmentSize
// samples (12 beyond a segment's p99) and p50_ms/p99_ms are medians over
// the segments: measured on retrieve_cold, a burst doubles the p99 of
// the fifth of a sweep it falls in and of nothing else.
const (
	rounds      = 3
	closedShare = 0.4
	segmentSize = 1250
)

// setupRepeats is how many times a run performs the whole bring-up; the
// median is reported as setup_s and the last bring-up is the one measured.
const setupRepeats = 3

// replyTimeout bounds every client read: a request unanswered this long
// after it was sent counts as failed.
const replyTimeout = 5 * time.Second

type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a -trace 0 run reports, on every workload.
// The tail (p99) is printed by every run and reported by the traced
// pass as e2e.p99_ms, but it is not here: it carries no bound. When the
// box ran 5 % slower p99 rose by 26–37 % between two A/A sets, past the
// largest bound the contract admits (README.md, "Spread").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"cpu_ms_per_op", "ms"},
	{"p50_ms", "ms"},
	{"quality", "share"},
	{"mem_peak_mb", "MiB"},
}

// perLayer lists the metrics a -trace 1 run reports, on every workload.
// Probe metrics (direct calls the harness times itself) are measured on
// every workload; phase metrics (counter deltas over the workload's own
// traced phases) are 0 where the workload has no such activity.
var perLayer = []metricDef{
	// probes: the hit path, stage by stage
	{"gateway.bin_overhead_us_p50", "us"},
	{"gateway.json_overhead_us_p50", "us"},
	{"serve.submit_rtt_us_p50", "us"},
	{"serve.cacheonly_rtt_us_p50", "us"},
	{"serve.cache_hit_us_p50", "us"},
	{"serve.embed_us_p50", "us"},
	{"ann.search_us_p50", "us"},
	// probes: the miss chain
	{"serve.cache_miss_fill_us_p50", "us"},
	{"engine.sample_us_p50", "us"},
	{"engine.route_self_us_p50", "us"},
	{"rpc.sample_rtt_us_p50", "us"},
	{"rpc.wire_self_us_p50", "us"},
	{"engine.shard_draw_us_p50", "us"},
	{"engine.batch64_us_p50", "us"},
	{"rpc.batch64_rtt_us_p50", "us"},
	{"engine.tree_us_p50", "us"},
	{"rpc.neighbors_rtt_us_p50", "us"},
	// probes: the append chain
	{"engine.append64_us_p50", "us"},
	{"rpc.append64_rtt_us_p50", "us"},
	{"ingest.append_fsync_us_p50", "us"},
	{"ingest.append_nofsync_us_p50", "us"},
	{"engine.delta_apply_us_p50", "us"},
	{"ingest.replay_ms", "ms"},
	// probes: training's graph reads over the remote view
	{"sampling.focal_us_p50", "us"},
	{"sampling.tree_us_p50", "us"},
	// bring-up
	{"loggen.generate_s", "s"},
	{"graphbuild.build_s", "s"},
	{"rpc.server_build_s", "s"},
	{"rpc.dial_s", "s"},
	{"ann.build_s", "s"},
	{"serve.warm_s", "s"},
	// phases: retrieve workloads
	{"gateway.reply_bytes_mean", "bytes"},
	{"gateway.short_reply_share", "share"},
	{"gateway.shed_total", "count"},
	{"gateway.degraded_total", "count"},
	{"gateway.deadline_total", "count"},
	{"gateway.retrieve_p50_ms", "ms"},
	{"gateway.append_p50_ms", "ms"},
	{"gateway.append_edges_s", "edges/s"},
	{"serve.queue_wait_us_p50", "us"},
	{"serve.cache_hit_share", "share"},
	{"serve.cache_refreshes_per_op", "1/op"},
	{"serve.dropped_total", "count"},
	{"serve.expired_total", "count"},
	{"rpc.sample_ops_per_op", "1/op"},
	{"rpc.batch_ops_per_op", "1/op"},
	{"rpc.replica_lag_max", "count"},
	{"engine.shard_imbalance", "ratio"},
	{"engine.delta_compactions_total", "count"},
	{"ingest.group_size_mean", "records"},
	{"ingest.fsync_us_mean", "us"},
	{"gen.late_share", "share"},
	{"e2e.p99_ms", "ms"},
	// phases: train_roi
	{"core.step_ms_p50", "ms"},
	{"core.view_ms_per_step", "ms"},
	{"core.view_calls_per_step", "1/step"},
	{"core.compute_self_ms_per_step", "ms"},
	{"core.local_step_ms_p50", "ms"},
	{"rpc.read_ops_per_step", "1/step"},
	// the trace itself
	{"trace.unattributed_share", "share"},
	{"trace.overhead_share", "share"},
}
