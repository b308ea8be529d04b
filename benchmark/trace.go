package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"zoomer/internal/ann"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/rpc"
	"zoomer/internal/sampling"
	"zoomer/internal/serve"
)

// span is one timed call into a layer, recorded by the harness around
// the call (spans inside the program are ROADMAP item 3). Parent is the
// span that logically contains it, Req the request or id it belongs to.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory and writes them out when the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// open starts a span and returns its id; close ends it.
func (r *recorder) open(name string, parent, req int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartNs: time.Since(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) close(id int) {
	end := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNs = end
	r.mu.Unlock()
}

// call times f as a span.
func (r *recorder) call(name string, parent, req int, f func()) int {
	id := r.open(name, parent, req)
	f()
	r.close(id)
	return id
}

// p50 is the median duration in µs of the spans called name.
func (r *recorder) p50(name string) float64 {
	var d []float64
	for _, s := range r.spans {
		if s.Name == name {
			d = append(d, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return median(d)
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Probe sizes: enough calls for a steady median, few enough that the
// traced pass fits the run length.
const (
	stageCalls  = 1500 // requests replayed stage by stage
	sampleCalls = 2000 // single-id sampling chain
	batchCalls  = 400  // 64-id batches and trees
	appendCalls = 80   // durable appends, ~1 ms of fsync each
	focalCalls  = 150  // ROI samples over the remote view
	treeCalls   = 20   // 2-hop ROI trees over the remote view

	refreshBatch = 64 // serve's refresher drains up to 64 ids per batch
)

// tracer runs the traced pass: the workload's phases with spans on, then
// the stage-by-stage replay and the nested direct calls.
type tracer struct {
	o   options
	rg  *rig
	rec *recorder
	m   map[string]float64
	r   *rng.RNG

	// local holds every partition as an in-process shard: the floor under
	// the RPC stubs in the nested chains.
	local []*engine.Shard

	queuedUs float64 // median Response.Latency under the open phase's load
	err      error   // first failed probe call
}

// call times f as a span and keeps the first error: a probe that fails
// measures nothing, and the run reports it as a failed check.
func (tr *tracer) call(name string, parent, req int, f func() error) int {
	return tr.rec.call(name, parent, req, func() {
		if err := f(); err != nil && tr.err == nil {
			tr.err = fmt.Errorf("%s: %w", name, err)
		}
	})
}

// tracePass is the -trace 1 run of every workload.
func tracePass(o options) (*result, error) {
	rg, err := setupRig(o.seed, o.tmp, o.workload != "retrieve_cold")
	if err != nil {
		return nil, err
	}
	defer rg.Close()
	header(o, rg.w)
	tr := &tracer{o: o, rg: rg, rec: newRecorder(), m: map[string]float64{}, r: rng.New(o.seed + 40)}
	res := &result{metrics: tr.m}

	load := genLoad(rg.w, o.seed, true)
	if o.workload == "train_roi" {
		tr.trainPhases(res)
	} else {
		tr.retrievePhases(res, load)
	}

	// The hit-path probes need a warm cache; retrieve_cold's last sweep
	// left a partly filled one.
	if o.workload == "retrieve_cold" {
		partly := rg.tier
		rg.tier = newTier(rg.w, rg.idx, 1<<20)
		rg.tier.warm(rg.w)
		rg.front.serve(rg.tier)
		partly.Close()
	}
	part := partition.SplitOpts(rg.w.g, numShards, partition.Hash, partition.Options{Locality: true})
	for s := 0; s < numShards; s++ {
		tr.local = append(tr.local, engine.BuildShard(part, s, 1))
	}
	tr.stageReplay(load)
	tr.sampleChain()
	tr.appendChain(load)
	tr.roiProbes()
	res.check(tr.err)

	for name, s := range rg.w.t {
		tr.m[name] = s
	}
	tr.m["engine.shard_imbalance"] = rg.w.eng.Stats().Imbalance
	for _, s := range rg.w.servers {
		tr.m["rpc.replica_lag_max"] = max(tr.m["rpc.replica_lag_max"], float64(s.ReplicaLag()))
	}
	tr.replayWAL()

	out := o.traceOut
	if out == "" {
		out = filepath.Join(o.tmp, "zoomer-spans-"+o.workload+".jsonl")
	}
	if err := tr.rec.write(out); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.rec.spans), out)
	return res, nil
}

// retrievePhases runs the workload's own phases with spans on, bracketed
// by the public counters, and a spans-off/on pair for the overhead.
func (tr *tracer) retrievePhases(res *result, load *load) {
	o, rg := tr.o, tr.rg
	run := newRetrieveRun(rg, load)
	d := newDriver(o.workload, rg, run)
	sec := func(share float64) time.Duration { return time.Duration(share * o.seconds * float64(time.Second)) }

	// Spans off, on, on, off: a drift over the four slices (the append
	// path slows as deltas pile up) weighs on both sides alike.
	d.warmUp(o.seconds)
	var off, on phase
	for _, spans := range []bool{false, true, true, false} {
		if spans {
			run.rec = tr.rec
			on.add(d.closed(sec(0.05)))
		} else {
			run.rec = nil
			off.add(d.closed(sec(0.05)))
		}
	}
	res.phaseLine("spans-off", off)
	res.phaseLine("spans-on", on)
	tr.m["trace.overhead_share"] = 1 - (float64(on.attempted)/on.wall)/(float64(off.attempted)/off.wall)

	run.rec = tr.rec
	d.delta = counters{}
	edges0 := run.ackedEdges.Load()
	closed := d.closed(sec(0.15))
	closedEdges := run.ackedEdges.Load() - edges0
	stop := func() float64 { return 0 }
	if o.workload != "retrieve_cold" { // a cold sweep's tier must see each id once
		stop = tr.queueProbe(load)
	}
	open := d.open(sec(0.25))
	tr.queuedUs = stop()
	run.rec = nil
	res.phaseLine("closed", closed)
	res.phaseLine("open", open)
	res.check(run.checkAppends())

	rr := retrieveResult{closed: closed, open: open, delta: d.delta}
	tr.m["gateway.reply_bytes_mean"] = float64(run.replyBytes.Load()) / float64(run.replies.Load())
	tr.m["gateway.short_reply_share"] = float64(run.shortReplies.Load()) / float64(run.checkedReplies.Load())
	tr.m["gateway.shed_total"] = float64(d.delta[cShed])
	tr.m["gateway.degraded_total"] = float64(d.delta[cDegraded])
	tr.m["gateway.deadline_total"] = float64(d.delta[cDeadline])
	tr.m["serve.cache_hit_share"] = rr.hitShare()
	tr.m["serve.cache_refreshes_per_op"] = rr.perOp(cRefreshes)
	tr.m["serve.dropped_total"] = float64(d.delta[cDropped])
	tr.m["serve.expired_total"] = float64(d.delta[cExpired])
	tr.m["rpc.sample_ops_per_op"] = rr.perOp(cOpSample)
	tr.m["rpc.batch_ops_per_op"] = rr.perOp(cOpBatch)
	tr.m["engine.delta_compactions_total"] = float64(d.delta[cCompactions])
	if f := float64(d.delta[cFsyncs]); f > 0 {
		tr.m["ingest.group_size_mean"] = float64(d.delta[cSeq]) / f
		tr.m["ingest.fsync_us_mean"] = float64(d.delta[cFsyncNanos]) / f / 1e3
	}
	tr.m["gen.late_share"] = open.lateShare()
	tr.m["e2e.p99_ms"] = segmentPercentile(open.lat, segmentSize, 0.99)

	// retrieve_append's operations by kind: the end-to-end figures mix
	// them 15:1, these split them.
	var retrieveMs, appendMs []float64
	for slot, l := range open.lat {
		if _, isAppend := run.appendAt(slot); isAppend {
			appendMs = append(appendMs, l)
		} else {
			retrieveMs = append(retrieveMs, l)
		}
	}
	tr.m["gateway.retrieve_p50_ms"] = median(retrieveMs)
	tr.m["gateway.append_p50_ms"] = median(appendMs)
	tr.m["gateway.append_edges_s"] = float64(closedEdges) / closed.wall
}

// queueProbe submits straight to the serve tier every 10 ms while the
// open phase runs and returns the median Response.Latency, which counts
// the wait in the serve queue under the workload's load.
func (tr *tracer) queueProbe(load *load) (stop func() float64) {
	done, out := make(chan struct{}), make(chan float64)
	go func() {
		resp := make(chan serve.Response, 1)
		var lat []float64
		for i := 0; ; i++ {
			select {
			case <-done:
				out <- median(lat)
				return
			default:
			}
			p := load.pairs[len(load.pairs)-1-i%1024]
			if tr.rg.tier.srv.SubmitReq(serve.Request{User: p[0], Query: p[1]}, resp) {
				lat = append(lat, float64((<-resp).Latency.Nanoseconds())/1e3)
			}
			pause(10 * time.Millisecond)
		}
	}()
	return func() float64 { close(done); return <-out }
}

// trainPhases times remote training steps with the view decorator off,
// then on: the graph-read share of a step, and what timing it costs.
func (tr *tracer) trainPhases(res *result) {
	t := newTrainRig(tr.rg.w)
	off := runTrain(t, 1, 1)
	t.view.GraphView, t.view.on = tr.rg.w.view(), true
	on := runTrain(t, 2, 1)
	res.phaseLine("view-off", off.remote)
	res.phaseLine("view-on", on.remote)
	steps := float64(on.remote.attempted)
	tr.m["trace.overhead_share"] = 1 - (steps/on.remote.wall)/(float64(off.remote.attempted)/off.remote.wall)
	tr.m["core.step_ms_p50"] = median(on.stepMs)
	tr.m["e2e.p99_ms"] = slices.Max(on.stepMs) // two steps: the slower
	tr.m["core.view_ms_per_step"] = float64(on.viewNs) / 1e6 / steps
	tr.m["core.view_calls_per_step"] = float64(on.viewOps) / steps
	tr.m["core.compute_self_ms_per_step"] = tr.m["core.step_ms_p50"] - tr.m["core.view_ms_per_step"]
	tr.m["rpc.read_ops_per_step"] = float64(on.opRead) / steps
	tr.m["core.local_step_ms_p50"] = off.local.wall * 1e3 / float64(off.local.attempted)
}

// stageReplay replays generated requests stage by stage on this
// goroutine, mirroring serve.Server.worker through the public calls,
// beside the same request over HTTP and through SubmitReq, and prints
// the stage table. retrieve_cold replays first touches on a fresh tier.
func (tr *tracer) stageReplay(load *load) {
	rg, rec, m := tr.rg, tr.rec, tr.m
	cfg := serveCfg
	esc, ssc := rg.idx.emb.NewScratch(), rg.idx.ix.NewSearchScratch()
	resp := make(chan serve.Response, 1)
	cl := &client{c: rg.conns[0]}
	run := newRetrieveRun(rg, load)

	replay := func(t *tier, prefix string, req int, u, q graph.NodeID) {
		parent := rec.open(prefix+"replay", 0, req)
		var eu, eq *serve.Entry
		rec.call(prefix+"cache.get", parent, req, func() { eu = t.cache.GetBy(u, tr.r, time.Time{}) })
		rec.call(prefix+"cache.get", parent, req, func() { eq = t.cache.GetBy(q, tr.r, time.Time{}) })
		var uq []float32
		rec.call(prefix+"embed", parent, req, func() { uq = rg.idx.emb.UserQuery(u, q, eu.Neighbors(), eq.Neighbors(), esc) })
		eu.Release()
		eq.Release()
		var found []ann.Result
		rec.call(prefix+"search", parent, req, func() { found = rg.idx.ix.SearchInto(uq, cfg.TopK, cfg.NProbe, ssc) })
		rec.call(prefix+"copy", parent, req, func() { copy(make([]ann.Result, len(found)), found) })
		rec.close(parent)
	}
	submit := func(t *tier, name string, req int, rq serve.Request) {
		rec.call(name, 0, req, func() {
			if t.srv.SubmitReq(rq, resp) {
				<-resp
			}
		})
	}
	httpGet := func(name, route string, req int, u, q graph.NodeID) {
		run.route = route
		run.pairAt = func(int) (graph.NodeID, graph.NodeID) { return u, q }
		tr.call(name, 0, req, func() error { return run.doRetrieve(cl, 1) })
	}

	// The hit path, on the warm tier: every workload reports these.
	for i := 0; i < stageCalls; i++ {
		u, q := load.pairs[i][0], load.pairs[i][1]
		httpGet("http.retrieve.bin", "/v1/retrieve.bin", i, u, q)
		httpGet("http.retrieve.json", "/v1/retrieve", i, u, q)
		submit(rg.tier, "serve.submit", i, serve.Request{User: u, Query: q})
		submit(rg.tier, "serve.submit.cacheonly", i, serve.Request{User: u, Query: q, CacheOnly: true})
		replay(rg.tier, "", i, u, q)
	}
	m["serve.submit_rtt_us_p50"] = rec.p50("serve.submit")
	m["serve.cacheonly_rtt_us_p50"] = rec.p50("serve.submit.cacheonly")
	m["gateway.bin_overhead_us_p50"] = rec.p50("http.retrieve.bin") - rec.p50("serve.submit")
	m["gateway.json_overhead_us_p50"] = rec.p50("http.retrieve.json") - rec.p50("serve.submit")
	m["serve.cache_hit_us_p50"] = rec.p50("cache.get")
	m["serve.embed_us_p50"] = rec.p50("embed")
	m["ann.search_us_p50"] = rec.p50("search")
	if tr.queuedUs > 0 {
		m["serve.queue_wait_us_p50"] = tr.queuedUs - rec.p50("replay")
	}

	prefix := ""
	if tr.o.workload == "retrieve_cold" {
		// First touches: three disjoint thirds of one sweep's pairs on a
		// fresh tier, so the HTTP request, the SubmitReq and the replay
		// each miss twice.
		prefix = "cold."
		cold := newTier(rg.w, rg.idx, 1<<21)
		defer cold.Close()
		rg.front.serve(cold)
		defer rg.front.serve(rg.tier)
		pu, pq := tr.r.Perm(len(rg.w.users)), tr.r.Perm(len(rg.w.queries))
		pair := func(i int) (graph.NodeID, graph.NodeID) { return rg.w.users[pu[i]], rg.w.queries[pq[i]] }
		for i := 0; i < stageCalls; i++ {
			u, q := pair(3 * i)
			httpGet("cold.http.retrieve.bin", "/v1/retrieve.bin", i, u, q)
			u, q = pair(3*i + 1)
			submit(cold, "cold.serve.submit", i, serve.Request{User: u, Query: q})
			u, q = pair(3*i + 2)
			replay(cold, "cold.", i, u, q)
		}
	}
	httpP50, submitP50 := rec.p50(prefix+"http.retrieve.bin"), rec.p50(prefix+"serve.submit")
	stages := 2*rec.p50(prefix+"cache.get") + rec.p50(prefix+"embed") + rec.p50(prefix+"search") + rec.p50(prefix+"copy")
	m["trace.unattributed_share"] = (submitP50 - stages) / httpP50

	fmt.Printf("stage table (%srequests, p50 µs of %d calls each)\n", prefix, stageCalls)
	row := func(name string, us float64) { fmt.Printf("  %-34s %9.1f  %5.1f%%\n", name, us, 100*us/httpP50) }
	row("http round trip", httpP50)
	row("  gateway + HTTP (http − submit)", httpP50-submitP50)
	row("  serve.SubmitReq round trip", submitP50)
	row("    cache get ×2", 2*rec.p50(prefix+"cache.get"))
	row("    embed", rec.p50(prefix+"embed"))
	row("    ann search", rec.p50(prefix+"search"))
	row("    result copy", rec.p50(prefix+"copy"))
	row("    unattributed (queue hand-off)", submitP50-stages)
}

// sampleChain times the nested single-id sampling calls on the same
// first-touch ids: cache miss fill ⊃ engine ⊃ RPC stub ⊃ local shard.
// A layer's self time is the difference of its median and its child's.
func (tr *tracer) sampleChain() {
	rg, rec, m := tr.rg, tr.rec, tr.m
	w := rg.w
	k := serveCfg.CacheK
	remote := func(id graph.NodeID) *rpc.RemoteShard { return w.eng.Backend(w.eng.ShardOf(id)).(*rpc.RemoteShard) }

	cache := serve.NewNeighborCache(w.eng, k, w.seed+50)
	defer cache.Close()
	ids := tr.r.Perm(len(w.users))[:sampleCalls]
	buf := make([]graph.NodeID, k)
	for i, ix := range ids {
		id := w.users[ix]
		fill := rec.call("cache.miss_fill", 0, i, func() { cache.GetBy(id, tr.r, time.Time{}).Release() })
		eng := tr.call("engine.sample", fill, i, func() error {
			_, err := w.eng.TrySampleNeighborsIntoBy(id, buf, tr.r, time.Time{})
			return err
		})
		stub := tr.call("rpc.sample", eng, i, func() error {
			_, err := remote(id).SampleIntoBy(id, buf, tr.r, time.Time{})
			return err
		})
		rec.call("shard.draw", stub, i, func() { tr.local[w.eng.ShardOf(id)].SampleNeighborsInto(id, buf, tr.r) })
		tr.call("rpc.neighbors", 0, i, func() error {
			_, err := remote(id).NeighborsOf(id)
			return err
		})
	}
	m["serve.cache_miss_fill_us_p50"] = rec.p50("cache.miss_fill")
	m["engine.sample_us_p50"] = rec.p50("engine.sample")
	m["rpc.sample_rtt_us_p50"] = rec.p50("rpc.sample")
	m["engine.shard_draw_us_p50"] = rec.p50("shard.draw")
	m["engine.route_self_us_p50"] = m["engine.sample_us_p50"] - m["rpc.sample_rtt_us_p50"]
	m["rpc.wire_self_us_p50"] = m["rpc.sample_rtt_us_p50"] - m["engine.shard_draw_us_p50"]
	m["rpc.neighbors_rtt_us_p50"] = rec.p50("rpc.neighbors")
	fmt.Printf("miss chain (p50 µs of %d calls): cache fill %.1f ⊃ engine %.1f ⊃ rpc stub %.1f ⊃ shard draw %.1f\n",
		sampleCalls, m["serve.cache_miss_fill_us_p50"], m["engine.sample_us_p50"], m["rpc.sample_rtt_us_p50"], m["engine.shard_draw_us_p50"])

	// The refresher's call: 64 ids × k. The stub's batch takes ids of one
	// shard, indexed by their place in the batch.
	bs := engine.NewBatchScratch()
	batch := make([]graph.NodeID, refreshBatch)
	out, ns := make([]graph.NodeID, refreshBatch*k), make([]int32, refreshBatch)
	shard0 := make([]graph.NodeID, 0, refreshBatch)
	idx := make([]int32, refreshBatch)
	for i := range idx {
		idx[i] = int32(i)
	}
	for _, id := range w.users {
		if w.eng.ShardOf(id) == 0 && len(shard0) < refreshBatch {
			shard0 = append(shard0, id)
		}
	}
	for i := 0; i < batchCalls; i++ {
		for j := range batch {
			batch[j] = w.users[tr.r.Intn(len(w.users))]
		}
		tr.call("engine.batch64", 0, i, func() error {
			_, err := w.eng.SampleNeighborsBatchInto(batch, k, out, ns, tr.r, bs)
			return err
		})
		tr.call("rpc.batch64", 0, i, func() error {
			_, err := remote(shard0[0]).SampleBatchInto(shard0, idx, uint64(i), k, out, ns)
			return err
		})
		tr.call("engine.tree", 0, i, func() error {
			_, err := w.eng.SampleTree(batch[0], 2, 10, tr.r, bs)
			return err
		})
	}
	m["engine.batch64_us_p50"] = rec.p50("engine.batch64")
	m["rpc.batch64_rtt_us_p50"] = rec.p50("rpc.batch64")
	m["engine.tree_us_p50"] = rec.p50("engine.tree")
}

// appendChain times the nested durable-append calls: POST /v1/append ⊃
// Engine.Append ⊃ RemoteShard.AppendEdges ⊃ WAL.Append + ApplyAppend.
func (tr *tracer) appendChain(load *load) {
	rg, rec, m := tr.rg, tr.rec, tr.m
	w := rg.w
	run := newRetrieveRun(rg, load)
	cl := &client{c: rg.conns[0]}

	// One shard's edges, for the calls below the engine's routing.
	var own []ingest.Edge
	for _, b := range load.batches {
		for _, e := range b {
			if w.eng.ShardOf(e.Src) == 0 && len(own) < appendBatch {
				own = append(own, e)
			}
		}
	}
	stub := w.eng.Backend(0).(*rpc.RemoteShard)
	var synced, unsynced *ingest.WAL
	tr.call("wal.open", 0, 0, func() (err error) {
		if synced, _, err = ingest.Open(filepath.Join(w.walDir, "probe-fsync"), ingest.Options{Fsync: true}); err != nil {
			return err
		}
		unsynced, _, err = ingest.Open(filepath.Join(w.walDir, "probe-nofsync"), ingest.Options{})
		return err
	})
	if synced == nil || unsynced == nil {
		return
	}
	defer synced.Close()
	defer unsynced.Close()

	for i := 0; i < appendCalls; i++ {
		b := len(load.batches) - 1 - i // batches the phases never reached
		post := tr.call("http.append", 0, i, func() error { return run.doAppend(cl, b) })
		eng := tr.call("engine.append64", post, i, func() error {
			_, err := w.eng.Append(load.batches[b-appendCalls])
			return err
		})
		rpcSpan := tr.call("rpc.append64", eng, i, func() error {
			_, err := stub.AppendEdges(own)
			return err
		})
		tr.call("wal.append.fsync", rpcSpan, i, func() error { return synced.Append(uint64(i+1), own) })
		tr.call("shard.apply", rpcSpan, i, func() error {
			_, _, err := tr.local[0].ApplyAppend(uint64(i+1), own)
			return err
		})
	}
	for i := 0; i < 10*appendCalls; i++ {
		tr.call("wal.append.nofsync", 0, i, func() error { return unsynced.Append(uint64(i+1), own) })
	}
	m["engine.append64_us_p50"] = rec.p50("engine.append64")
	m["rpc.append64_rtt_us_p50"] = rec.p50("rpc.append64")
	m["ingest.append_fsync_us_p50"] = rec.p50("wal.append.fsync")
	m["ingest.append_nofsync_us_p50"] = rec.p50("wal.append.nofsync")
	m["engine.delta_apply_us_p50"] = rec.p50("shard.apply")
	fmt.Printf("append chain (p50 µs of %d calls, 64 edges): POST %.1f ⊃ engine (≤4 shards) %.1f ⊃ rpc stub (1 shard) %.1f ⊃ WAL fsync %.1f + delta apply %.1f\n",
		appendCalls, rec.p50("http.append"), m["engine.append64_us_p50"], m["rpc.append64_rtt_us_p50"], m["ingest.append_fsync_us_p50"], m["engine.delta_apply_us_p50"])
}

// roiProbes times training's graph reads over the remote view: one
// focal-biased sample and one 2-hop ROI tree, as core.Zoomer builds them.
func (tr *tracer) roiProbes() {
	w := tr.rg.w
	view := w.view()
	fb, sc := sampling.NewFocalBiased(), sampling.NewScratch()
	ego := func(i int) graph.NodeID { return w.users[(i*7919)%len(w.users)] }
	for i := 0; i < focalCalls; i++ {
		focal := view.Content(w.queries[i%len(w.queries)])
		tr.rec.call("sampling.focal", 0, i, func() { fb.Sample(view, ego(i), focal, 10, tr.r, sc) })
	}
	for i := 0; i < treeCalls; i++ {
		focal := view.Content(w.queries[i%len(w.queries)])
		sc.Reset()
		tr.rec.call("sampling.tree", 0, i, func() { sampling.BuildTree(view, ego(i), focal, 2, 10, fb, tr.r, sc) })
	}
	tr.m["sampling.focal_us_p50"] = tr.rec.p50("sampling.focal")
	tr.m["sampling.tree_us_p50"] = tr.rec.p50("sampling.tree")
}

// replayWAL stops the system and reopens the WALs the run left behind:
// what a restart would replay.
func (tr *tracer) replayWAL() {
	tr.rg.stop()
	start := time.Now()
	for s := 0; s < numShards; s++ {
		wal, _, err := ingest.Open(filepath.Join(tr.rg.w.walDir, fmt.Sprintf("shard-%d", s)), ingest.Options{})
		if err == nil {
			wal.Close()
		}
	}
	tr.m["ingest.replay_ms"] = ms(time.Since(start))
}
