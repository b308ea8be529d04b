package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zoomer/internal/gateway"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/rng"
	"zoomer/internal/rpc"
)

// rig is a whole bring-up: world and cluster, exported index, serving
// tier behind the HTTP front, and the client connections.
type rig struct {
	w     *world
	idx   *index
	tier  *tier
	front *front
	conns []*conn
	// scraper reads /metrics between phases, on a connection of its own.
	scraper *conn
}

// setupRig performs the bring-up setup_s measures: world build →
// cluster dialled → index built → (warm) cache warmed → clients
// connected.
func setupRig(seed uint64, tmp string, warm bool) (*rig, error) {
	w, err := buildWorld(seed, tmp)
	if err != nil {
		return nil, err
	}
	r := &rig{w: w}
	r.idx = untrainedIndex(w)
	r.tier = newTier(w, r.idx, 0)
	if warm {
		r.tier.warm(w)
	}
	if r.front, err = newFront(); err != nil {
		r.Close()
		return nil, err
	}
	r.front.serve(r.tier)
	for i := 0; i < clients; i++ {
		c, err := dialConn(r.front.addr())
		if err != nil {
			r.Close()
			return nil, err
		}
		r.conns = append(r.conns, c)
	}
	if r.scraper, err = dialConn(r.front.addr()); err != nil {
		r.Close()
		return nil, err
	}
	return r, nil
}

// stop shuts the clients, the front, the tier and the cluster down and
// leaves the WAL directory behind.
func (r *rig) stop() {
	for _, c := range r.conns {
		c.Close()
	}
	if r.scraper != nil {
		r.scraper.Close()
	}
	if r.front != nil {
		r.front.Close()
	}
	if r.tier != nil {
		r.tier.Close()
	}
	r.conns, r.scraper, r.front, r.tier = nil, nil, nil, nil
	r.w.Close()
}

func (r *rig) Close() {
	r.stop()
	r.w.removeWAL()
}

// repeatSetup brings the system up setupRepeats times, keeps the last
// bring-up and returns the median bring-up time. Discarded bring-ups
// are torn down and collected off the clock so mem_peak_mb reflects one.
func repeatSetup[T interface{ Close() }](setup func() (T, error)) (T, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		r, err := setup()
		if err != nil {
			return r, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setupRepeats-1 {
			return r, median(times), nil
		}
		r.Close()
		runtime.GC()
		debug.FreeOSMemory()
	}
}

// load is a retrieve run's generated input: everything the program
// receives is derived from -seed here.
type load struct {
	pairs   [][2]graph.NodeID // (user, query) by slot, Zipf-skewed; wraps
	batches [][]ingest.Edge   // append batches by append number; wraps
}

const (
	loadPairs   = 1 << 17
	loadBatches = 1 << 13
)

// zipfPool draws ids Zipf-skewed from pool; popularity rank is a seeded
// permutation of the pool, so hot ids spread over the shards.
type zipfPool struct {
	z    *rng.Zipf
	pool []graph.NodeID
	rank []int
}

func newZipfPool(r *rng.RNG, pool []graph.NodeID) *zipfPool {
	return &zipfPool{z: rng.NewZipf(r, len(pool), zipfExp), pool: pool, rank: r.Perm(len(pool))}
}

func (p *zipfPool) draw() graph.NodeID { return p.pool[p.rank[p.z.Sample()]] }

func genLoad(w *world, seed uint64, appends bool) *load {
	r := rng.New(seed ^ 0x5eed)
	users, queries := newZipfPool(r, w.users), newZipfPool(r, w.queries)
	l := &load{pairs: make([][2]graph.NodeID, loadPairs)}
	for i := range l.pairs {
		l.pairs[i] = [2]graph.NodeID{users.draw(), queries.draw()}
	}
	if appends {
		// Sources come from the same Zipf as the reads, so written
		// nodes are read nodes.
		l.batches = make([][]ingest.Edge, loadBatches)
		for i := range l.batches {
			b := make([]ingest.Edge, appendBatch)
			for j := range b {
				b[j] = ingest.Edge{Src: users.draw(), Dst: w.items[r.Intn(len(w.items))], Type: graph.Click, Weight: 1}
			}
			l.batches[i] = b
		}
	}
	return l
}

// client is one connection's scratch.
type client struct {
	c    *conn
	path []byte
	json bytes.Buffer
}

// retrieveRun drives one retrieve workload's operations.
type retrieveRun struct {
	rig     *rig
	load    *load
	clients []*client
	route   string // /v1/retrieve.bin unless the trace compares JSON

	// pairAt maps a slot to its (user, query); cold sweeps replace it.
	pairAt func(slot int) (u, q graph.NodeID)
	// appendAt reports whether slot is an append batch, and which.
	appendAt func(slot int) (batch int, ok bool)

	ackedEdges atomic.Int64
	ackedMu    sync.Mutex
	acked      []int // batch numbers acknowledged

	replyBytes atomic.Int64
	replies    atomic.Int64
	failures   atomic.Int64

	checkedReplies, shortReplies atomic.Int64

	rec *recorder // spans, when tracing
}

func newRetrieveRun(rg *rig, l *load) *retrieveRun {
	r := &retrieveRun{rig: rg, load: l, route: "/v1/retrieve.bin"}
	for _, c := range rg.conns {
		r.clients = append(r.clients, &client{c: c})
	}
	r.pairAt = func(slot int) (graph.NodeID, graph.NodeID) {
		p := l.pairs[slot%len(l.pairs)]
		return p[0], p[1]
	}
	r.appendAt = func(int) (int, bool) { return 0, false }
	return r
}

// mixAppends makes every appendEvery-th operation an append batch.
func (r *retrieveRun) mixAppends() {
	r.pairAt = func(slot int) (graph.NodeID, graph.NodeID) {
		p := r.load.pairs[(slot-slot/appendEvery)%len(r.load.pairs)]
		return p[0], p[1]
	}
	r.appendAt = func(slot int) (int, bool) {
		return slot / appendEvery, slot%appendEvery == appendEvery-1
	}
}

// do is the doFunc of every retrieve phase.
func (r *retrieveRun) do(worker, slot int) bool {
	name := "http.retrieve"
	b, isAppend := r.appendAt(slot)
	if isAppend {
		name = "http.append"
	}
	var id int
	if r.rec != nil {
		id = r.rec.open(name, 0, slot)
	}
	var err error
	if isAppend {
		err = r.doAppend(r.clients[worker], b)
	} else {
		err = r.doRetrieve(r.clients[worker], slot)
	}
	if r.rec != nil {
		r.rec.close(id)
	}
	if err != nil && r.failures.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: slot %d %s failed: %v\n", slot, name, err)
	}
	return err == nil
}

func (r *retrieveRun) doRetrieve(cl *client, slot int) error {
	u, q := r.pairAt(slot)
	cl.path = append(cl.path[:0], r.route...)
	cl.path = append(cl.path, "?user="...)
	cl.path = strconv.AppendInt(cl.path, int64(u), 10)
	cl.path = append(cl.path, "&query="...)
	cl.path = strconv.AppendInt(cl.path, int64(q), 10)
	rp, err := cl.c.get(cl.path)
	if err != nil {
		return err
	}
	if rp.status != 200 || rp.degraded {
		return fmt.Errorf("status %d degraded=%v: %s", rp.status, rp.degraded, bytes.TrimSpace(rp.body))
	}
	r.replyBytes.Add(int64(len(rp.body)))
	r.replies.Add(1)
	if slot%sampleEvery != 0 {
		return nil
	}
	return r.checkReply(rp.body)
}

// checkReply is the output check on a retrieval answer: it decodes,
// holds TopK items of item type, and scores never increase.
func (r *retrieveRun) checkReply(body []byte) error {
	var items []gateway.Item
	if r.route == "/v1/retrieve.bin" {
		var degraded bool
		var err error
		if items, degraded, err = gateway.DecodeBinary(body); err != nil || degraded {
			return fmt.Errorf("bad binary reply: degraded=%v err=%v", degraded, err)
		}
	} else {
		var jr struct{ Items []gateway.Item }
		if err := json.Unmarshal(body, &jr); err != nil {
			return err
		}
		items = jr.Items
	}
	// Four probed lists of ~64 items can hold fewer than TopK (README.md,
	// "Findings"), so a short reply is counted, not failed.
	if topK := serveCfg.TopK; len(items) == 0 || len(items) > topK {
		return fmt.Errorf("reply holds %d items, want 1..%d", len(items), topK)
	} else if len(items) < topK {
		r.shortReplies.Add(1)
	}
	r.checkedReplies.Add(1)
	for i, it := range items {
		if it.ID < 0 || it.ID >= int64(r.rig.w.g.NumNodes()) || r.rig.w.mapping.Type(graph.NodeID(it.ID)) != graph.Item {
			return fmt.Errorf("reply item %d is not an item node", it.ID)
		}
		if i > 0 && it.Score > items[i-1].Score {
			return fmt.Errorf("reply scores increase at rank %d", i)
		}
	}
	return nil
}

func (r *retrieveRun) doAppend(cl *client, batch int) error {
	edges := r.load.batches[batch%len(r.load.batches)]
	cl.json.Reset()
	cl.json.WriteString(`{"edges":[`)
	for i, e := range edges {
		if i > 0 {
			cl.json.WriteByte(',')
		}
		fmt.Fprintf(&cl.json, `{"src":%d,"dst":%d,"type":%d,"weight":%g}`, e.Src, e.Dst, e.Type, e.Weight)
	}
	cl.json.WriteString(`]}`)
	rp, err := cl.c.post("/v1/append", cl.json.Bytes())
	if err != nil {
		return err
	}
	var ar struct{ Appended int }
	if rp.status != 200 || json.Unmarshal(rp.body, &ar) != nil || ar.Appended != len(edges) {
		return fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	r.ackedEdges.Add(int64(len(edges)))
	r.ackedMu.Lock()
	r.acked = append(r.acked, batch)
	r.ackedMu.Unlock()
	return nil
}

// checkAppends verifies the write path's outputs: the shards' delta
// edge counts sum to the acknowledged edges (none on a workload without
// appends), and a sample of the acknowledged edges reads back through
// Engine.Neighbors.
func (r *retrieveRun) checkAppends() error {
	var delta uint64
	for _, st := range r.rig.w.cluster.IngestStats() {
		delta += st.DeltaEdges
	}
	if want := r.ackedEdges.Load(); int64(delta) != want {
		return fmt.Errorf("shards hold %d delta edges, %d were acknowledged", delta, want)
	}
	step := len(r.acked)/200 + 1
	for i := 0; i < len(r.acked); i += step {
		e := r.load.batches[r.acked[i]%len(r.load.batches)][i%appendBatch]
		found := false
		for _, nb := range r.rig.w.eng.Neighbors(e.Src) {
			if nb.To == e.Dst && nb.Type == e.Type {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("acknowledged edge %d→%d is not among Neighbors(%d)", e.Src, e.Dst, e.Src)
		}
	}
	return nil
}

// recallAt replays recallQueries requests through the public stage
// calls and reports SearchInto's overlap with SearchExact. The pairs are
// a seeded permutation of the pools, not the Zipf stream: there a dozen
// hot pairs decide the figure and it moves ±6 % with the seed.
func recallAt(rg *rig) float64 {
	r := rng.New(rg.w.seed + 30)
	pu, pq := r.Perm(len(rg.w.users)), r.Perm(len(rg.w.queries))
	esc, ssc := rg.idx.emb.NewScratch(), rg.idx.ix.NewSearchScratch()
	exact := map[int64]bool{}
	var overlap, total int
	for i := 0; i < recallQueries; i++ {
		u, q := rg.w.users[pu[i]], rg.w.queries[pq[i]]
		eu, eq := rg.tier.cache.Get(u, r), rg.tier.cache.Get(q, r)
		uq := rg.idx.emb.UserQuery(u, q, eu.Neighbors(), eq.Neighbors(), esc)
		eu.Release()
		eq.Release()
		clear(exact)
		for _, it := range rg.idx.ix.SearchExact(uq, serveCfg.TopK) {
			exact[it.ID] = true
		}
		for _, it := range rg.idx.ix.SearchInto(uq, serveCfg.TopK, serveCfg.NProbe, ssc) {
			if exact[it.ID] {
				overlap++
			}
		}
		total += len(exact)
	}
	return float64(overlap) / float64(total)
}

// Indices into counters.
const (
	cHits = iota
	cMisses
	cRefreshes
	cOpSample
	cOpBatch
	cDropped
	cExpired
	cShed
	cDegraded
	cDeadline
	cSeq
	cFsyncs
	cFsyncNanos
	cCompactions
	nCounters
)

// counters is a snapshot of the public counters a phase is bracketed
// with: cache, RPC server, serve and gateway (/metrics scrape), ingest.
type counters [nCounters]int64

func (rg *rig) counters() (c counters) {
	t := rg.tier
	c[cHits], c[cMisses], c[cRefreshes] = t.cache.Stats()
	c[cOpSample] = rg.w.opCount(rpc.OpSample)
	c[cOpBatch] = rg.w.opCount(rpc.OpBatch)
	c[cDropped], c[cExpired] = t.srv.Dropped(), t.srv.Expired()
	if rp, err := rg.scraper.get([]byte("/metrics")); err == nil {
		c[cShed] = promSum(rp.body, "zoomer_gateway_shed_total")
		c[cDegraded] = promSum(rp.body, "zoomer_gateway_degraded_total")
		c[cDeadline] = promSum(rp.body, "zoomer_gateway_deadline_exceeded_total")
	}
	for _, st := range rg.w.cluster.IngestStats() {
		c[cSeq] += int64(st.Seq)
		c[cFsyncs] += int64(st.Fsyncs)
		c[cFsyncNanos] += int64(st.FsyncNanos)
		c[cCompactions] += int64(st.Compactions)
	}
	return c
}

// promSum sums every sample of one metric family on a /metrics page.
func promSum(page []byte, family string) int64 {
	var sum float64
	for _, line := range bytes.Split(page, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(family))
		if !ok || len(rest) == 0 || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		v, _ := strconv.ParseFloat(string(rest[bytes.LastIndexByte(rest, ' ')+1:]), 64)
		sum += v
	}
	return int64(sum)
}

// addDelta adds after − before.
func (c *counters) addDelta(after, before counters) {
	for i := range c {
		c[i] += after[i] - before[i]
	}
}

// retrieveResult is what a retrieve workload's timed phases produced.
type retrieveResult struct {
	closed, open phase
	delta        counters // over closed + open
	recall       float64
	checkErr     error
}

func (rr retrieveResult) hitShare() float64 {
	return float64(rr.delta[cHits]) / float64(rr.delta[cHits]+rr.delta[cMisses])
}

// perOp is a counter's delta per operation of the closed and open phases.
func (rr retrieveResult) perOp(counter int) float64 {
	return float64(rr.delta[counter]) / float64(rr.closed.attempted+rr.open.attempted)
}

// driver runs a retrieve workload's phases and brackets each with the
// public counters.
type driver struct {
	name  string
	rg    *rig
	run   *retrieveRun
	sweep int      // cold sweeps so far
	delta counters // over every phase so far
}

func newDriver(name string, rg *rig, run *retrieveRun) *driver {
	if name == "retrieve_append" {
		run.mixAppends()
	}
	return &driver{name: name, rg: rg, run: run}
}

func (d *driver) bracket(loop func() phase) phase {
	before := d.rg.counters()
	p := loop()
	d.delta.addDelta(d.rg.counters(), before)
	return p
}

// coldSweep is one sweep of retrieve_cold: a fresh tier swapped behind
// the front (off the clock), then one request per query, each with a
// distinct user — a seeded permutation of the users against one of the
// queries — so every request is exactly two synchronous miss fills.
func (d *driver) coldSweep(loop func() phase) phase {
	d.sweep++
	rg := d.rg
	old := rg.tier
	rg.tier = newTier(rg.w, rg.idx, uint64(d.sweep))
	rg.front.serve(rg.tier)
	old.Close()
	pr := rng.New(rg.w.seed ^ uint64(d.sweep)<<32)
	pu, pq := pr.Perm(len(rg.w.users)), pr.Perm(len(rg.w.queries))
	d.run.pairAt = func(slot int) (graph.NodeID, graph.NodeID) {
		return rg.w.users[pu[slot]], rg.w.queries[pq[slot]]
	}
	return d.bracket(loop)
}

// closed sends back to back on every connection for dur; retrieve_cold
// ends at the first sweep boundary past it.
func (d *driver) closed(dur time.Duration) phase {
	if d.name != "retrieve_cold" {
		return d.bracket(func() phase { return closedLoop(clients, 0, dur, d.run.do) })
	}
	var p phase
	for p.wall < dur.Seconds() {
		p.add(d.coldSweep(func() phase { return closedLoop(clients, coldSweep, 0, d.run.do) }))
	}
	return p
}

// warmUp runs the closed loop untimed for a twentieth of the run, which
// the first second of every workload needs (measured: retrieve_hot's
// first second completes 14.4k requests, every later one 17.3k ± 3 %).
func (d *driver) warmUp(seconds float64) {
	d.closed(time.Duration(seconds / 20 * float64(time.Second)))
	d.delta = counters{}
}

// open offers the workload's fixed rate for about dur; retrieve_cold
// runs the whole sweeps nearest to it.
func (d *driver) open(dur time.Duration) phase {
	rate := openRate[d.name]
	interval := time.Duration(float64(time.Second) / rate)
	if d.name != "retrieve_cold" {
		n := int(rate * dur.Seconds())
		return d.bracket(func() phase { return openLoop(clients, n, interval, d.run.do) })
	}
	sweeps := max(1, int(rate*dur.Seconds()/coldSweep+0.5))
	var p phase
	for s := 0; s < sweeps; s++ {
		p.add(d.coldSweep(func() phase { return openLoop(clients, coldSweep, interval, d.run.do) }))
	}
	return p
}

// runRetrieve runs a workload's closed and open phases for about
// seconds in total, then the output checks.
func runRetrieve(d *driver, seconds float64) retrieveResult {
	var res retrieveResult
	d.warmUp(seconds)
	// Closed and open slices alternate so each metric samples the whole
	// run: this box's speed drifts over tens of seconds.
	slice := func(share float64) time.Duration {
		return time.Duration(share * seconds / rounds * float64(time.Second))
	}
	for i := 0; i < rounds; i++ {
		closed := d.closed(slice(closedShare))
		open := d.open(slice(1 - closedShare))
		fmt.Printf("round %d: closed %.1f ops/s, open p50 %.4f ms\n", i+1, float64(closed.attempted)/closed.wall, median(open.lat))
		res.closed.add(closed)
		res.open.add(open)
	}
	res.delta = d.delta
	res.recall = recallAt(d.rg)
	res.checkErr = d.run.checkAppends()
	return res
}
