package rpc

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

// ErrShardUnavailable is the typed transport failure: the shard server
// could not be reached, the connection died mid-call, or the client's
// failure circuit is open and refused the call outright. Engine batch
// errors wrap it, so callers check
// errors.Is(err, rpc.ErrShardUnavailable) at any layer. It aliases the
// engine's sentinel so the engine can recognize a transport failure —
// and fail over to a sibling replica — without importing this package.
var ErrShardUnavailable = engine.ErrShardUnavailable

// remoteError is an application-level failure the server answered with
// (bad request, out-of-range node). The connection is healthy and the
// call must not be retried.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "rpc: server: " + e.msg }

// Is re-types well-known server-answered failures that crossed the wire
// as strings: an append rejected by validation carries the
// engine.ErrBadAppend marker in its message, and matching it again
// client-side keeps remote shards indistinguishable from local ones for
// callers that branch on the sentinel (the gateway's 400 mapping,
// Engine.Append's no-retry rule).
func (e *remoteError) Is(target error) bool {
	return target == engine.ErrBadAppend && strings.Contains(e.msg, engine.ErrBadAppend.Error())
}

// movedError is the wrong-epoch redirect: the server's answer — over a
// healthy connection — that it no longer (or never) owned the target
// partition, with its current routing epoch. Handlers return it, serve
// sends it as a statusMoved frame, and the client decodes it back. It
// matches engine.ErrWrongEpoch under errors.Is, which is what makes the
// engine refresh its ownership view and retry instead of surfacing the
// failure; like remoteError it is not a transport failure, so it neither
// trips the health circuit nor burns the retry-on-fresh-connection attempt.
type movedError struct {
	shard int
	epoch uint64
}

func (e *movedError) Error() string {
	return fmt.Sprintf("rpc: shard %d moved (server routing epoch %d): %v", e.shard, e.epoch, engine.ErrWrongEpoch)
}

// Is makes errors.Is(err, engine.ErrWrongEpoch) true for the redirect.
func (e *movedError) Is(target error) bool { return target == engine.ErrWrongEpoch }

// permanent reports whether err is a server-answered outcome on a healthy
// connection — a remote application error or a wrong-epoch redirect — as
// opposed to a transport failure that should count against the health
// circuit and be retried on a fresh connection.
func permanent(err error) bool {
	var re *remoteError
	var mv *movedError
	return errors.As(err, &re) || errors.As(err, &mv)
}

// defaultTimeout bounds dial and per-call I/O, guaranteeing a dead peer
// surfaces as ErrShardUnavailable instead of a hang.
const defaultTimeout = 5 * time.Second

// Every client pools defaultConns multiplexed connections — more spread
// head-of-line blocking on the kernel socket, not request slots — of
// defaultWindow in-flight requests each; a caller finding every slot of
// its connection taken blocks until one frees, bounded by Timeout. The
// health circuit (see admit) opens after circuitFailures consecutive
// transport failures.
const (
	defaultConns    = 2
	defaultWindow   = 32
	circuitFailures = 3
)

// ClientConfig bounds a client's calls.
type ClientConfig struct {
	// Timeout bounds dialing and each request's in-flight time (default
	// defaultTimeout).
	Timeout time.Duration

	// conns, window and failThreshold override the pool constants (zero:
	// the constant): probe, admin, announce and fan-out clients hold one
	// connection, and tests shrink the window and the threshold.
	conns, window, failThreshold int
}

func (cfg ClientConfig) withDefaults() ClientConfig {
	if cfg.conns <= 0 {
		cfg.conns = defaultConns
	}
	if cfg.window <= 0 {
		cfg.window = defaultWindow
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultTimeout
	}
	if cfg.failThreshold <= 0 {
		cfg.failThreshold = circuitFailures
	}
	return cfg
}

// breakerDecay is how long an open circuit reports unhealthy after its
// last failure. Past it the circuit is half-open: Healthy admits callers
// again, and admit lets exactly one of them through as the probe — its
// failure re-opens the circuit for another breakerDecay, its success
// closes it. So a server that stays dark costs callers that consult
// Healthy one failed call per breakerDecay, not circuitFailures.
const breakerDecay = time.Second

// client is a multiplexed-connection client to one shard server. Calls
// share a small bounded pool of pipelined connections: a call picks a
// connection round-robin, occupies one in-flight window slot on it, and
// overlaps on the wire with every other caller's requests — no
// connection is ever checked out exclusively. Every op runs the one
// request lifecycle of do and attempt: a connection that sees a
// transport error is discarded (failing its in-flight requests with
// typed errors, never with another request's bytes) and an idempotent
// call retried once on a freshly dialed one, which is what makes a
// restarted server transparently reconnect-and-serve. Repeated failures
// open a health circuit: one probe call dials at a time while every
// other caller adopts the probe's outcome, replacing redial-per-call
// dial storms. Safe for concurrent use; the steady-state
// sample/batch/read-nodes path reuses per-slot scratch and performs no
// heap allocation.
type client struct {
	addr string
	cfg  ClientConfig

	mu     sync.Mutex
	conns  []*muxConn // fixed length cfg.conns; nil until first use
	closed bool
	next   atomic.Uint32 // round-robin connection cursor

	hmu       sync.Mutex // health circuit state
	fails     int
	probeDone chan struct{} // non-nil while a probe call is in flight
	lastErr   time.Time
}

// newClient returns a client for the shard server at addr with the pool
// bounds of cfg. No connection is made until the first call.
func newClient(addr string, cfg ClientConfig) *client {
	cfg = cfg.withDefaults()
	return &client{addr: addr, cfg: cfg, conns: make([]*muxConn, cfg.conns)}
}

// Healthy reports whether the failure circuit would admit a call right
// now — false while the circuit is open (consecutive transport failures
// at or over the threshold, with the decay window not yet elapsed). The
// engine's replica picker uses it to steer reads away from a server
// that is currently failing without ever blocking on it.
func (cl *client) Healthy() bool {
	cl.hmu.Lock()
	defer cl.hmu.Unlock()
	return cl.fails < cl.cfg.failThreshold || time.Since(cl.lastErr) > breakerDecay
}

// Addr returns the server address this client targets.
func (cl *client) Addr() string { return cl.addr }

// Close tears down the pooled connections; in-flight calls fail with
// typed errors.
func (cl *client) Close() error {
	cl.mu.Lock()
	cl.closed = true
	conns := cl.conns
	cl.conns = nil
	cl.mu.Unlock()
	for _, mc := range conns {
		if mc != nil {
			mc.close()
		}
	}
	return nil
}

// admit applies the health circuit. Below the failure threshold every
// call proceeds immediately. Above it, exactly one probe call at a time
// is allowed to touch the network; every other caller receives the
// probe's completion channel, waits for its outcome, and — if the
// circuit is still open — fails with ErrShardUnavailable without ever
// dialing. One dial attempt in flight per outage instead of one per
// caller, and a recovered server admits every waiter the moment the
// probe succeeds. The count is never reset by time alone: after
// breakerDecay the circuit is half-open (see breakerDecay), not closed.
// The probe flag must be handed back through settle.
func (cl *client) admit() (probe bool, wait chan struct{}) {
	cl.hmu.Lock()
	defer cl.hmu.Unlock()
	if cl.fails < cl.cfg.failThreshold {
		return false, nil
	}
	if cl.probeDone != nil {
		return false, cl.probeDone
	}
	cl.probeDone = make(chan struct{})
	return true, nil
}

// open reports whether the circuit is still refusing calls (a waiter's
// post-probe check).
func (cl *client) open() bool {
	cl.hmu.Lock()
	defer cl.hmu.Unlock()
	return cl.fails >= cl.cfg.failThreshold
}

// settle records a call's transport outcome in the circuit and releases
// the probe's waiters.
func (cl *client) settle(probe, failed bool) {
	cl.hmu.Lock()
	defer cl.hmu.Unlock()
	if probe && cl.probeDone != nil {
		close(cl.probeDone)
		cl.probeDone = nil
	}
	if failed {
		cl.fails++
		cl.lastErr = time.Now()
	} else {
		cl.fails = 0
	}
}

// releaseProbe abandons a probe reservation without recording an
// outcome: waiters wake, see the circuit still open and fail typed. The
// async start path uses it when the probe call cannot actually reach
// the wire (no free window slot), so no waiter is ever left waiting on
// a probe whose outcome is deferred behind the waiter's own await.
func (cl *client) releaseProbe() {
	cl.hmu.Lock()
	defer cl.hmu.Unlock()
	if cl.probeDone != nil {
		close(cl.probeDone)
		cl.probeDone = nil
	}
}

// gate combines admission and probe-waiting: it returns the probe flag
// and nil when the call may proceed, or the typed failure when the
// circuit refused it.
func (cl *client) gate() (probe bool, err error) {
	probe, wait := cl.admit()
	if wait == nil {
		return probe, nil
	}
	<-wait
	if cl.open() {
		return false, cl.unavailable(nil)
	}
	return false, nil
}

// conn returns a live pooled connection, dialing into the round-robin
// slot when it is empty or its connection has died. Every transport
// error marks its connection dead, so a retrying caller lands on a
// fresh one naturally — no forced redial, and no caller ever severs a
// live connection another caller just dialed.
func (cl *client) conn() (*muxConn, error) {
	i := int(cl.next.Add(1)) % cl.cfg.conns
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, errors.New("client closed")
	}
	if mc := cl.conns[i]; mc != nil && !mc.dead.Load() {
		cl.mu.Unlock()
		return mc, nil
	}
	cl.mu.Unlock()
	nc, err := dialMux(cl.addr, cl.cfg.window, cl.cfg.Timeout)
	if err != nil {
		return nil, err
	}
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		nc.close()
		return nil, errors.New("client closed")
	}
	if old := cl.conns[i]; old != nil && !old.dead.Load() {
		// Another caller installed a live connection while we dialed;
		// share theirs, drop ours.
		cl.mu.Unlock()
		nc.close()
		return old, nil
	} else if old != nil {
		old.close()
	}
	cl.conns[i] = nc
	cl.mu.Unlock()
	return nc, nil
}

// unavailable wraps the last transport error as the typed failure.
func (cl *client) unavailable(err error) error {
	if err == nil {
		err = errors.New("circuit open, probe in flight")
	}
	return fmt.Errorf("%w: %s: %v", ErrShardUnavailable, cl.addr, err)
}

// errDeadline wraps the typed per-call deadline failure for this server.
// It is not a transport failure: the circuit is not charged and the
// engine neither fails over nor refreshes ownership for it.
func (cl *client) errDeadline() error {
	return fmt.Errorf("rpc: %s: %w", cl.addr, engine.ErrDeadlineExceeded)
}

// budget returns the per-attempt I/O bound for a call carrying deadline:
// the configured Timeout, shrunk to the remaining budget when that is
// smaller. ok is false when the budget is already spent — the caller
// must fail typed without touching the wire. The zero deadline always
// returns the full Timeout without reading the clock.
func (cl *client) budget(deadline time.Time) (d time.Duration, ok bool) {
	d = cl.cfg.Timeout
	if deadline.IsZero() {
		return d, true
	}
	rem := time.Until(deadline)
	if rem <= 0 {
		return 0, false
	}
	if rem < d {
		d = rem
	}
	return d, true
}

// visit is the one request descriptor every op builds: the op, its
// payload, where the response lands, and the deadline. The four data ops
// encode and decode by switch, so a descriptor on the caller's stack costs
// no allocation; the cold admin ops carry a func pair instead (see call).
type visit struct {
	op       Op
	deadline time.Time // zero: bounded by the client's Timeout alone

	// OpBatch and OpReadNodes — one scatter-gather shard visit.
	gids []graph.NodeID
	idx  []int32 // entry j's batch index (OpBatch) or block position (OpReadNodes; nil = j)

	// OpSample: k draws for id go to out, the RNG state st travels out and
	// comes back advanced. OpBatch: entry j's draws go to
	// out[idx[j]*k:...], its count to ns[idx[j]].
	id   graph.NodeID
	st   [4]uint64
	base uint64
	k    int
	out  []graph.NodeID
	ns   []int32

	// OpReadNodes: attributes go to entry idx[j] of blk's columns.
	fields graph.ReadFields
	blk    *graph.NodeBlock

	// opAppend: edges for shard at seq; fanout marks a replica fan-out copy
	// the receiver must not forward again. The answer is result, lastSeq.
	shard   int
	seq     uint64
	edges   []ingest.Edge
	fanout  bool
	result  byte
	lastSeq uint64

	// Every other op: enc appends the payload (nil: none), dec reads the body.
	enc func([]byte) []byte
	dec func(body []byte) error
}

// tries is the op's attempt budget (see opSpec).
func (v *visit) tries() int { return v.op.spec().tries }

// late reports whether the visit carries a deadline that has passed.
func (v *visit) late() bool {
	return !v.deadline.IsZero() && !time.Now().Before(v.deadline)
}

func (v *visit) encode(req []byte) []byte {
	switch v.op {
	case OpSample:
		return appendSampleRequest(req, v.id, v.k, v.st)
	case OpBatch:
		return appendBatch(req, v.gids, v.idx, v.base, v.k)
	case OpReadNodes:
		return appendReadNodesRequest(req, v.gids, v.fields)
	case opAppend:
		return appendAppendRequest(req, v.shard, v.seq, v.edges, v.fanout)
	}
	if v.enc != nil {
		req = v.enc(req)
	}
	return req
}

// decode lands the response where the visit's caller wants it. It reports
// the draw count of a sample or batch, 0 for every other op.
func (v *visit) decode(body []byte) (total int, err error) {
	switch v.op {
	case OpSample:
		return decodeSample(body, v.k, v.out, &v.st)
	case OpBatch:
		return decodeBatch(body, v.gids, v.idx, v.k, v.out, v.ns)
	case OpReadNodes:
		return 0, decodeReadNodesResponse(body, v.idx, len(v.gids), v.fields, v.blk)
	case opAppend:
		v.result, v.lastSeq, err = decodeAppendResult(body)
		return 0, err
	}
	return 0, v.dec(body)
}

// attempt runs one synchronous attempt of v: pick a pooled connection,
// win a window slot within min(Timeout, remaining deadline), encode, send,
// await, decode while the slot is held, release. transport reports a
// failure of the path to the server — the dial, a window that stayed full,
// a connection that died or went silent — as opposed to an outcome the
// server or the caller's own deadline decided.
func (cl *client) attempt(v *visit) (total int, transport bool, err error) {
	d, ok := cl.budget(v.deadline)
	if !ok {
		return 0, false, cl.errDeadline()
	}
	mc, err := cl.conn()
	if err != nil {
		return 0, true, err
	}
	ct := getTimer()
	defer putTimer(ct)
	sl, req, err := mc.acquire(v.op, ct, d)
	if err != nil { // the window stayed full and nothing was sent
		return v.collect(mc, nil, nil, err)
	}
	body, err := mc.roundTrip(sl, v.encode(req), ct, d)
	return v.collect(mc, sl, body, err)
}

// collect turns what came back for a request into the attempt's outcome.
// A server-answered error or redirect arrived over a healthy connection,
// and a wait that outran the caller's deadline is not a dead server:
// neither is a transport failure. Nor is a body that does not decode, but
// it kills the connection — the stream itself is suspect — under an untyped
// cause: to the requests in flight beside it that is a transport failure.
func (v *visit) collect(mc *muxConn, sl *muxSlot, body []byte, err error) (total int, transport bool, _ error) {
	if err != nil {
		switch {
		case permanent(err) || errors.Is(err, ErrMalformedFrame):
			return 0, false, err
		case v.late():
			return 0, false, fmt.Errorf("%v: %w", err, engine.ErrDeadlineExceeded)
		}
		return 0, true, err
	}
	total, err = v.decode(body)
	mc.release(sl)
	if err != nil {
		if !errors.Is(err, ErrMalformedFrame) {
			err = fmt.Errorf("%w: %v response: %w", ErrMalformedFrame, v.op, err)
		}
		mc.fail(fmt.Errorf("rpc: connection killed: %v", err))
		return 0, false, err
	}
	return total, false, nil
}

// do runs v through the whole request lifecycle: circuit admission, the
// attempts, settlement. It reports what v.decode reports. A spent deadline
// is refused before admission, or the call could be taken for the probe
// and close an open circuit without having touched the wire.
func (cl *client) do(v *visit) (int, error) {
	if v.late() {
		return 0, cl.errDeadline()
	}
	probe, err := cl.gate()
	if err != nil {
		return 0, err
	}
	total, transport, err := cl.attempt(v)
	return cl.finish(v, probe, total, transport, err)
}

// finish takes a call from its first attempt's outcome to its result.
// Only a transport failure is retried — on a fresh connection, since the
// failure killed its own — and only one that outlives v's attempt budget
// is charged to the circuit and surfaces as ErrShardUnavailable.
func (cl *client) finish(v *visit, probe bool, total int, transport bool, err error) (int, error) {
	for n := 1; err != nil && transport && n < v.tries(); n++ {
		total, transport, err = cl.attempt(v)
	}
	cl.settle(probe, err != nil && transport)
	if err != nil && transport {
		return 0, cl.unavailable(err)
	}
	return total, err
}

// sample runs one OpSample request: k weighted draws for id, the
// caller's RNG state travelling out and the advanced state travelling
// back (st unchanged on error). n is k, or 0 for an isolated node.
func (cl *client) sample(id graph.NodeID, k int, st [4]uint64, out []graph.NodeID, deadline time.Time) (n int, newSt [4]uint64, err error) {
	v := visit{op: OpSample, deadline: deadline, id: id, k: k, st: st, out: out}
	n, err = cl.do(&v)
	return n, v.st, err
}

// appendOnce runs exactly one opAppend attempt (see visit.tries).
func (cl *client) appendOnce(shard int, seq uint64, edges []ingest.Edge, fanout bool) (result byte, lastSeq uint64, err error) {
	v := visit{op: opAppend, shard: shard, seq: seq, edges: edges, fanout: fanout}
	_, err = cl.do(&v)
	return v.result, v.lastSeq, err
}

// call runs a handshake or admin op, whose payload and response are
// composed by closures — the one path through do that allocates.
func (cl *client) call(op Op, encode func([]byte) []byte, decode func(body []byte) error) error {
	_, err := cl.do(&visit{op: op, enc: encode, dec: decode})
	return err
}

// callFor is call for an op whose response decodes to one value.
func callFor[T any](cl *client, op Op, encode func([]byte) []byte, decode func(body []byte) (T, error)) (T, error) {
	var out T
	err := cl.call(op, encode, func(body []byte) (err error) {
		out, err = decode(body)
		return err
	})
	return out, err
}

// pendingVisit is one started (sent, not yet awaited) visit — the
// engine.VisitHandle the stub hands the engine's visit plan. Pooled;
// returned to the pool when awaited.
type pendingVisit struct {
	cl       *client
	mc       *muxConn // nil when the start attempt failed before the wire
	sl       *muxSlot
	ct       *callTimer
	probe    bool
	deferred bool          // window was full: nothing sent, await runs the call
	wait     chan struct{} // non-nil: circuit open behind another probe; await resolves
	serr     error         // non-nil: start-side transport failure (await retries)
	v        visit
}

var pendingPool = sync.Pool{New: func() any { return new(pendingVisit) }}

// startVisit is the first half of an attempt, split off so the caller can
// overlap visits: it gates the circuit, composes the request and puts it
// on the wire without waiting. It never blocks on another call's probe —
// a caller may hold several un-awaited handles on one client (the
// engine's visit plan does), and the probe they would wait for can be one
// of those very handles, so the wait is deferred to the await, which runs
// after every earlier-started handle has settled. Every other failure
// mode is deferred too, so concurrently started sibling visits are never
// abandoned mid-flight. The returned handle must be awaited exactly
// once.
func (cl *client) startVisit(v visit) *pendingVisit {
	p := pendingPool.Get().(*pendingVisit)
	*p = pendingVisit{cl: cl, v: v}
	probe, wait := cl.admit()
	if wait != nil {
		// Behind another probe: the await adopts its outcome. Marked
		// deferred so the engine collects it only after every on-the-wire
		// handle — by then the probe (an earlier-started sibling, or a
		// foreign time-bounded call) has settled, and a fresh synchronous
		// call here cannot block window capacity the caller still holds.
		p.wait = wait
		p.deferred = true
		return p
	}
	p.probe = probe
	mc, err := cl.conn()
	if err != nil {
		p.serr = err
		return p
	}
	// Never block for a window slot here: the caller may already hold
	// slots for sibling visits, and a window's worth of such callers
	// blocking on each other is a deadlock. A full window defers this
	// group (Started() false); the engine runs it synchronously after
	// awaiting — and thereby releasing — its started visits.
	sl, req, ok := mc.tryAcquire(v.op)
	if !ok {
		if p.probe {
			// The probe reservation must not outlive the start phase: a
			// deferred probe settles only after the engine's first await
			// pass, and a sibling waiter awaited in that pass would
			// deadlock on it. Abandon the reservation instead; waiters
			// fail typed and the next call re-probes.
			cl.releaseProbe()
			p.probe = false
		}
		p.deferred = true
		return p
	}
	if err := mc.send(sl, p.v.encode(req)); err != nil {
		p.serr = err
		return p
	}
	p.mc, p.sl, p.ct = mc, sl, getTimer()
	return p
}

// Started reports whether the visit is actually on the wire. The engine
// awaits started handles first: an unstarted handle's await issues a
// fresh synchronous call, which may block for window capacity that only
// the caller's own started handles will free.
func (p *pendingVisit) Started() bool { return !p.deferred }

// Await is the second half of the attempt startVisit began: it collects
// the response of a visit that is on the wire — or, for one that never
// got there, runs or charges the first attempt now — and hands the
// outcome to the same finish every synchronous call ends in. It reports
// the draw count of a batch, 0 for a read.
func (p *pendingVisit) Await() (int, error) {
	cl := p.cl
	if p.wait != nil {
		// Start found the circuit open behind another probe. That probe
		// has settled by now (it was awaited before us, or belongs to
		// another caller whose calls are time-bounded); adopt its
		// outcome: fail typed while the circuit stays open, or run the
		// whole call synchronously now that the shard is back.
		wait, v := p.wait, p.v
		p.recycle()
		<-wait
		if cl.open() {
			return 0, cl.unavailable(nil)
		}
		return cl.do(&v)
	}
	var total int
	transport, err := true, p.serr // a start that failed before the wire was the first attempt
	switch {
	case p.deferred:
		// Nothing was sent. The caller holds no window slots at this point
		// (its started handles were awaited first), so blocking for
		// capacity is safe.
		total, transport, err = cl.attempt(&p.v)
	case p.mc != nil:
		body, aerr := p.mc.await(p.sl, p.ct, cl.cfg.Timeout)
		putTimer(p.ct)
		total, transport, err = p.v.collect(p.mc, p.sl, body, aerr)
	}
	total, err = cl.finish(&p.v, p.probe, total, transport, err)
	p.recycle()
	return total, err
}

// recycle returns the handle to the pool.
func (p *pendingVisit) recycle() {
	*p = pendingVisit{}
	pendingPool.Put(p)
}

// ShardInfo describes one partition a server owns. Ingest is the
// shard's write-path row from a routing-epoch response (nil from the
// info handshake, which does not carry the section).
type ShardInfo struct {
	ID, Nodes, Edges int
	Ingest           *engine.IngestStats
}

// Info is the server handshake: the shape of the graph behind the server
// and the partitions it owns.
type Info struct {
	NumNodes   int
	ContentDim int
	NumShards  int
	Strategy   partition.Strategy
	Owned      []ShardInfo
}

// sameGraph is the one check that two servers serve the same partitioned
// graph: nil when o's shape matches in's, else the mismatch.
func (in Info) sameGraph(o Info) error {
	if o.NumShards != in.NumShards || o.NumNodes != in.NumNodes ||
		o.Strategy != in.Strategy || o.ContentDim != in.ContentDim {
		return fmt.Errorf("serves a different graph (%d/%d shards, %d/%d nodes)",
			o.NumShards, in.NumShards, o.NumNodes, in.NumNodes)
	}
	return nil
}

// Info fetches the server handshake.
func (cl *client) Info() (Info, error) { return callFor(cl, opInfo, nil, decodeInfo) }

// Routing fetches the partition's routing table — everything the Engine
// routing layer needs to direct requests at this cluster. The table
// carries the server's current routing epoch.
func (cl *client) Routing() (*partition.Routing, error) {
	return callFor(cl, opRouting, nil, partition.UnmarshalRouting)
}

// Reassign commands the server to acquire or release one partition — the
// admin half of a live shard handoff (zoomer-shard's -admin mode sends
// exactly this). It returns the server's routing epoch after the change;
// acquiring an already-owned or releasing a non-owned partition is a
// no-op that returns the current epoch.
func (cl *client) Reassign(shard int, acquire bool) (uint64, error) {
	return callFor(cl, opReassign, func(b []byte) []byte { return appendReassignRequest(b, shard, acquire) },
		decodeReassignResponse)
}

// routingEpoch polls the server's current routing epoch, the partitions
// it serves — each with its ingest row — and its member view: the cheap
// ownership read a client refreshes from after a wrong-epoch redirect,
// without re-fetching the (possibly node-sized) routing blob.
func (cl *client) routingEpoch() (epoch uint64, owned []ShardInfo, members []string, err error) {
	err = cl.call(opEpoch, nil, func(body []byte) (derr error) {
		epoch, owned, members, derr = decodeEpoch(body)
		return derr
	})
	return epoch, owned, members, err
}

// members runs the membership exchange: announce, when non-empty,
// registers the caller's advertised address with the server; the
// response lists every server address the server knows, announce
// included. A serving-tier client polls with an empty announce.
func (cl *client) members(announce string) ([]string, error) {
	return callFor(cl, opMembers, func(b []byte) []byte { return appendMembersRequest(b, announce) },
		decodeMembersResponse)
}

// RemoteShard is the client-side stub for one partition served by a
// shard server: an engine.ShardBackend whose reads happen over the wire.
// Several stubs (one per owned partition) share one client and its
// multiplexed connections, so concurrent visits to different partitions
// of the same server pipeline onto the same sockets.
type RemoteShard struct {
	cl           *client
	shard        int
	nodes, edges int
	requests     atomic.Int64

	// write facet: appendMu serializes this stub's appends; nextSeq
	// caches the server's sequence watermark (0 = unknown, resynced from
	// dup/gap answers). ingStats is the shard's last observed ingest row
	// (fed by cluster refreshes decoding epoch responses).
	appendMu sync.Mutex
	nextSeq  uint64
	ingStats atomic.Pointer[engine.IngestStats]
}

// The stub plugs into the routing layer exactly like an in-process
// shard, and advertises the facet the engine's visit plan overlaps
// visits with.
var (
	_ engine.ShardBackend   = (*RemoteShard)(nil)
	_ engine.BackendStats   = (*RemoteShard)(nil)
	_ engine.VisitStarter   = (*RemoteShard)(nil)
	_ engine.HealthReporter = (*RemoteShard)(nil)
	_ engine.EdgeAppender   = (*RemoteShard)(nil)
	_ engine.IngestReporter = (*RemoteShard)(nil)
)

// newRemoteShard returns a stub for partition shard behind cl. nodes and
// edges size the partition for Stats (zero when unknown).
func newRemoteShard(cl *client, shard, nodes, edges int) *RemoteShard {
	return &RemoteShard{cl: cl, shard: shard, nodes: nodes, edges: edges}
}

// Requests reports the client-side served-call count (engine.BackendStats).
func (rs *RemoteShard) Requests() int64 { return rs.requests.Load() }

// ShardSize reports the partition size from the server handshake.
func (rs *RemoteShard) ShardSize() (nodes, edges int) { return rs.nodes, rs.edges }

// Healthy reports whether the underlying client's failure circuit would
// admit a call right now (engine.HealthReporter) — the engine's replica
// picker steers reads away from an unhealthy stub.
func (rs *RemoteShard) Healthy() bool { return rs.cl.Healthy() }

// SampleIntoBy draws len(out) weighted neighbors of id shard-side,
// consuming r's stream exactly as an in-process shard would: the state
// travels in the request and the advanced state is restored from the
// response. On error r is not consumed and out is unspecified. The
// remaining budget of a non-zero deadline shrinks the wire timeout for
// this one call; once spent, the call fails with the typed
// engine.ErrDeadlineExceeded without charging the client's health
// circuit. The zero deadline means unbounded and costs no clock read.
func (rs *RemoteShard) SampleIntoBy(id graph.NodeID, out []graph.NodeID, r *rng.RNG, deadline time.Time) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	rs.requests.Add(1)
	n, st, err := rs.cl.sample(id, len(out), r.State(), out, deadline)
	if err != nil {
		return 0, err
	}
	r.SetState(st)
	return n, nil
}

// SampleBatchInto serves one scatter-gather group in one round trip; see
// engine.ShardBackend for the contract. The batch base travels in the
// request and every sub-stream is derived and drawn shard-side, so the
// draws are bit-identical to an in-process visit.
func (rs *RemoteShard) SampleBatchInto(gids []graph.NodeID, idx []int32, base uint64, k int, out []graph.NodeID, ns []int32) (int, error) {
	if len(gids) == 0 {
		return 0, nil
	}
	rs.requests.Add(int64(len(gids)))
	return rs.cl.do(&visit{op: OpBatch, gids: gids, idx: idx, base: base, k: k, out: out, ns: ns})
}

// StartSampleBatch puts one scatter-gather visit on the wire without
// waiting for it — half of engine.VisitStarter, the overlap mechanism of
// the engine's visit plan. The returned handle must be awaited.
func (rs *RemoteShard) StartSampleBatch(gids []graph.NodeID, idx []int32, base uint64, k int, out []graph.NodeID, ns []int32) engine.VisitHandle {
	rs.requests.Add(int64(len(gids)))
	return rs.cl.startVisit(visit{op: OpBatch, gids: gids, idx: idx, base: base, k: k, out: out, ns: ns})
}

// ReadNodesInto serves one bulk-read visit in one round trip; see
// engine.ShardBackend for the contract. The response is decoded into
// the block's arenas.
func (rs *RemoteShard) ReadNodesInto(gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) error {
	if len(gids) == 0 {
		return nil
	}
	rs.requests.Add(int64(len(gids)))
	_, err := rs.cl.do(&visit{op: OpReadNodes, gids: gids, idx: pos, fields: fields, blk: into})
	return err
}

// StartReadNodes puts one bulk-read visit on the wire without waiting
// for it (the other half of engine.VisitStarter). The returned handle
// must be awaited.
func (rs *RemoteShard) StartReadNodes(gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) engine.VisitHandle {
	rs.requests.Add(int64(len(gids)))
	return rs.cl.startVisit(visit{op: OpReadNodes, gids: gids, idx: pos, fields: fields, blk: into})
}

// AppendEdges implements engine.EdgeAppender over the graph-append op:
// exactly-once in effect over an at-least-once wire. The stub assigns
// the next sequence number from its cache and retries with the SAME
// number across transport failures, so a retry of a delivered-but-
// unacknowledged record lands as a duplicate instead of a double apply.
// A dup answer counts as success only when an earlier attempt of this
// very call may have been delivered; otherwise the cache was stale
// (another writer advanced the shard, or a fresh stub) and the call
// resyncs from the server's watermark and retries under a new number.
func (rs *RemoteShard) AppendEdges(edges []ingest.Edge) (uint64, error) {
	rs.appendMu.Lock()
	defer rs.appendMu.Unlock()
	rs.requests.Add(1)
	const maxAttempts = 5
	sent := false // an attempt of this call may have reached the server
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		seq := rs.nextSeq
		if seq == 0 {
			seq = 1 // cold cache: the first dup/gap answer resyncs us
		}
		res, last, err := rs.cl.appendOnce(rs.shard, seq, edges, false)
		if err != nil {
			if permanent(err) {
				// Server-answered (validation failure or redirect): nothing
				// was applied. Redirects surface as engine.ErrWrongEpoch so
				// the engine refreshes ownership and re-routes the batch.
				return 0, err
			}
			sent = true // the lost attempt may have been applied
			lastErr = err
			continue
		}
		switch res {
		case appendApplied:
			rs.nextSeq = seq + 1
			return seq, nil
		case appendDup:
			if sent {
				// Our earlier attempt landed; its response was lost.
				rs.nextSeq = seq + 1
				return seq, nil
			}
			rs.nextSeq = last + 1 // stale cache; retry under a fresh number
		case appendGap:
			// The server is behind seq, so no attempt of ours applied.
			rs.nextSeq = last + 1
			sent = false
		}
	}
	if lastErr == nil {
		lastErr = errors.New("rpc: append sequence never converged")
	}
	return 0, fmt.Errorf("rpc: append to shard %d failed after %d attempts: %w", rs.shard, maxAttempts, lastErr)
}

// IngestStats implements engine.IngestReporter from the stub's cached
// ingest row; false until a cluster refresh has observed one.
func (rs *RemoteShard) IngestStats() (engine.IngestStats, bool) {
	if st := rs.ingStats.Load(); st != nil {
		return *st, true
	}
	return engine.IngestStats{}, false
}

// setIngest caches the shard's latest observed ingest row.
func (rs *RemoteShard) setIngest(st *engine.IngestStats) {
	if st != nil {
		rs.ingStats.Store(st)
	}
}

// NeighborsOf fetches id's adjacency list as a 1-id ReadNodesInto (a fresh
// copy; the remote CSR slice cannot be shared). It is kept only because
// benchmark/ compiles against it — drop it in the next benchmark-only PR.
func (rs *RemoteShard) NeighborsOf(id graph.NodeID) ([]graph.Edge, error) {
	var blk graph.NodeBlock
	blk.Resize(1, graph.ReadNeighbors)
	if err := rs.ReadNodesInto([]graph.NodeID{id}, nil, graph.ReadNeighbors, &blk); err != nil {
		return nil, err
	}
	return blk.Neighbors[0], nil
}

// logf is where the cluster logs skipped servers and rejected member
// addresses during a refresh. Replace it to route into a structured
// logger; it must be safe for concurrent use.
var logf = log.Printf
