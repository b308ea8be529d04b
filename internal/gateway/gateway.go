// Package gateway is the HTTP front door over the serve tier — the
// network-facing layer of the §VII-E deployment story. It turns the
// in-process retrieval server into a service: JSON and binary
// retrieval endpoints, health and metrics, and admission control done
// at the door, the only place a request is admitted.
//
// Admission is three-tiered. A hard in-flight cap bounds concurrent
// requests — beyond it the gateway answers 503 with Retry-After, the
// one "overloaded" answer. Between the soft shed threshold and the
// hard cap, requests are admitted in cache-only mode: the serve tier
// answers from whatever the neighbor cache already holds, generating
// zero backend samples, and the response is marked degraded — stale
// neighbors beat a timeout, and the backends get headroom to recover.
// Below the threshold, requests run the full path under a per-request
// deadline that travels down through the wait for a serve worker
// state, the neighbor cache's miss fill, the engine's shard visit, and
// the RPC client's per-call budget; a request that outlives its
// deadline is answered 504 with the typed engine.ErrDeadlineExceeded at
// whatever layer noticed.
//
// Drain is graceful by construction: Drain flips the gateway to
// draining (healthz fails, new retrievals are refused 503), then waits
// for in-flight requests to finish. A retrieval runs on its handler's
// goroutine and always returns — expired ones typed — so the drain
// wait is bounded by the slowest in-flight request, not by luck.
package gateway

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zoomer/internal/ann"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/rng"
	"zoomer/internal/serve"
	"zoomer/internal/wire"
)

// Config tunes the front door. Zero fields take the stated defaults.
type Config struct {
	// MaxInFlight is the hard admission cap (default 256): requests
	// beyond it are shed with 503 + Retry-After.
	MaxInFlight int
	// ShedFraction of MaxInFlight is the soft threshold (default 0.75):
	// above it admitted requests run cache-only and answers are marked
	// degraded.
	ShedFraction float64
	// DefaultDeadline applies when the client sends none (default
	// 200ms); MaxDeadline clamps client-requested deadlines (default
	// 2s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Logger receives structured request/lifecycle logs (default
	// slog.Default()).
	Logger *slog.Logger
}

func (c *Config) defaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.ShedFraction <= 0 || c.ShedFraction > 1 {
		c.ShedFraction = 0.75
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 200 * time.Millisecond
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// Gateway is the HTTP front door. Construct with New, mount Handler,
// stop with Drain.
type Gateway struct {
	srv            *serve.Server
	users, queries []graph.NodeID
	numNodes       int
	cfg            Config
	log            *slog.Logger

	inflight atomic.Int64
	draining atomic.Bool
	met      *metrics

	pickMu sync.Mutex
	pick   *rng.RNG

	// write path (nil until EnableIngest): the engine facet appends go
	// through, and the cache's InvalidateNodes, called after each accepted
	// batch.
	app        Appender
	invalidate func(ids ...graph.NodeID)
}

// Appender is the write-path facet the gateway needs from the engine:
// route an edge batch to the owning shards (idempotently, over the
// durable append op when the shards are remote).
type Appender interface {
	Append(edges []ingest.Edge) (int, error)
}

// ingestReporter is the optional stats facet of an Appender; the engine
// implements it, and /metrics exposes the rows when available.
type ingestReporter interface {
	IngestStats() []engine.IngestStats
}

// shardLoadReporter is the other optional facet of an Appender: the
// engine's load counters, from which /metrics takes the per-shard
// request rows.
type shardLoadReporter interface {
	Stats() engine.Stats
}

// New wires a gateway over a running serve.Server. users/queries are
// the id pools the rand=1 mode draws from (so load generators need no
// world knowledge); numNodes bounds id validation for explicit ids.
func New(srv *serve.Server, users, queries []graph.NodeID, numNodes int, cfg Config) *Gateway {
	cfg.defaults()
	g := &Gateway{
		srv:      srv,
		users:    users,
		queries:  queries,
		numNodes: numNodes,
		cfg:      cfg,
		log:      cfg.Logger,
		pick:     rng.New(0x9e3779b97f4a7c15),
	}
	g.met = newMetrics(&g.inflight, "retrieve", "retrieve_bin", "append")
	return g
}

// EnableIngest turns on the write path: POST /v1/append routes batches
// through app, and — when cache is non-nil — each accepted batch's
// source nodes are invalidated so cached neighbor samples heal to the
// new adjacency. /metrics gains the cache's hit/miss/refresh counters
// and, when app also reports ingest stats and engine load (the engine
// does both), the per-shard write-path and request rows.
func (g *Gateway) EnableIngest(app Appender, cache *serve.NeighborCache) {
	g.app = app
	if cache != nil {
		g.invalidate = cache.InvalidateNodes
		g.met.cache = cache.Stats
	}
	if ir, ok := app.(ingestReporter); ok {
		g.met.ingest = ir.IngestStats
	}
	if lr, ok := app.(shardLoadReporter); ok {
		g.met.load = lr.Stats
	}
}

// Handler returns the route table: /v1/retrieve (JSON), /v1/retrieve.bin
// (binary), /healthz, /metrics.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/retrieve", func(w http.ResponseWriter, r *http.Request) {
		g.handleRetrieve(w, r, false)
	})
	mux.HandleFunc("/v1/retrieve.bin", func(w http.ResponseWriter, r *http.Request) {
		g.handleRetrieve(w, r, true)
	})
	mux.HandleFunc("/v1/append", g.handleAppend)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/metrics", g.handleMetrics)
	return mux
}

// Drain stops admission (healthz turns 503 so balancers eject the
// instance, new retrievals are refused) and waits for every in-flight
// request to be answered. Returns nil when in-flight reached zero — from
// then on no request reaches the serve tier, so the caller may close the
// serve.Server — or ctx.Err() on timeout, with the count still in flight
// wrapped in.
func (g *Gateway) Drain(ctx context.Context) error {
	g.draining.Store(true)
	g.log.Info("drain started", "inflight", g.inflight.Load())
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		n := g.inflight.Load()
		if n == 0 {
			g.log.Info("drain complete")
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("gateway: drain timed out with %d in flight: %w", n, ctx.Err())
		case <-tick.C:
		}
	}
}

// admit counts a request into in-flight and then refuses it, counted
// back out with its 503 answered, when the gateway is draining or over
// the hard cap. Counting in before reading draining is what lets Drain
// trust its zero: a request that still reads draining == false was
// counted before Drain set it. An admitted request (ok) must leave with
// g.inflight.Add(-1); n is the in-flight count including it.
func (g *Gateway) admit(w http.ResponseWriter, rm *routeMetrics, start time.Time) (n int64, ok bool) {
	n = g.inflight.Add(1)
	msg := "draining"
	switch {
	case g.draining.Load():
		g.met.drainRejects.Add(1)
	case n > int64(g.cfg.MaxInFlight):
		g.met.shedHard.Add(1)
		w.Header().Set("Retry-After", "1")
		msg = "overloaded: in-flight cap reached"
	default:
		return n, true
	}
	g.inflight.Add(-1)
	rm.fail(w, start, http.StatusServiceUnavailable, msg)
	return n, false
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if g.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.met.writeTo(w)
}

// pickIDs resolves the (user, query) pair from the request's query
// parameters: rand=1 draws from the pools, otherwise explicit ids are
// parsed and bounds-checked — an out-of-range id would index past the
// serving weights.
func (g *Gateway) pickIDs(q url.Values) (user, query graph.NodeID, err error) {
	if q.Get("rand") == "1" {
		if len(g.users) == 0 || len(g.queries) == 0 {
			return 0, 0, errors.New("rand mode unavailable: empty id pools")
		}
		g.pickMu.Lock()
		user = g.users[g.pick.Intn(len(g.users))]
		query = g.queries[g.pick.Intn(len(g.queries))]
		g.pickMu.Unlock()
		return user, query, nil
	}
	pu, err := strconv.ParseUint(q.Get("user"), 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad user id %q", q.Get("user"))
	}
	pq, err := strconv.ParseUint(q.Get("query"), 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad query id %q", q.Get("query"))
	}
	if pu >= uint64(g.numNodes) || pq >= uint64(g.numNodes) {
		return 0, 0, fmt.Errorf("id out of range (world has %d nodes)", g.numNodes)
	}
	return graph.NodeID(pu), graph.NodeID(pq), nil
}

// deadlineFor resolves the per-request budget: the deadline_ms query
// parameter (or the X-Zoomer-Deadline-Ms header), defaulted and clamped.
func (g *Gateway) deadlineFor(q url.Values, h http.Header) time.Duration {
	s := q.Get("deadline_ms")
	if s == "" {
		s = h.Get("X-Zoomer-Deadline-Ms")
	}
	d := g.cfg.DefaultDeadline
	if s != "" {
		// Clamp before converting: a huge ms overflows Duration to a
		// negative budget.
		if ms, err := strconv.ParseFloat(s, 64); err == nil && ms > 0 && !math.IsInf(ms, 0) {
			d = time.Duration(math.Min(ms*float64(time.Millisecond), float64(g.cfg.MaxDeadline)))
		}
	}
	return min(d, g.cfg.MaxDeadline)
}

// Item is one scored item in the JSON answer.
type Item struct {
	ID    int64   `json:"id"`
	Score float32 `json:"score"`
}

// retrieveReply is the JSON answer envelope.
type retrieveReply struct {
	User      uint32 `json:"user"`
	Query     uint32 `json:"query"`
	Degraded  bool   `json:"degraded,omitempty"`
	LatencyUs int64  `json:"latency_us"`
	Items     []Item `json:"items"`
}

func (g *Gateway) handleRetrieve(w http.ResponseWriter, r *http.Request, bin bool) {
	route := "retrieve"
	if bin {
		route = "retrieve_bin"
	}
	rm := g.met.route(route)
	start := time.Now()

	n, ok := g.admit(w, rm, start)
	if !ok {
		return
	}
	defer g.inflight.Add(-1)
	params := r.URL.Query() // parsed once: ids, deadline and k
	user, query, err := g.pickIDs(params)
	if err != nil {
		rm.fail(w, start, http.StatusBadRequest, err.Error())
		return
	}
	cacheOnly := float64(n) > g.cfg.ShedFraction*float64(g.cfg.MaxInFlight)
	deadline := start.Add(g.deadlineFor(params, r.Header))

	rsp := g.srv.Retrieve(serve.Request{User: user, Query: query, Deadline: deadline, CacheOnly: cacheOnly})
	if rsp.Err != nil {
		g.met.deadlineExceeded.Add(1)
		g.log.Debug("deadline exceeded", "route", route, "user", uint32(user), "query", uint32(query))
		rm.fail(w, start, http.StatusGatewayTimeout, "deadline exceeded")
		return
	}
	items := rsp.Items
	if ks := params.Get("k"); ks != "" {
		if k, err := strconv.Atoi(ks); err == nil && k >= 0 && k < len(items) {
			items = items[:k]
		}
	}
	if rsp.Degraded {
		g.met.degraded.Add(1)
		w.Header().Set("X-Zoomer-Degraded", "1")
	}
	if bin {
		g.writeBinary(w, rsp.Degraded, items)
	} else {
		g.writeJSON(w, user, query, rsp, items, start)
	}
	rm.answer(http.StatusOK, start)
}

// appendEdge is one edge of a POST /v1/append request body.
type appendEdge struct {
	Src    uint32  `json:"src"`
	Dst    uint32  `json:"dst"`
	Type   uint8   `json:"type"`
	Weight float32 `json:"weight"`
}

// appendRequest is the POST /v1/append body.
type appendRequest struct {
	Edges []appendEdge `json:"edges"`
}

// appendReply is the POST /v1/append answer.
type appendReply struct {
	Appended  int   `json:"appended"`
	LatencyUs int64 `json:"latency_us"`
}

// maxAppendBody bounds the request body: at ~45 bytes of JSON per edge
// this admits batches far past ingest's per-record edge limit, so the
// engine's own validation — not the transport — is what rejects
// oversized work.
const maxAppendBody = 4 << 20

// handleAppend is the durable write front door: decode the batch, route
// it through the engine's idempotent append path, invalidate the cached
// neighbor samples of the touched source nodes. Appends share the
// retrieval tier's admission control (draining refusal and the hard
// in-flight cap) but never degrade to cache-only — a write either lands
// durably or fails typed. A batch one of whose owning shards failed while
// the others landed is both: the error status, with the landed count in
// X-Zoomer-Appended.
func (g *Gateway) handleAppend(w http.ResponseWriter, r *http.Request) {
	rm := g.met.route("append")
	start := time.Now()
	if g.app == nil {
		rm.fail(w, start, http.StatusNotFound, "ingest not enabled")
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		rm.fail(w, start, http.StatusMethodNotAllowed, "append requires POST")
		return
	}
	if _, ok := g.admit(w, rm, start); !ok {
		return
	}
	defer g.inflight.Add(-1)

	var req appendRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAppendBody)).Decode(&req); err != nil {
		rm.fail(w, start, http.StatusBadRequest, fmt.Sprintf("bad append body: %v", err))
		return
	}
	if len(req.Edges) == 0 {
		rm.fail(w, start, http.StatusBadRequest, "append body holds no edges")
		return
	}
	edges := make([]ingest.Edge, len(req.Edges))
	for i, e := range req.Edges {
		edges[i] = ingest.Edge{
			Src:    graph.NodeID(e.Src),
			Dst:    graph.NodeID(e.Dst),
			Type:   graph.EdgeType(e.Type),
			Weight: e.Weight,
		}
	}

	appended, err := g.app.Append(edges)
	if appended > 0 {
		// Also when another shard's group failed: the groups that landed
		// are durable, so they are counted and their cached samples are
		// stale. Invalidating every source of the batch over-approximates
		// which landed; a spurious invalidation is one best-effort refresh.
		// A hot source appears many times in one batch but is invalidated
		// once.
		g.met.appendedEdges.Add(int64(appended))
		if g.invalidate != nil {
			srcs := make([]graph.NodeID, len(edges))
			for i, e := range edges {
				srcs[i] = e.Src
			}
			slices.Sort(srcs)
			g.invalidate(slices.Compact(srcs)...)
		}
		if err != nil {
			// A client that re-POSTs the whole batch would apply the landed
			// groups a second time; the count tells it something landed.
			w.Header().Set("X-Zoomer-Appended", strconv.Itoa(appended))
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, engine.ErrBadAppend):
			rm.fail(w, start, http.StatusBadRequest, err.Error())
		case errors.Is(err, engine.ErrShardUnavailable):
			w.Header().Set("Retry-After", "1")
			rm.fail(w, start, http.StatusServiceUnavailable, "shard unavailable")
		default:
			g.log.Error("append failed", "err", err, "edges", len(edges))
			rm.fail(w, start, http.StatusInternalServerError, "append failed")
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&appendReply{Appended: appended, LatencyUs: time.Since(start).Microseconds()}); err != nil {
		g.log.Debug("response write failed", "err", err)
	}
	rm.answer(http.StatusOK, start)
}

func (g *Gateway) writeJSON(w http.ResponseWriter, user, query graph.NodeID, rsp serve.Response, items []ann.Result, start time.Time) {
	reply := retrieveReply{
		User:      uint32(user),
		Query:     uint32(query),
		Degraded:  rsp.Degraded,
		LatencyUs: time.Since(start).Microseconds(),
		Items:     make([]Item, len(items)),
	}
	for i, it := range items {
		reply.Items[i] = Item{ID: it.ID, Score: it.Score}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(&reply); err != nil {
		g.log.Debug("response write failed", "err", err)
	}
}

// Binary wire format (little-endian): magic "ZGR1", u8 flags (bit 0 =
// degraded), u32 item count, then count × (u64 item id, f32 score).
const binMagic = "ZGR1"

func (g *Gateway) writeBinary(w http.ResponseWriter, degraded bool, items []ann.Result) {
	buf := make([]byte, 0, len(binMagic)+1+4+len(items)*12)
	buf = append(buf, binMagic...)
	flags := byte(0)
	if degraded {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(items)))
	for _, it := range items {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(it.ID))
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(it.Score))
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(buf); err != nil {
		g.log.Debug("response write failed", "err", err)
	}
}

// DecodeBinary parses the binary wire format — the loadgen's (and any
// native client's) counterpart to /v1/retrieve.bin. Every failure is
// wire.ErrMalformed.
func DecodeBinary(b []byte) (items []Item, degraded bool, err error) {
	cu := wire.Cursor{B: b}
	if magic := cu.Bytes(len(binMagic)); string(magic) != binMagic {
		return nil, false, fmt.Errorf("%w: gateway: not a %s frame", wire.ErrMalformed, binMagic)
	}
	degraded = cu.U8()&1 != 0
	items = make([]Item, cu.Count(12))
	for i := range items {
		items[i] = Item{ID: int64(cu.U64()), Score: cu.F32()}
	}
	if err := cu.Err(wire.ErrMalformed); err != nil {
		return nil, false, err
	}
	return items, degraded, nil
}
