package gateway

import (
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/ingest"
	"zoomer/internal/obs"
)

// latencyBounds are the histogram upper bounds in seconds, log-spaced
// from 250µs to 5s — sub-millisecond cache hits through multi-second
// overload tails all land in a resolvable bucket. The +Inf bucket is
// implicit.
var latencyBounds = [...]float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5,
}

// statusCodes are the response codes the gateway can emit per route.
// Index 0 must stay 200 — the QPS gauge reads it.
var statusCodes = [...]int{200, 400, 404, 405, 500, 503, 504}

// routeMetrics is one route's request counters and latency histogram.
type routeMetrics struct {
	codes [len(statusCodes)]atomic.Int64
	lat   *obs.Histogram
}

// answer counts and times one answered request. Every answer a route
// gives, whatever its code, goes through here, so a route's latency
// _count is the sum of its requests_total row.
func (rm *routeMetrics) answer(code int, start time.Time) {
	for i, c := range statusCodes {
		if c == code {
			rm.codes[i].Add(1)
			break
		}
	}
	rm.lat.Observe(time.Since(start))
}

// fail answers with an error status and msg, counted and timed.
func (rm *routeMetrics) fail(w http.ResponseWriter, start time.Time, code int, msg string) {
	http.Error(w, msg, code)
	rm.answer(code, start)
}

// metrics is the gateway's observability surface: per-route request
// counts by status code, per-route latency histograms, shed/degrade
// counters, the live in-flight gauge, and a QPS gauge computed over the
// interval between scrapes.
type metrics struct {
	routes   map[string]*routeMetrics
	order    []string // stable output order
	inflight *atomic.Int64

	shedHard         atomic.Int64 // hard cap exceeded → 503
	degraded         atomic.Int64 // cache-only answers served
	deadlineExceeded atomic.Int64 // typed 504s
	drainRejects     atomic.Int64 // refused while draining
	appendedEdges    atomic.Int64 // edges accepted through /v1/append
	// ingest, when set, supplies the per-shard write-path rows (WAL
	// sequence, delta sizes, compactions, fsync latency) scraped live
	// from the engine on each /metrics read.
	ingest func() []engine.IngestStats
	// cache and load, when set, supply the neighbor cache's counters and
	// the engine's per-shard request counts, read on each scrape.
	cache func() (hits, misses, refreshes int64)
	load  func() engine.Stats
	start time.Time

	scrapeMu         sync.Mutex
	lastScrape       time.Time
	lastServedAtScan int64
}

func newMetrics(inflight *atomic.Int64, routes ...string) *metrics {
	m := &metrics{
		routes:   make(map[string]*routeMetrics, len(routes)),
		order:    routes,
		inflight: inflight,
		start:    time.Now(),
	}
	for _, r := range routes {
		m.routes[r] = &routeMetrics{lat: obs.NewHistogram(latencyBounds[:])}
	}
	m.lastScrape = m.start
	return m
}

func (m *metrics) route(name string) *routeMetrics { return m.routes[name] }

// ingestFamilies are the per-shard write-path rows printed before the
// fsync histogram, one sample per shard each.
var ingestFamilies = [...]struct {
	name, typ, help string
	value           func(engine.IngestStats) uint64
}{
	{"zoomer_ingest_seq", "gauge", "Last applied append sequence per shard (the ingest epoch).",
		func(st engine.IngestStats) uint64 { return st.Seq }},
	{"zoomer_ingest_delta_nodes", "gauge", "Nodes with a live delta overlay per shard.",
		func(st engine.IngestStats) uint64 { return uint64(st.DeltaNodes) }},
	{"zoomer_ingest_delta_edges", "gauge", "Appended edges in the current delta view per shard.",
		func(st engine.IngestStats) uint64 { return st.DeltaEdges }},
	{"zoomer_ingest_compactions_total", "counter", "Delta run merges per shard.",
		func(st engine.IngestStats) uint64 { return st.Compactions }},
	{"zoomer_ingest_wal_segments", "gauge", "WAL segment files per shard (0 = no WAL).",
		func(st engine.IngestStats) uint64 { return uint64(st.WALSegments) }},
}

// writeIngest prints the per-shard write-path rows when an ingest source
// is wired, then the fsync latency histogram of every row that carries
// one.
func (m *metrics) writeIngest(p *obs.Page) {
	if m.ingest == nil {
		return
	}
	rows := m.ingest()
	if len(rows) == 0 {
		return
	}
	for _, f := range ingestFamilies {
		p.Family(f.name, f.typ, f.help)
		for _, st := range rows {
			p.Sample(f.value(st), "shard", strconv.Itoa(st.Shard))
		}
	}
	p.Family("zoomer_ingest_fsync_seconds", "histogram", "WAL fsync latency per shard.")
	for _, st := range rows {
		if st.FsyncHist != nil {
			p.Hist(obs.Snapshot{Bounds: ingest.FsyncBounds[:], Buckets: st.FsyncHist, Sum: time.Duration(st.FsyncNanos)},
				"shard", strconv.Itoa(st.Shard))
		}
	}
}

// writeTo emits the whole exposition page.
func (m *metrics) writeTo(w io.Writer) {
	p := obs.NewPage(w)
	p.Family("zoomer_gateway_requests_total", "counter", "Requests by route and status code.")
	for _, name := range m.order {
		for i, code := range statusCodes {
			p.Sample(m.routes[name].codes[i].Load(), "route", name, "code", strconv.Itoa(code))
		}
	}
	p.Family("zoomer_gateway_request_seconds", "histogram", "End-to-end request latency.")
	for _, name := range m.order {
		p.Hist(m.routes[name].lat.Snapshot(), "route", name)
	}
	p.Family("zoomer_gateway_inflight", "gauge", "In-flight requests right now.")
	p.Sample(m.inflight.Load())
	p.Family("zoomer_gateway_shed_total", "counter", "Requests shed by admission control.")
	p.Sample(m.shedHard.Load(), "kind", "inflight_cap")
	p.Sample(m.drainRejects.Load(), "kind", "draining")
	p.Family("zoomer_gateway_degraded_total", "counter", "Cache-only (shed-mode) answers served.")
	p.Sample(m.degraded.Load())
	p.Family("zoomer_gateway_deadline_exceeded_total", "counter", "Requests answered with the typed deadline error.")
	p.Sample(m.deadlineExceeded.Load())
	p.Family("zoomer_gateway_appended_edges_total", "counter", "Edges accepted through /v1/append.")
	p.Sample(m.appendedEdges.Load())
	m.writeIngest(p)
	if m.cache != nil {
		hits, misses, refreshes := m.cache()
		p.Family("zoomer_cache_hits_total", "counter", "Neighbor-cache lookups answered from a cached entry.")
		p.Sample(hits)
		p.Family("zoomer_cache_misses_total", "counter", "Neighbor-cache lookups filled synchronously from the engine.")
		p.Sample(misses)
		p.Family("zoomer_cache_refreshes_total", "counter", "Asynchronous neighbor-cache refreshes completed.")
		p.Sample(refreshes)
	}
	if m.load != nil {
		p.Family("zoomer_engine_shard_requests_total", "counter", "Sampling and read requests served per graph shard (summed over its replica group).")
		for shard, n := range m.load().RequestsPerShard {
			p.Sample(n, "shard", strconv.Itoa(shard))
		}
	}

	// QPS over the scrape interval: successful answers since the last
	// /metrics read divided by the elapsed wall time. First scrape
	// averages over the gateway's whole lifetime.
	m.scrapeMu.Lock()
	now := time.Now()
	var served int64
	for _, rm := range m.routes {
		served += rm.codes[0].Load() // statusCodes[0] == 200
	}
	elapsed := now.Sub(m.lastScrape).Seconds()
	qps := 0.0
	if elapsed > 0 {
		qps = float64(served-m.lastServedAtScan) / elapsed
	}
	m.lastScrape = now
	m.lastServedAtScan = served
	m.scrapeMu.Unlock()
	p.Family("zoomer_gateway_qps", "gauge", "Successful answers per second over the last scrape interval.")
	p.Sample(qps)
	p.Family("zoomer_gateway_uptime_seconds", "gauge", "Seconds since gateway start.")
	p.Sample(time.Since(m.start).Seconds())
}
