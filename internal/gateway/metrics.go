package gateway

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/ingest"
)

// latencyBounds are the histogram upper bounds in seconds, log-spaced
// from 250µs to 5s — sub-millisecond cache hits through multi-second
// overload tails all land in a resolvable bucket. The +Inf bucket is
// implicit.
var latencyBounds = [...]float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5,
}

// histogram is a fixed-bucket latency histogram with atomic counters —
// observation is lock-free and allocation-free.
type histogram struct {
	counts [len(latencyBounds) + 1]atomic.Int64 // last = +Inf
	sum    atomic.Int64                         // nanoseconds
	total  atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(latencyBounds) && s > latencyBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.total.Add(1)
}

// write emits the histogram in Prometheus text exposition format as
// cumulative le-labelled buckets.
func (h *histogram) write(w io.Writer, name, route string) {
	var cum int64
	for i, le := range latencyBounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{route=%q,le=%q} %d\n", name, route, trimFloat(le), cum)
	}
	cum += h.counts[len(latencyBounds)].Load()
	fmt.Fprintf(w, "%s_bucket{route=%q,le=\"+Inf\"} %d\n", name, route, cum)
	fmt.Fprintf(w, "%s_sum{route=%q} %g\n", name, route, time.Duration(h.sum.Load()).Seconds())
	fmt.Fprintf(w, "%s_count{route=%q} %d\n", name, route, h.total.Load())
}

func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}

// writeIngest emits the per-shard write-path rows when an ingest source
// is wired: WAL sequence (= ingest epoch), delta overlay sizes,
// run-merge counters, WAL segment counts, and the fsync latency
// histogram in cumulative le-labelled form.
func (m *metrics) writeIngest(w io.Writer) {
	if m.ingest == nil {
		return
	}
	rows := m.ingest()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP zoomer_ingest_seq Last applied append sequence per shard (the ingest epoch).\n")
	fmt.Fprintf(w, "# TYPE zoomer_ingest_seq gauge\n")
	for _, st := range rows {
		fmt.Fprintf(w, "zoomer_ingest_seq{shard=\"%d\"} %d\n", st.Shard, st.Seq)
	}
	fmt.Fprintf(w, "# HELP zoomer_ingest_delta_nodes Nodes with a live delta overlay per shard.\n")
	fmt.Fprintf(w, "# TYPE zoomer_ingest_delta_nodes gauge\n")
	for _, st := range rows {
		fmt.Fprintf(w, "zoomer_ingest_delta_nodes{shard=\"%d\"} %d\n", st.Shard, st.DeltaNodes)
	}
	fmt.Fprintf(w, "# HELP zoomer_ingest_delta_edges Appended edges in the current delta view per shard.\n")
	fmt.Fprintf(w, "# TYPE zoomer_ingest_delta_edges gauge\n")
	for _, st := range rows {
		fmt.Fprintf(w, "zoomer_ingest_delta_edges{shard=\"%d\"} %d\n", st.Shard, st.DeltaEdges)
	}
	fmt.Fprintf(w, "# HELP zoomer_ingest_compactions_total Delta run merges per shard.\n")
	fmt.Fprintf(w, "# TYPE zoomer_ingest_compactions_total counter\n")
	for _, st := range rows {
		fmt.Fprintf(w, "zoomer_ingest_compactions_total{shard=\"%d\"} %d\n", st.Shard, st.Compactions)
	}
	fmt.Fprintf(w, "# HELP zoomer_ingest_wal_segments WAL segment files per shard (0 = no WAL).\n")
	fmt.Fprintf(w, "# TYPE zoomer_ingest_wal_segments gauge\n")
	for _, st := range rows {
		fmt.Fprintf(w, "zoomer_ingest_wal_segments{shard=\"%d\"} %d\n", st.Shard, st.WALSegments)
	}
	fmt.Fprintf(w, "# HELP zoomer_ingest_fsync_seconds WAL fsync latency per shard.\n")
	fmt.Fprintf(w, "# TYPE zoomer_ingest_fsync_seconds histogram\n")
	for _, st := range rows {
		if st.FsyncHist == nil {
			continue
		}
		var cum uint64
		for i, le := range ingest.FsyncBounds {
			if i < len(st.FsyncHist) {
				cum += st.FsyncHist[i]
			}
			fmt.Fprintf(w, "zoomer_ingest_fsync_seconds_bucket{shard=\"%d\",le=%q} %d\n", st.Shard, trimFloat(le), cum)
		}
		if len(st.FsyncHist) > len(ingest.FsyncBounds) {
			cum += st.FsyncHist[len(ingest.FsyncBounds)]
		}
		fmt.Fprintf(w, "zoomer_ingest_fsync_seconds_bucket{shard=\"%d\",le=\"+Inf\"} %d\n", st.Shard, cum)
		fmt.Fprintf(w, "zoomer_ingest_fsync_seconds_sum{shard=\"%d\"} %g\n", st.Shard, time.Duration(st.FsyncNanos).Seconds())
		fmt.Fprintf(w, "zoomer_ingest_fsync_seconds_count{shard=\"%d\"} %d\n", st.Shard, st.Fsyncs)
	}
}

// statusCodes are the response codes the gateway can emit per route.
// Index 0 must stay 200 — the QPS gauge reads it.
var statusCodes = [...]int{200, 400, 404, 405, 500, 503, 504}

// routeMetrics is one route's request counters and latency histogram.
type routeMetrics struct {
	codes [len(statusCodes)]atomic.Int64
	lat   histogram
}

func (rm *routeMetrics) count(code int) {
	for i, c := range statusCodes {
		if c == code {
			rm.codes[i].Add(1)
			return
		}
	}
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
		m.routes[r] = &routeMetrics{}
	}
	m.lastScrape = m.start
	return m
}

func (m *metrics) route(name string) *routeMetrics { return m.routes[name] }

// served sums 200-coded responses across routes — the numerator of the
// scrape-interval QPS gauge.
func (m *metrics) served() int64 {
	var n int64
	for _, rm := range m.routes {
		n += rm.codes[0].Load() // statusCodes[0] == 200
	}
	return n
}

// writeTo emits the whole exposition page.
func (m *metrics) writeTo(w io.Writer) {
	fmt.Fprintf(w, "# HELP zoomer_gateway_requests_total Requests by route and status code.\n")
	fmt.Fprintf(w, "# TYPE zoomer_gateway_requests_total counter\n")
	for _, name := range m.order {
		rm := m.routes[name]
		for i, code := range statusCodes {
			fmt.Fprintf(w, "zoomer_gateway_requests_total{route=%q,code=\"%d\"} %d\n", name, code, rm.codes[i].Load())
		}
	}
	fmt.Fprintf(w, "# HELP zoomer_gateway_request_seconds End-to-end request latency.\n")
	fmt.Fprintf(w, "# TYPE zoomer_gateway_request_seconds histogram\n")
	for _, name := range m.order {
		m.routes[name].lat.write(w, "zoomer_gateway_request_seconds", name)
	}
	fmt.Fprintf(w, "# HELP zoomer_gateway_inflight In-flight requests right now.\n")
	fmt.Fprintf(w, "# TYPE zoomer_gateway_inflight gauge\n")
	fmt.Fprintf(w, "zoomer_gateway_inflight %d\n", m.inflight.Load())
	fmt.Fprintf(w, "# HELP zoomer_gateway_shed_total Requests shed by admission control.\n")
	fmt.Fprintf(w, "# TYPE zoomer_gateway_shed_total counter\n")
	fmt.Fprintf(w, "zoomer_gateway_shed_total{kind=\"inflight_cap\"} %d\n", m.shedHard.Load())
	fmt.Fprintf(w, "zoomer_gateway_shed_total{kind=\"draining\"} %d\n", m.drainRejects.Load())
	fmt.Fprintf(w, "# HELP zoomer_gateway_degraded_total Cache-only (shed-mode) answers served.\n")
	fmt.Fprintf(w, "# TYPE zoomer_gateway_degraded_total counter\n")
	fmt.Fprintf(w, "zoomer_gateway_degraded_total %d\n", m.degraded.Load())
	fmt.Fprintf(w, "# HELP zoomer_gateway_deadline_exceeded_total Requests answered with the typed deadline error.\n")
	fmt.Fprintf(w, "# TYPE zoomer_gateway_deadline_exceeded_total counter\n")
	fmt.Fprintf(w, "zoomer_gateway_deadline_exceeded_total %d\n", m.deadlineExceeded.Load())
	fmt.Fprintf(w, "# HELP zoomer_gateway_appended_edges_total Edges accepted through /v1/append.\n")
	fmt.Fprintf(w, "# TYPE zoomer_gateway_appended_edges_total counter\n")
	fmt.Fprintf(w, "zoomer_gateway_appended_edges_total %d\n", m.appendedEdges.Load())
	m.writeIngest(w)
	if m.cache != nil {
		hits, misses, refreshes := m.cache()
		fmt.Fprintf(w, "# HELP zoomer_cache_hits_total Neighbor-cache lookups answered from a cached entry.\n")
		fmt.Fprintf(w, "# TYPE zoomer_cache_hits_total counter\n")
		fmt.Fprintf(w, "zoomer_cache_hits_total %d\n", hits)
		fmt.Fprintf(w, "# HELP zoomer_cache_misses_total Neighbor-cache lookups filled synchronously from the engine.\n")
		fmt.Fprintf(w, "# TYPE zoomer_cache_misses_total counter\n")
		fmt.Fprintf(w, "zoomer_cache_misses_total %d\n", misses)
		fmt.Fprintf(w, "# HELP zoomer_cache_refreshes_total Asynchronous neighbor-cache refreshes completed.\n")
		fmt.Fprintf(w, "# TYPE zoomer_cache_refreshes_total counter\n")
		fmt.Fprintf(w, "zoomer_cache_refreshes_total %d\n", refreshes)
	}
	if m.load != nil {
		fmt.Fprintf(w, "# HELP zoomer_engine_shard_requests_total Sampling and read requests served per graph shard (summed over its replica group).\n")
		fmt.Fprintf(w, "# TYPE zoomer_engine_shard_requests_total counter\n")
		for shard, n := range m.load().RequestsPerShard {
			fmt.Fprintf(w, "zoomer_engine_shard_requests_total{shard=\"%d\"} %d\n", shard, n)
		}
	}

	// QPS over the scrape interval: successful answers since the last
	// /metrics read divided by the elapsed wall time. First scrape
	// averages over the gateway's whole lifetime.
	m.scrapeMu.Lock()
	now := time.Now()
	served := m.served()
	elapsed := now.Sub(m.lastScrape).Seconds()
	qps := 0.0
	if elapsed > 0 {
		qps = float64(served-m.lastServedAtScan) / elapsed
	}
	m.lastScrape = now
	m.lastServedAtScan = served
	m.scrapeMu.Unlock()
	fmt.Fprintf(w, "# HELP zoomer_gateway_qps Successful answers per second over the last scrape interval.\n")
	fmt.Fprintf(w, "# TYPE zoomer_gateway_qps gauge\n")
	fmt.Fprintf(w, "zoomer_gateway_qps %g\n", qps)
	fmt.Fprintf(w, "# HELP zoomer_gateway_uptime_seconds Seconds since gateway start.\n")
	fmt.Fprintf(w, "# TYPE zoomer_gateway_uptime_seconds gauge\n")
	fmt.Fprintf(w, "zoomer_gateway_uptime_seconds %g\n", time.Since(m.start).Seconds())
}
