package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zoomer/internal/ann"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/serve"
	"zoomer/internal/tensor"
)

// buildGateway stands up a tiny end-to-end stack (world, trimmed model,
// in-process engine, cache, index, retrieval server) behind a Gateway and an
// httptest front.
func buildGateway(t testing.TB, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	ccfg := core.DefaultConfig()
	ccfg.EmbedDim = 16
	ccfg.OutDim = 16
	ccfg.Hops = 1
	ccfg.FanOut = 4
	model := core.NewZoomer(res.Graph, logs.Vocab(), ccfg, 2)
	emb := serve.NewEmbedder(model.ExportServing())

	eng := engine.New(res.Graph, engine.DefaultConfig())
	cache := serve.NewNeighborCache(eng, 8, 3)
	t.Cleanup(cache.Close)

	items := res.Graph.NodesOfType(graph.Item)
	ids := make([]int64, len(items))
	vecs := make([]tensor.Vec, len(items))
	for i, it := range items {
		ids[i] = int64(it)
		vecs[i] = emb.Item(it)
	}
	index := ann.Build(ids, vecs, ann.Config{NumLists: 8, Iters: 4, Seed: 4})

	scfg := serve.DefaultConfig()
	scfg.Workers = 2
	scfg.TopK = 8
	scfg.NProbe = 2
	srv := serve.NewServer(emb, cache, index, scfg)
	t.Cleanup(srv.Close)

	gw := New(srv, res.Graph.NodesOfType(graph.User), res.Graph.NodesOfType(graph.Query),
		res.Graph.NumNodes(), cfg)
	gw.EnableIngest(eng, cache)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return gw, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, body
}

func TestRetrieveJSONAndBinary(t *testing.T) {
	gw, ts := buildGateway(t, Config{})
	_ = gw

	resp, body := get(t, ts.URL+"/v1/retrieve?rand=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rand retrieve: %d %s", resp.StatusCode, body)
	}
	var reply retrieveReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("bad JSON: %v (%s)", err, body)
	}
	if len(reply.Items) == 0 {
		t.Fatal("no items retrieved")
	}

	// The binary endpoint answers the same shape in the ZGR1 frame.
	resp, body = get(t, fmt.Sprintf("%s/v1/retrieve.bin?user=%d&query=%d", ts.URL, reply.User, reply.Query))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary retrieve: %d", resp.StatusCode)
	}
	items, _, err := DecodeBinary(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(items) == 0 {
		t.Fatal("no items in binary answer")
	}

	// k truncates.
	resp, body = get(t, ts.URL+"/v1/retrieve?rand=1&k=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("k retrieve: %d", resp.StatusCode)
	}
	reply = retrieveReply{}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(reply.Items) > 2 {
		t.Fatalf("k=2 returned %d items", len(reply.Items))
	}
}

func TestRetrieveValidatesIDs(t *testing.T) {
	gw, ts := buildGateway(t, Config{})
	for _, q := range []string{
		"user=abc&query=1",
		"user=1",
		fmt.Sprintf("user=%d&query=1", gw.numNodes), // one past the end
		"user=1&query=999999999",
	} {
		resp, _ := get(t, ts.URL+"/v1/retrieve?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("query %q: got %d, want 400", q, resp.StatusCode)
		}
	}
}

// An expired per-request deadline is answered 504 — the typed
// engine.ErrDeadlineExceeded surfacing at the door, not a hang and not
// a silent empty answer.
func TestDeadlineExceededIsTyped(t *testing.T) {
	_, ts := buildGateway(t, Config{})
	// 100ns budget: expired before the retrieval takes a worker state.
	resp, body := get(t, ts.URL+"/v1/retrieve?rand=1&deadline_ms=0.0001")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: got %d (%s), want 504", resp.StatusCode, body)
	}
}

// Above the soft threshold admitted requests degrade to cache-only
// answers: still 200, marked degraded, generating no backend samples.
// MaxInFlight=1 puts every single request above the 0.75 threshold.
func TestShedDegradesToCacheOnly(t *testing.T) {
	gw, ts := buildGateway(t, Config{MaxInFlight: 1})

	// Warm the cache so the degraded answer has neighbors to use.
	resp, _ := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("unhealthy before start")
	}
	resp, body := get(t, ts.URL+"/v1/retrieve?user=1&query=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retrieve: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Zoomer-Degraded") != "1" {
		t.Fatal("cache-only answer not marked degraded")
	}
	var reply retrieveReply
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if !reply.Degraded {
		t.Fatal("JSON reply not marked degraded")
	}
	if gw.met.degraded.Load() == 0 {
		t.Fatal("degraded counter not incremented")
	}
}

// Beyond the hard cap the gateway sheds with 503 + Retry-After: the one
// "overloaded" answer.
func TestHardInFlightCapSheds(t *testing.T) {
	gw, ts := buildGateway(t, Config{MaxInFlight: 4})
	gw.inflight.Add(4) // pin admission at the cap
	defer gw.inflight.Add(-4)
	resp, _ := get(t, ts.URL+"/v1/retrieve?rand=1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over cap: got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if gw.met.shedHard.Load() == 0 {
		t.Fatal("shed counter not incremented")
	}
}

// Drain: concurrent in-flight requests all finish (zero failures), new
// requests are refused, healthz flips to 503.
func TestDrainFinishesInFlight(t *testing.T) {
	gw, ts := buildGateway(t, Config{MaxInFlight: 64})

	const burst = 24
	codes := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/retrieve?rand=1")
			if err != nil {
				codes[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gw.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, c := range codes {
		// Every request must have been answered: served before/during the
		// drain, or refused 503 once draining started — never dropped on
		// the floor, never a transport error.
		if c != http.StatusOK && c != http.StatusServiceUnavailable {
			t.Fatalf("request %d finished with %d during drain", i, c)
		}
	}
	if n := gw.inflight.Load(); n != 0 {
		t.Fatalf("%d requests still in flight after drain", n)
	}

	resp, _ := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/v1/retrieve?rand=1")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("retrieve after drain: %d, want 503", resp.StatusCode)
	}
}

// Drain's nil means nothing more reaches the serve tier: requests that
// race the drain are either counted before it or refused, so a caller
// may close the serve.Server as soon as Drain returns.
func TestDrainIsFinalUnderHammer(t *testing.T) {
	gw, _ := buildGateway(t, Config{MaxInFlight: 1 << 20})
	h := gw.Handler()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/retrieve?rand=1", nil))
			}
		}()
	}
	// A request the serve tier answered leaves as a 200 or a 504 on the
	// route's own counters; a refused one leaves as a 503.
	rm := gw.met.route("retrieve")
	answered := func() int64 {
		var n int64
		for i, code := range statusCodes {
			if code == http.StatusOK || code == http.StatusGatewayTimeout {
				n += rm.codes[i].Load()
			}
		}
		return n
	}
	for answered() < 50 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := gw.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	at := answered()
	time.Sleep(20 * time.Millisecond) // the hammer keeps knocking
	stop.Store(true)
	wg.Wait()
	if now := answered(); now != at {
		t.Fatalf("the serve tier answered %d requests after Drain returned nil", now-at)
	}
}

// deadlineFor clamps every parseable budget to MaxDeadline, the ones
// too large for a Duration included, and ignores the unusable ones.
func TestDeadlineForClamps(t *testing.T) {
	g := &Gateway{cfg: Config{DefaultDeadline: 50 * time.Millisecond, MaxDeadline: 2 * time.Second}}
	for _, tc := range []struct {
		ms   string
		want time.Duration
	}{
		{"", 50 * time.Millisecond},
		{"7", 7 * time.Millisecond},
		{"0.5", 500 * time.Microsecond},
		{"0", 50 * time.Millisecond},
		{"-3", 50 * time.Millisecond},
		{"soon", 50 * time.Millisecond},
		{"NaN", 50 * time.Millisecond},
		{"inf", 50 * time.Millisecond},
		{"60000", 2 * time.Second},
		{"1e20", 2 * time.Second},
		{"1e300", 2 * time.Second},
	} {
		r := httptest.NewRequest("GET", "/v1/retrieve?deadline_ms="+tc.ms, nil)
		if got := g.deadlineFor(r.URL.Query(), r.Header); got != tc.want {
			t.Errorf("deadline_ms=%q: %v, want %v", tc.ms, got, tc.want)
		}
		r = httptest.NewRequest("GET", "/v1/retrieve", nil)
		r.Header.Set("X-Zoomer-Deadline-Ms", tc.ms)
		if got := g.deadlineFor(r.URL.Query(), r.Header); got != tc.want {
			t.Errorf("X-Zoomer-Deadline-Ms: %q: %v, want %v", tc.ms, got, tc.want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := buildGateway(t, Config{})
	get(t, ts.URL+"/v1/retrieve?rand=1")
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	page := string(body)
	for _, want := range []string{
		`zoomer_gateway_requests_total{route="retrieve",code="200"}`,
		`zoomer_gateway_request_seconds_bucket{route="retrieve",le="+Inf"}`,
		"zoomer_gateway_inflight",
		`zoomer_gateway_shed_total{kind="inflight_cap"}`,
		"zoomer_gateway_qps",
		// One retrieval is two cache lookups, both misses filled by the
		// engine.
		"zoomer_cache_hits_total 0",
		"zoomer_cache_misses_total 2",
		"zoomer_cache_refreshes_total",
		`zoomer_engine_shard_requests_total{shard="3"}`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics page missing %q:\n%s", want, page)
		}
	}
}
