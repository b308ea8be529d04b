package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/rng"
)

// partialAppender lands n edges, then fails — Engine.Append's answer when
// a later shard's group could not be written.
type partialAppender struct {
	n   int
	err error
}

func (p partialAppender) Append([]ingest.Edge) (int, error) { return p.n, p.err }

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, sb.String()
}

// POST /v1/append lands edges in the engine's delta layer and answers
// with the accepted count; bad batches fail 400 with the engine's typed
// validation message, and non-POST methods are refused.
func TestAppendEndpoint(t *testing.T) {
	gw, ts := buildGateway(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/append",
		`{"edges":[{"src":0,"dst":5,"type":0,"weight":2.5},{"src":1,"dst":6,"type":1,"weight":1.0}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	var reply appendReply
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("bad reply %q: %v", body, err)
	}
	if reply.Appended != 2 {
		t.Fatalf("appended %d edges, want 2", reply.Appended)
	}

	// Validation failures surface typed as 400s.
	resp, body = postJSON(t, ts.URL+"/v1/append", `{"edges":[{"src":0,"dst":5,"weight":-1}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative weight: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/append", `{"edges":[]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/append", `{not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d %s", resp.StatusCode, body)
	}

	// GET is refused with Allow.
	getResp, _ := get(t, ts.URL+"/v1/append")
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET append: %d", getResp.StatusCode)
	}

	// A partial append — earlier shard groups landed, a later one found
	// no reachable owner — is still a 503, but the landed edges are
	// counted, reported to the client and their cached samples invalidated.
	gw.cache.Get(0, rng.New(1)).Release()
	invalidated := gw.cache.Invalidations()
	gw.app = partialAppender{n: 32, err: fmt.Errorf("shard 3: %w", engine.ErrShardUnavailable)}
	resp, body = postJSON(t, ts.URL+"/v1/append", `{"edges":[{"src":0,"dst":5,"weight":1}]}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("partial append: %d %s (Retry-After %q)", resp.StatusCode, body, resp.Header.Get("Retry-After"))
	}
	if got := resp.Header.Get("X-Zoomer-Appended"); got != "32" {
		t.Fatalf("partial append reported X-Zoomer-Appended %q, want 32", got)
	}
	if gw.cache.Invalidations() != invalidated+1 {
		t.Fatal("partial append left the landed source's cached sample un-invalidated")
	}

	// The write path shows up on /metrics: accepted-edge counter, the
	// append route rows, and the per-shard ingest section scraped live
	// from the engine.
	mResp, mBody := get(t, ts.URL+"/metrics")
	if mResp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mResp.StatusCode)
	}
	page := string(mBody)
	for _, want := range []string{
		"zoomer_gateway_appended_edges_total 34",
		`zoomer_gateway_requests_total{route="append",code="200"} 1`,
		`zoomer_gateway_requests_total{route="append",code="400"} 3`,
		`zoomer_gateway_requests_total{route="append",code="503"} 1`,
		`zoomer_ingest_seq{shard="0"}`,
		"zoomer_ingest_delta_edges",
		"zoomer_ingest_compactions_total",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics page missing %q:\n%s", want, page)
		}
	}
}

// A batch invalidates each distinct source once, however many of its
// edges leave that source: 64 edges over 3 cached sources are at most 3
// invalidations, not 64 queued refreshes.
func TestAppendInvalidatesEachSourceOnce(t *testing.T) {
	gw, ts := buildGateway(t, Config{})
	srcs := []int{0, 1, 2}
	for _, src := range srcs {
		gw.cache.Get(graph.NodeID(src), rng.New(1)).Release()
	}
	edges := make([]string, 64)
	for i := range edges {
		edges[i] = fmt.Sprintf(`{"src":%d,"dst":%d,"weight":1}`, srcs[i%len(srcs)], 10+i)
	}
	before := gw.cache.Invalidations()
	resp, body := postJSON(t, ts.URL+"/v1/append", `{"edges":[`+strings.Join(edges, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	if got := gw.cache.Invalidations() - before; got < 1 || got > int64(len(srcs)) {
		t.Fatalf("64-edge batch over %d sources raised Invalidations by %d, want 1..%d", len(srcs), got, len(srcs))
	}
}

// A gateway whose ingest path was never enabled answers 404, not a
// panic or a silent 200.
func TestAppendDisabledAnswers404(t *testing.T) {
	gw, ts := buildGateway(t, Config{})
	gw.app = nil // simulate a read-only deployment
	resp, body := postJSON(t, ts.URL+"/v1/append", `{"edges":[{"src":0,"dst":1,"weight":1}]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled append: %d %s", resp.StatusCode, body)
	}
}
