package gateway

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"zoomer/internal/engine"
	"zoomer/internal/ingest"
)

var update = flag.Bool("update", false, "rewrite testdata/metrics.golden from this run")

// fixedFacet is an append facet whose ingest rows and engine load are
// constants, so the page it feeds is the same on every run.
type fixedFacet struct{}

func (fixedFacet) Append(e []ingest.Edge) (int, error) { return len(e), nil }

func (fixedFacet) IngestStats() []engine.IngestStats {
	return []engine.IngestStats{
		{Shard: 0, Seq: 7, DeltaNodes: 3, DeltaEdges: 12, Compactions: 2, WALSegments: 1,
			Fsyncs: 6, FsyncNanos: 2_500_000, FsyncHist: []uint64{0, 1, 2, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0}},
		{Shard: 1, Seq: 4, DeltaNodes: 1, DeltaEdges: 5},
	}
}

func (fixedFacet) Stats() engine.Stats { return engine.Stats{RequestsPerShard: []int64{3, 5}} }

// maskTimings replaces the values that depend on the clock: the latency
// histogram's buckets and sum, QPS and uptime.
var maskTimings = regexp.MustCompile(`(?m)^((?:zoomer_gateway_request_seconds_(?:bucket|sum)|zoomer_gateway_qps|zoomer_gateway_uptime_seconds)(?:\{[^}]*\})?) .*$`)

// scriptedPage drives a fixed mix of answers through every route and
// returns the /metrics page with its clock-dependent values masked.
func scriptedPage(t *testing.T) string {
	gw, ts := buildGateway(t, Config{})
	gw.EnableIngest(fixedFacet{}, nil)
	gw.met.cache = func() (hits, misses, refreshes int64) { return 5, 3, 1 }

	ids := fmt.Sprintf("user=%d&query=%d&deadline_ms=2000", gw.users[0], gw.queries[0])
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/retrieve?" + ids, "", http.StatusOK},
		{"GET", "/v1/retrieve?user=x", "", http.StatusBadRequest},
		{"GET", "/v1/retrieve.bin?" + ids, "", http.StatusOK},
		{"GET", "/v1/retrieve.bin?user=x", "", http.StatusBadRequest},
		{"POST", "/v1/append", `{"edges":[{"src":0,"dst":5,"weight":1},{"src":1,"dst":6,"weight":1}]}`, http.StatusOK},
		{"POST", "/v1/append", `{not json`, http.StatusBadRequest},
		{"GET", "/v1/append", "", http.StatusMethodNotAllowed},
	} {
		var resp *http.Response
		if tc.method == "POST" {
			resp, _ = postJSON(t, ts.URL+tc.path, tc.body)
		} else {
			resp, _ = get(t, ts.URL+tc.path)
		}
		if resp.StatusCode != tc.want {
			t.Fatalf("%s %s: %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
	_, body := get(t, ts.URL+"/metrics")
	return maskTimings.ReplaceAllString(string(body), "$1 X")
}

// The /metrics page after a scripted mix of answers matches
// testdata/metrics.golden line for line, timings masked: its families,
// their order, HELP and TYPE text and label sets are what scrapers and
// the benchmark rig parse.
func TestMetricsGolden(t *testing.T) {
	page := scriptedPage(t)
	const golden = "testdata/metrics.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(page), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if page != string(want) {
		t.Fatalf("/metrics differs from %s (go test -run TestMetricsGolden -update rewrites it):\n%s", golden, page)
	}
}

// seriesLine splits one sample line of a page into its name, a
// histogram series suffix when there may be one, its labels and its
// value.
var seriesLine = regexp.MustCompile(`^([a-z_]+?)(_bucket|_sum|_count)?(?:\{([^}]*)\})? (\S+)$`)

// pageSeries reads a page into the TYPE of each family and, per family,
// the label names its samples carry.
func pageSeries(t *testing.T, page string) (types map[string]string, labels map[string][]string) {
	t.Helper()
	types, labels = map[string]string{}, map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := seriesLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparsed page line %q", line)
		}
		name := m[1]
		if types[name] != "histogram" {
			name += m[2]
		}
		if _, ok := types[name]; !ok {
			t.Fatalf("sample %q before its family's TYPE line", line)
		}
		for _, kv := range strings.Split(m[3], ",") {
			if k, _, ok := strings.Cut(kv, "="); ok && !slices.Contains(labels[name], k) {
				labels[name] = append(labels[name], k)
			}
		}
	}
	return types, labels
}

// Every answer is counted and timed: per route, the latency histogram's
// _count is the sum of the route's requests_total row, over 200, 400,
// 404, 405 and the admission 503.
func TestEveryAnswerTimed(t *testing.T) {
	gw, ts := buildGateway(t, Config{})
	ids := fmt.Sprintf("user=%d&query=%d&deadline_ms=2000", gw.users[0], gw.queries[0])
	get(t, ts.URL+"/v1/retrieve?"+ids)
	get(t, ts.URL+"/v1/retrieve?user=x")
	get(t, ts.URL+"/v1/retrieve.bin?"+ids)
	get(t, ts.URL+"/v1/append")
	postJSON(t, ts.URL+"/v1/append", `{"edges":[{"src":0,"dst":5,"weight":1}]}`)
	postJSON(t, ts.URL+"/v1/append", `{"edges":[]}`)
	gw.draining.Store(true)
	get(t, ts.URL+"/v1/retrieve.bin?"+ids)
	postJSON(t, ts.URL+"/v1/append", `{"edges":[{"src":0,"dst":5,"weight":1}]}`)
	gw.app = nil // read by the handler goroutines of a server started after the write
	ts404 := httptest.NewServer(gw.Handler())
	defer ts404.Close()
	postJSON(t, ts404.URL+"/v1/append", `{"edges":[{"src":0,"dst":5,"weight":1}]}`)

	_, body := get(t, ts.URL+"/metrics")
	total := map[string]int{}
	timed := map[string]int{}
	sample := regexp.MustCompile(`(?m)^zoomer_gateway_request(s_total|_seconds_count)\{route="([a-z_]+)"[^}]*\} (\d+)$`)
	for _, m := range sample.FindAllStringSubmatch(string(body), -1) {
		n, _ := strconv.Atoi(m[3])
		if m[1] == "s_total" {
			total[m[2]] += n
		} else {
			timed[m[2]] += n
		}
	}
	want := map[string]int{"retrieve": 2, "retrieve_bin": 2, "append": 5}
	for route, n := range want {
		if total[route] != n || timed[route] != n {
			t.Errorf("route %s: requests_total sums to %d, request_seconds_count %d, want %d answers",
				route, total[route], timed[route], n)
		}
	}
}

// docs/OPERATIONS.md's table of /metrics families names every family the
// page writes, with its type and label names, and no other.
func TestDocsMetricsTable(t *testing.T) {
	types, labels := pageSeries(t, scriptedPage(t))
	f, err := os.Open("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	row := regexp.MustCompile("^\\| `([a-z_]+)` \\| ([a-z]+) \\| ([^|]*) \\|")
	named := regexp.MustCompile("`([a-z_]+)`")
	documented := map[string]bool{}
	inTable := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "| family | type | labels |"):
			inTable = true
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable:
			m := row.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			name := m[1]
			documented[name] = true
			var docLabels []string
			for _, l := range named.FindAllStringSubmatch(m[3], -1) {
				docLabels = append(docLabels, l[1])
			}
			switch {
			case types[name] == "":
				t.Errorf("docs list %s, which the page does not write", name)
			case types[name] != m[2]:
				t.Errorf("%s is a %s on the page, documented as %s", name, types[name], m[2])
			case !slices.Equal(labels[name], docLabels):
				t.Errorf("%s carries labels %v on the page, documented as %v", name, labels[name], docLabels)
			}
		}
	}
	if len(documented) == 0 {
		t.Fatal("no `| family | type | labels |` table in docs/OPERATIONS.md")
	}
	for name := range types {
		if !documented[name] {
			t.Errorf("the page writes %s, which the docs' metrics table does not list", name)
		}
	}
}
