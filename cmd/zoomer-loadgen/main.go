// Command zoomer-loadgen drives an open-loop HTTP load sweep against a
// zoomer-gateway and prints a Fig. 9-style table: p50/p95/p99 response
// time against offered QPS, with the gateway's degradation ladder
// (degraded cache-only answers, 503 sheds, 504 deadline misses) broken
// out per point. It needs no world knowledge — requests use the
// gateway's rand=1 pair-picking mode.
//
// Usage:
//
//	zoomer-loadgen -target http://localhost:8080 -qps 200,500,1000,2000 -duration 3s
//
// The sweep is open-loop (internal/openloop): every point sends
// exactly qps × duration requests on the offered schedule, regardless
// of completions, so overload shows up as latency and shed counts, not
// as a silently reduced offered rate. -concurrency clients send them,
// each waiting for its answer; a request the clients could only send
// late is timed from when it was due, so a stalled gateway is charged
// for every request it held up. late_p99 is the generator's own lag
// behind the schedule, in ms.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"zoomer/internal/openloop"
)

// outcome is how one request ended, on the gateway's degradation ladder.
type outcome uint8

const (
	unsent   outcome = iota // the generator never ran the slot
	failed                  // transport error or unexpected status
	ok                      // 200 with a full retrieval
	degraded                // 200 answered cache-only
	shed                    // 503
	deadline                // 504
	numOutcomes
)

func main() {
	target := flag.String("target", "http://localhost:8080", "gateway base URL")
	qpsList := flag.String("qps", "200,500,1000,2000", "comma-separated offered QPS points")
	duration := flag.Duration("duration", 3*time.Second, "measurement window per point")
	deadlineMS := flag.Int("deadline-ms", 0, "per-request deadline sent to the gateway (0: gateway default)")
	conc := flag.Int("concurrency", 512, "max in-flight client requests")
	binary := flag.Bool("binary", false, "use the binary endpoint instead of JSON")
	warmup := flag.Duration("warmup", 500*time.Millisecond, "warm-up run before the sweep (0: skip)")
	flag.Parse()

	if *conc < 1 {
		fmt.Fprintf(os.Stderr, "bad -concurrency %d: need at least one client\n", *conc)
		os.Exit(2)
	}
	if *duration <= 0 {
		fmt.Fprintf(os.Stderr, "bad -duration %v: must be positive\n", *duration)
		os.Exit(2)
	}

	var qps []float64
	for _, s := range strings.Split(*qpsList, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "bad qps %q: sweep points must be positive numbers\n", s)
			os.Exit(2)
		}
		qps = append(qps, v)
	}

	path := "/v1/retrieve?rand=1"
	if *binary {
		path = "/v1/retrieve.bin?rand=1"
	}
	if *deadlineMS > 0 {
		path += "&deadline_ms=" + strconv.Itoa(*deadlineMS)
	}
	url := strings.TrimRight(*target, "/") + path

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *conc,
			MaxIdleConnsPerHost: *conc,
		},
	}

	// Wait for the gateway to come up (world building takes a while).
	healthz := strings.TrimRight(*target, "/") + "/healthz"
	for start := time.Now(); ; {
		resp, err := client.Get(healthz)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 5*time.Minute {
			fmt.Fprintln(os.Stderr, "gateway never became healthy")
			os.Exit(1)
		}
		time.Sleep(500 * time.Millisecond)
	}

	if *warmup > 0 {
		runPoint(client, url, 200, *warmup, *conc)
	}

	fmt.Printf("%-10s %-8s %-8s %-9s %-7s %-9s %-7s %-9s %-12s %-12s %-12s\n",
		"QPS", "sent", "ok", "degraded", "shed", "deadline", "failed", "late_p99", "p50", "p95", "p99")
	for _, q := range qps {
		outcomes, res := runPoint(client, url, q, *duration, *conc)
		var c [numOutcomes]int
		var lats []time.Duration // the 200s only: a fast 503 would flatter the tail
		for slot, o := range outcomes {
			c[o]++
			if o == ok || o == degraded {
				lats = append(lats, res.Lat[slot])
			}
		}
		p := openloop.Percentiles(lats, 0.50, 0.95, 0.99)
		fmt.Printf("%-10.0f %-8d %-8d %-9d %-7d %-9d %-7d %-9.2f %-12v %-12v %-12v\n",
			q, len(outcomes)-c[unsent], c[ok]+c[degraded], c[degraded], c[shed], c[deadline], c[failed],
			float64(openloop.Percentiles(res.Late, 0.99)[0].Microseconds())/1000,
			p[0].Round(10*time.Microsecond), p[1].Round(10*time.Microsecond), p[2].Round(10*time.Microsecond))
	}
}

// runPoint offers qps × d requests at qps from workers clients and
// returns how each slot ended with what the generator measured.
func runPoint(client *http.Client, url string, qps float64, d time.Duration, workers int) ([]outcome, openloop.Result) {
	outcomes := make([]outcome, int(math.Round(qps*d.Seconds())))
	res := openloop.Run(workers, len(outcomes), time.Duration(float64(time.Second)/qps), func(_, slot int) bool {
		outcomes[slot] = get(client, url)
		return outcomes[slot] != failed
	})
	return outcomes, res
}

// get sends one retrieval and reads the answer to the end.
func get(client *http.Client, url string) outcome {
	resp, err := client.Get(url)
	if err != nil {
		return failed
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if resp.Header.Get("X-Zoomer-Degraded") == "1" {
			return degraded
		}
		return ok
	case http.StatusServiceUnavailable:
		return shed
	case http.StatusGatewayTimeout:
		return deadline
	}
	return failed
}
