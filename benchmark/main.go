// Command benchmark is the whole-request record of the Zoomer
// reproduction: retrieval through gateway → serve → cache → engine →
// TCP → shard and back, the durable append path, and training through
// core.GraphView, measured from outside in one process. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"zoomer/internal/tensor"
)

var workloads = []string{"retrieve_hot", "retrieve_cold", "retrieve_append", "train_roi"}

// result is one run's outcome: the contract's last line.
type result struct {
	attempted, failed int
	errs              []error // failed output checks
	metrics           map[string]float64
}

func (r *result) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

// phaseLine reports a phase's operations as the contract requires.
func (r *result) phaseLine(name string, p phase) {
	r.attempted += p.attempted
	r.failed += p.failed
	fmt.Printf("phase %-9s attempted=%d failed=%d wall_s=%.3f ops/s=%.1f\n", name, p.attempted, p.failed, p.wall, float64(p.attempted)/p.wall)
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
	tmp      string
}

func main() {
	var o options
	trace := flag.Int("trace", 0, "1: the traced pass that reports the per-layer metrics; 0: the end-to-end metrics")
	flag.StringVar(&o.workload, "workload", "", "one of retrieve_hot, retrieve_cold, retrieve_append, train_roi")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed phases")
	flag.StringVar(&o.traceOut, "trace-out", "", "file the spans are written to (default: under -tmp)")
	flag.StringVar(&o.tmp, "tmp", os.TempDir(), "directory for WALs and span files")
	flag.Parse()
	o.trace = *trace != 0

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", e)
	}
	printResult(res, o.trace)
	if len(res.errs) > 0 || res.failed > 0 {
		os.Exit(1)
	}
}

func run(o options) (*result, error) {
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if !slices.Contains(workloads, o.workload) {
		return nil, fmt.Errorf("unknown -workload %q (want one of %v)", o.workload, workloads)
	}
	switch {
	case o.trace:
		return tracePass(o)
	case o.workload == "train_roi":
		return benchTrain(o)
	}
	return benchRetrieve(o)
}

// header prints what a reader needs to compare two runs: the code, the
// box, the pinned load and the world. Edge counts that differ between
// runs of one seed are ROADMAP item 1 showing through.
func header(o options, w *world) {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("benchmark workload=%s seed=%d seconds=%g trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("commit=%s date=%s go=%s nproc=%d gomaxprocs=%d simd=%s\n",
		commit, time.Now().UTC().Format(time.RFC3339), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), tensor.SIMD())
	remote, local := trainSteps(o.seconds)
	fmt.Printf("clients=%d rate_rps=%g append_every=%d append_batch=%d train_steps=%d+%d\n",
		clients, openRate[o.workload], appendEvery, appendBatch, remote, local)
	fmt.Printf("world %s\n", w)
}

func benchRetrieve(o options) (*result, error) {
	warm := o.workload != "retrieve_cold"
	rg, setupS, err := repeatSetup(func() (*rig, error) { return setupRig(o.seed, o.tmp, warm) })
	if err != nil {
		return nil, err
	}
	defer rg.Close()
	header(o, rg.w)

	run := newRetrieveRun(rg, genLoad(rg.w, o.seed, o.workload == "retrieve_append"))
	rr := runRetrieve(newDriver(o.workload, rg, run), o.seconds)

	res := &result{metrics: map[string]float64{}}
	res.phaseLine("closed", rr.closed)
	res.phaseLine("open", rr.open)
	fmt.Printf("open phase: late_share=%.4f segments=%d of %d samples p99_ms=%.4f (no bound)\n",
		rr.open.lateShare(), len(rr.open.lat)/segmentSize, segmentSize, segmentPercentile(rr.open.lat, segmentSize, 0.99))
	res.check(rr.checkErr)
	res.check(rr.sanity(o.workload))
	res.check(atLeast("quality (recall@100)", rr.recall, minRecall))

	done := float64(rr.closed.attempted - rr.closed.failed)
	res.metrics["setup_s"] = setupS
	res.metrics["throughput_ops_s"] = done / rr.closed.wall
	res.metrics["cpu_ms_per_op"] = rr.closed.cpu * 1e3 / done
	res.metrics["p50_ms"] = segmentPercentile(rr.open.lat, segmentSize, 0.50)
	res.metrics["quality"] = rr.recall
	res.metrics["mem_peak_mb"] = peakRSSMiB()
	return res, nil
}

// sanity checks that the workload exercised the layers it was built to:
// hot never reaches a shard synchronously, cold always does, twice.
func (rr retrieveResult) sanity(workload string) error {
	hitShare, samplePerOp := rr.hitShare(), rr.perOp(cOpSample)
	switch workload {
	case "retrieve_hot":
		if hitShare < 0.99 || samplePerOp != 0 {
			return fmt.Errorf("retrieve_hot is not hot: cache hit share %.4f, %.4f synchronous samples per request", hitShare, samplePerOp)
		}
	case "retrieve_cold":
		if hitShare != 0 || samplePerOp != 2 {
			return fmt.Errorf("retrieve_cold is not cold: cache hit share %.4f, %.4f synchronous samples per request", hitShare, samplePerOp)
		}
	}
	return nil
}

func atLeast(what string, got, want float64) error {
	if got < want {
		return fmt.Errorf("%s = %.4f, below %.2f", what, got, want)
	}
	return nil
}

func benchTrain(o options) (*result, error) {
	t, setupS, err := repeatSetup(func() (*trainRig, error) { return setupTrain(o.seed, o.tmp) })
	if err != nil {
		return nil, err
	}
	defer t.Close()
	header(o, t.w)
	remoteSteps, localSteps := trainSteps(o.seconds)

	tr := runTrain(t, remoteSteps, localSteps)
	res := &result{metrics: map[string]float64{}}
	res.phaseLine("remote", tr.remote)
	res.phaseLine("local", tr.local)
	fmt.Printf("remote steps: slowest %.1f ms (no bound)\n", slices.Max(tr.stepMs))
	res.check(atLeast("quality (train AUC)", tr.auc, minTrainAUC))

	examples := float64(tr.remote.attempted * trainBatch)
	res.metrics["setup_s"] = setupS
	res.metrics["throughput_ops_s"] = examples / tr.remote.wall
	res.metrics["cpu_ms_per_op"] = tr.remote.cpu * 1e3 / examples
	res.metrics["p50_ms"] = median(tr.stepMs)
	res.metrics["quality"] = tr.auc
	res.metrics["mem_peak_mb"] = peakRSSMiB()
	return res, nil
}

// printResult prints every metric by name with its unit, then the
// contract's JSON object as the last line of standard output.
func printResult(r *result, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{len(r.errs) == 0, r.attempted, r.failed, map[string]mv{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		fmt.Printf("%-36s %14.4f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = mv{v, d.unit}
	}
	line, _ := json.Marshal(out) // a struct of numbers and strings cannot fail to marshal
	fmt.Println(string(line))
}
