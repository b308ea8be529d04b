// Command zoomer-gateway is the HTTP front door of the serving stack:
// it stands up the online tier (trimmed model, neighbor cache, ANN
// index, retrieval server) over in-process or remote shards and serves
// retrieval over HTTP with admission control, per-request deadlines,
// load shedding and graceful drain. See docs/OPERATIONS.md for the
// runbook and deploy/ for the containerized topology.
//
// Usage:
//
//	zoomer-gateway -scale small -listen :8080
//	zoomer-gateway -scale small -seed 1 -remote shard0:7001,shard1:7002
//
// Endpoints:
//
//	GET /v1/retrieve?user=U&query=Q[&k=K][&deadline_ms=D]   JSON answer
//	GET /v1/retrieve?rand=1                                 gateway picks the pair
//	GET /v1/retrieve.bin?...                                binary answer (ZGR1 frame)
//	POST /v1/append                                         JSON edge batch into the delta layer
//	GET /healthz                                            200 ok / 503 draining
//	GET /metrics                                            Prometheus text format (incl. ingest, cache and per-shard request rows)
//
// SIGINT/SIGTERM starts the graceful drain: healthz flips to 503, new
// retrievals are refused, in-flight requests finish, then the HTTP
// listener and the serving stack (cluster connections included) close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zoomer/internal/gateway"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/servestack"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	scale := flag.String("scale", "small", "tiny | small | medium | large")
	seed := flag.Uint64("seed", 1, "random seed (must match zoomer-shard's with -remote)")
	trainSteps := flag.Int("train", 100, "warm-up training steps before export")
	workers := flag.Int("workers", 4, "serve worker states: retrievals that run at once")
	shards := flag.Int("shards", 4, "graph engine partitions (in-process mode)")
	strategy := flag.String("partition", "hash", "node-to-shard assignment: hash | degree-balanced")
	remote := flag.String("remote", "", "comma-separated zoomer-shard addresses (empty: in-process shards)")
	maxInFlight := flag.Int("max-inflight", 256, "hard admission cap (beyond: 503)")
	shedFrac := flag.Float64("shed-frac", 0.75, "soft shed threshold as a fraction of max-inflight (beyond: cache-only answers)")
	defDeadline := flag.Duration("default-deadline", 200*time.Millisecond, "per-request deadline when the client sends none")
	maxDeadline := flag.Duration("max-deadline", 2*time.Second, "clamp on client-requested deadlines")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "bound on the graceful drain wait")
	logJSON := flag.Bool("log-json", false, "emit JSON logs instead of text")
	flag.Parse()

	// Usage errors fail here, before the world is built: one line naming
	// the flag, exit 2. gateway.Config would silently default the four
	// admission values; a flag asks for exactly what it says.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(2)
	}
	sc, err := loggen.ParseScale(*scale)
	if err != nil {
		usage("bad -scale: %v", err)
	}
	strat, err := partition.ParseStrategy(*strategy)
	if err != nil {
		usage("bad -partition: %v", err)
	}
	if *trainSteps < 0 {
		usage("bad -train %d: must be 0 (export the initial model) or more", *trainSteps)
	}
	if *shards < 1 && *remote == "" {
		usage("bad -shards %d: need at least one in-process partition", *shards)
	}
	if *maxInFlight < 1 {
		usage("bad -max-inflight %d: need at least one admitted request", *maxInFlight)
	}
	if !(*shedFrac > 0 && *shedFrac <= 1) {
		usage("bad -shed-frac %v: must be in (0, 1]", *shedFrac)
	}
	if *defDeadline <= 0 {
		usage("bad -default-deadline %v: must be positive", *defDeadline)
	}
	if *maxDeadline <= 0 {
		usage("bad -max-deadline %v: must be positive", *maxDeadline)
	}
	if *drainTimeout <= 0 {
		usage("bad -drain-timeout %v: must be positive", *drainTimeout)
	}

	var h slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		h = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(h)

	var addrs []string
	if *remote != "" {
		addrs = strings.Split(*remote, ",")
	}
	stack, err := servestack.Build(servestack.Config{
		Scale: sc, Seed: *seed, TrainSteps: *trainSteps,
		Shards: *shards, Strategy: strat,
		Remote: addrs, Workers: *workers,
	}, func(format string, args ...any) {
		log.Info(fmt.Sprintf(format, args...))
	})
	if err != nil {
		log.Error("bring-up failed", "err", err)
		os.Exit(1)
	}
	defer stack.Close()

	gw := gateway.New(stack.Server, stack.Users, stack.Queries, stack.Graph.NumNodes(), gateway.Config{
		MaxInFlight:     *maxInFlight,
		ShedFraction:    *shedFrac,
		DefaultDeadline: *defDeadline,
		MaxDeadline:     *maxDeadline,
		Logger:          log,
	})
	// The write path: POST /v1/append feeds the engine's delta layer
	// (journaled + replicated when the shards run with -wal-dir) and
	// invalidates cached neighbor lists for the touched source nodes.
	// The stack is the facet so remote ingest rows are polled live.
	gw.EnableIngest(stack, stack.Cache)

	httpSrv := &http.Server{Addr: *listen, Handler: gw.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		s := <-sig
		log.Info("signal received, draining", "signal", s.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := gw.Drain(ctx); err != nil {
			log.Error("drain failed", "err", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Error("http shutdown failed", "err", err)
		}
	}()

	log.Info("gateway listening", "addr", *listen,
		"max_inflight", *maxInFlight, "shed_frac", *shedFrac,
		"default_deadline", *defDeadline, "users", len(stack.Users), "queries", len(stack.Queries))
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("listen failed", "err", err)
		os.Exit(1)
	}
	<-done
	log.Info("gateway stopped")
}
