// Package obs is the one spelling of a metric in this tree: a
// fixed-bucket latency histogram on atomics, and the writer of the
// Prometheus text exposition page (format 0.0.4) that every /metrics
// handler prints through. It imports only the standard library.
package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram. Observe is lock-free
// and makes no allocation, so it sits on request and fsync paths; a
// Snapshot taken during an Observe may see the bucket before the sum.
type Histogram struct {
	bounds  []float64       // upper bounds in seconds, ascending; +Inf is implicit
	buckets []atomic.Uint64 // len(bounds)+1, +Inf last
	nanos   atomic.Uint64
}

// NewHistogram returns an empty histogram over bounds, upper bucket
// bounds in seconds in ascending order.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one duration in the first bucket whose bound it does
// not exceed.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(h.bounds) && s > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.nanos.Add(uint64(d))
}

// Snapshot is a histogram's counts at one instant: the form it travels
// in (ingest.Stats and the RPC ingest row carry its fields) and the form
// Page.Hist prints.
type Snapshot struct {
	Bounds  []float64 // upper bounds in seconds; +Inf is implicit
	Buckets []uint64  // per-bucket counts aligned with Bounds, +Inf last
	Sum     time.Duration
}

// Snapshot copies the current counts.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{Bounds: h.bounds, Buckets: make([]uint64, len(h.buckets)), Sum: time.Duration(h.nanos.Load())}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Page writes one exposition page. Family opens a metric family with its
// HELP and TYPE lines; the Sample and Hist calls that follow print that
// family's series. Labels are given as name, value pairs. Write errors
// are dropped: a scrape that fails to arrive changes nothing here.
type Page struct {
	w      io.Writer
	family string
}

// NewPage returns a page writing to w.
func NewPage(w io.Writer) *Page { return &Page{w: w} }

// Family opens the family name of type typ (counter, gauge, histogram).
func (p *Page) Family(name, typ, help string) {
	p.family = name
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample of the open family. v prints in its %v form:
// integers in full, floats in %g.
func (p *Page) Sample(v any, labels ...string) { p.line(p.family, v, labels) }

// Hist writes one histogram series of the open family: cumulative
// le-labelled buckets, then _sum in seconds and _count, the +Inf
// bucket's running total. A snapshot with
// fewer buckets than bounds (a short wire row) counts the missing ones
// as empty.
func (p *Page) Hist(s Snapshot, labels ...string) {
	var cum uint64
	for i := 0; i <= len(s.Bounds); i++ {
		le := "+Inf"
		if i < len(s.Bounds) {
			le = strconv.FormatFloat(s.Bounds[i], 'g', -1, 64)
		}
		if i < len(s.Buckets) {
			cum += s.Buckets[i]
		}
		p.line(p.family+"_bucket", cum, append(labels[:len(labels):len(labels)], "le", le))
	}
	p.line(p.family+"_sum", s.Sum.Seconds(), labels)
	p.line(p.family+"_count", cum, labels)
}

func (p *Page) line(name string, v any, labels []string) {
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		name += fmt.Sprintf("%s%s=%q", sep, labels[i], labels[i+1])
		sep = ","
	}
	if sep == "," {
		name += "}"
	}
	fmt.Fprintf(p.w, "%s %v\n", name, v)
}
