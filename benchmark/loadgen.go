package main

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// doFunc performs operation number slot on worker's connection and
// reports whether the answer was correct.
type doFunc func(worker, slot int) bool

// phase is what one timed phase measured.
type phase struct {
	attempted, failed int
	wall              float64   // seconds on the clock
	cpu               float64   // process CPU seconds over the phase
	lat               []float64 // ms per operation; open phases: from due time, in slot order
	late              []float64 // open phases: ms between due time and send, in slot order
}

func (p *phase) add(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.wall += q.wall
	p.cpu += q.cpu
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
}

// lateShare is the share of open-phase sends more than 1 ms after they
// were due: how far the generator fell behind its own schedule.
func (p *phase) lateShare() float64 {
	if len(p.late) == 0 {
		return 0
	}
	n := 0
	for _, l := range p.late {
		if l > 1 {
			n++
		}
	}
	return float64(n) / float64(len(p.late))
}

// closedLoop runs workers back to back: each claims the next slot, waits
// for its answer, and claims again. It stops after n slots when n > 0,
// otherwise once d has elapsed. Callers that wait for replies make a
// closed loop, so a slow system receives less load.
func closedLoop(workers, n int, d time.Duration, do doFunc) phase {
	var next atomic.Int64
	var failed atomic.Int64
	lats := make([][]float64, workers)
	var wg sync.WaitGroup
	cpu0, start := cpuSeconds(), time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t := time.Now()
				if n <= 0 && t.Sub(start) >= d {
					return
				}
				slot := int(next.Add(1) - 1)
				if n > 0 && slot >= n {
					return
				}
				if !do(w, slot) {
					failed.Add(1)
				}
				lats[w] = append(lats[w], ms(time.Since(t)))
			}
		}(w)
	}
	wg.Wait()
	p := phase{wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0, failed: int(failed.Load())}
	for _, l := range lats {
		p.lat = append(p.lat, l...)
	}
	p.attempted = len(p.lat)
	return p
}

// openLoop offers n operations on a fixed schedule, slot i due at
// start + i×interval, whatever the system's pace. The workers claim due
// slots in order. A worker that picks a slot up after it was due was
// held up by the system, and the operation's latency runs from the due
// time: a stall is charged to every request that was due during it (no
// coordinated omission). A worker that picks a slot up early sleeps and
// is woken late by its own timer (60–90 µs here, as much as the request
// itself takes); that wait is the generator's, so latency runs from the
// send. late records how far behind the schedule each send was, either
// way.
func openLoop(workers, n int, interval time.Duration, do doFunc) phase {
	var next atomic.Int64
	var failed atomic.Int64
	p := phase{attempted: n, lat: make([]float64, n), late: make([]float64, n)}
	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	start := time.Now().Add(5 * time.Millisecond) // let every worker reach its first sleep
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				slot := int(next.Add(1) - 1)
				if slot >= n {
					return
				}
				from := start.Add(time.Duration(slot) * interval)
				if wait := time.Until(from); wait > 0 {
					pause(wait)
					p.late[slot] = ms(time.Since(from))
					from = time.Now()
				} else {
					p.late[slot] = ms(-wait)
				}
				if !do(w, slot) {
					failed.Add(1)
				}
				p.lat[slot] = ms(time.Since(from))
			}
		}(w)
	}
	wg.Wait()
	p.wall = time.Since(start).Seconds()
	p.cpu = cpuSeconds() - cpu0
	p.failed = int(failed.Load())
	return p
}

// pause blocks for d in the kernel. time.Sleep on an otherwise idle
// process wakes through the netpoller, whose timeout has millisecond
// granularity (measured here: a 100 µs sleep takes 1.09 ms); nanosleep
// overshoots by 60–90 µs, which a sub-millisecond schedule needs.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil) // an early wake-up only sends the request early
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
