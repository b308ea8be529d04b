// Package ps implements the worker/parameter-server training architecture
// of §VI (the XDL stand-in): embedding rows live on sharded parameter
// servers; workers pull the rows a minibatch touches, compute gradients
// locally, and push sparse updates back asynchronously. Updates are
// applied by per-shard apply loops, so workers never wait on each other —
// the staleness/throughput trade the paper's asynchronous design makes is
// exercised for real, in-process.
package ps

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Key identifies one embedding row: a table name and a row id.
type Key struct {
	Table string
	Row   int32
}

func (k Key) shardHash() uint64 {
	h := uint64(1469598103934665603)
	for _, c := range []byte(k.Table) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= uint64(uint32(k.Row))
	h *= 1099511628211
	return h
}

// Update is one pushed sparse gradient (already scaled by the worker's
// learning rate — the PS applies plain additive updates, keeping the
// server logic optimizer-agnostic as in XDL's sparse path).
type Update struct {
	Key   Key
	Delta []float32
}

// Config sizes the server.
type Config struct {
	Shards    int
	Dim       int // row width
	QueueSize int // per-shard async apply queue capacity
}

// DefaultConfig returns a small production-shaped layout.
func DefaultConfig() Config { return Config{Shards: 4, Dim: 32, QueueSize: 1024} }

// Server is a sharded parameter store with asynchronous update
// application.
type Server struct {
	cfg    Config
	shards []*psShard

	pulls, pushes, applied atomic.Int64
	enqueued               atomic.Int64 // updates handed to a shard queue; Flush waits for applied to catch up
	maxQueue               atomic.Int64

	wg      sync.WaitGroup
	closing atomic.Bool
}

type psShard struct {
	mu    sync.RWMutex
	rows  map[Key][]float32
	queue chan Update
}

// NewServer starts a server with cfg (one apply goroutine per shard).
// Close must be called to stop the apply loops.
func NewServer(cfg Config) *Server {
	if cfg.Shards <= 0 || cfg.Dim <= 0 || cfg.QueueSize <= 0 {
		panic(fmt.Sprintf("ps: invalid config %+v", cfg))
	}
	s := &Server{cfg: cfg}
	s.shards = make([]*psShard, cfg.Shards)
	for i := range s.shards {
		sh := &psShard{
			rows:  make(map[Key][]float32),
			queue: make(chan Update, cfg.QueueSize),
		}
		s.shards[i] = sh
		s.wg.Add(1)
		go s.applyLoop(sh)
	}
	return s
}

func (s *Server) applyLoop(sh *psShard) {
	defer s.wg.Done()
	for u := range sh.queue {
		sh.mu.Lock()
		row, ok := sh.rows[u.Key]
		if !ok {
			row = make([]float32, s.cfg.Dim)
			sh.rows[u.Key] = row
		}
		for i := range row {
			row[i] += u.Delta[i]
		}
		sh.mu.Unlock()
		s.applied.Add(1)
	}
}

func (s *Server) shardOf(k Key) *psShard {
	return s.shards[int(k.shardHash()%uint64(len(s.shards)))]
}

// Init installs an initial value for a row (synchronous; used at model
// setup). It overwrites any existing value.
func (s *Server) Init(k Key, v []float32) {
	if len(v) != s.cfg.Dim {
		panic("ps: Init dim mismatch")
	}
	sh := s.shardOf(k)
	sh.mu.Lock()
	row := make([]float32, s.cfg.Dim)
	copy(row, v)
	sh.rows[k] = row
	sh.mu.Unlock()
}

// Pull returns copies of the requested rows (zero rows for unseen keys),
// the read half of a training iteration.
func (s *Server) Pull(keys []Key) [][]float32 {
	s.pulls.Add(1)
	out := make([][]float32, len(keys))
	for i, k := range keys {
		sh := s.shardOf(k)
		sh.mu.RLock()
		row := sh.rows[k]
		cp := make([]float32, s.cfg.Dim)
		copy(cp, row) // nil row copies nothing: zero-initialized
		sh.mu.RUnlock()
		out[i] = cp
	}
	return out
}

// Push enqueues sparse updates for asynchronous application. It blocks
// only when a shard queue is full (backpressure), mirroring a bounded
// send window.
func (s *Server) Push(updates []Update) {
	if s.closing.Load() {
		return
	}
	s.pushes.Add(1)
	for _, u := range updates {
		if len(u.Delta) != s.cfg.Dim {
			panic("ps: Push dim mismatch")
		}
		sh := s.shardOf(u.Key)
		if d := int64(len(sh.queue)); d > s.maxQueue.Load() {
			s.maxQueue.Store(d)
		}
		s.enqueued.Add(1)
		sh.queue <- u
	}
}

// Flush blocks until every update pushed before the call has been
// applied. It waits on the applied count, not on queue lengths: an update
// leaves its queue before the apply loop takes the row lock, so an empty
// queue does not mean an applied update.
func (s *Server) Flush() {
	for want := s.enqueued.Load(); s.applied.Load() < want; {
		runtime.Gosched()
	}
}

// Close stops the apply loops after draining queues.
func (s *Server) Close() {
	if s.closing.Swap(true) {
		return
	}
	for _, sh := range s.shards {
		close(sh.queue)
	}
	s.wg.Wait()
}

// Metrics reports server-side counters.
type Metrics struct {
	Pulls, Pushes, Applied int64
	MaxQueueDepth          int64
	Rows                   int
}

// Metrics snapshots counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		Pulls:         s.pulls.Load(),
		Pushes:        s.pushes.Load(),
		Applied:       s.applied.Load(),
		MaxQueueDepth: s.maxQueue.Load(),
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		m.Rows += len(sh.rows)
		sh.mu.RUnlock()
	}
	return m
}
