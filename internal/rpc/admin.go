package rpc

import (
	"errors"
	"fmt"
	"time"
)

// ErrAdminDeadline is the typed outcome of an admin operation that
// exhausted its reachability probes or its overall deadline: the target
// server never became reachable within the configured bounds. Callers
// (zoomer-shard's admin mode) map it to a distinct exit code so scripts
// can tell "server unreachable" from "server refused the command".
var ErrAdminDeadline = errors.New("rpc: admin deadline exceeded (server unreachable)")

// AdminConfig bounds an admin session against an unreachable or slow
// server. The zero value gets sensible defaults.
type AdminConfig struct {
	// Attempts is how many reachability probes Connect makes before
	// failing with ErrAdminDeadline (default 3).
	Attempts int
	// ProbeTimeout bounds each reachability probe (default 2s).
	ProbeTimeout time.Duration
	// Backoff is the wait after the first failed probe, doubling per
	// retry (default 250ms).
	Backoff time.Duration
	// OpTimeout bounds each admin operation once the server has proven
	// reachable (default 5m — an acquire blocks while the server builds
	// the partition's alias tables, far beyond the RPC default).
	OpTimeout time.Duration
}

func (cfg AdminConfig) withDefaults() AdminConfig {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 250 * time.Millisecond
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 5 * time.Minute
	}
	return cfg
}

// Admin is a deadline-bounded admin session with one shard server: every
// operation either completes or fails typed within its bounds, never
// hanging on an unreachable server. Construct with NewAdmin, then
// Connect before issuing commands.
type Admin struct {
	addr string
	cfg  AdminConfig
	cl   *client // long-deadline client; non-nil after a successful Connect
}

// NewAdmin returns an unconnected admin session for the server at addr.
func NewAdmin(addr string, cfg AdminConfig) *Admin {
	return &Admin{addr: addr, cfg: cfg.withDefaults()}
}

// Connect proves the server reachable with bounded, backed-off probes —
// each a short-deadline handshake, so a dead server costs
// Attempts×ProbeTimeout plus backoff, not one OpTimeout per command —
// then opens the long-deadline operation client. Exhausting the probes
// fails with an error matching ErrAdminDeadline.
func (a *Admin) Connect() error {
	if a.cl != nil {
		return nil
	}
	var lastErr error
	backoff := a.cfg.Backoff
	for attempt := 0; attempt < a.cfg.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		probe := newClient(a.addr, ClientConfig{Conns: 1, Timeout: a.cfg.ProbeTimeout})
		_, err := probe.Info()
		probe.Close()
		if err == nil {
			a.cl = newClient(a.addr, ClientConfig{Conns: 1, Timeout: a.cfg.OpTimeout})
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %s after %d probes: %v", ErrAdminDeadline, a.addr, a.cfg.Attempts, lastErr)
}

// Reassign sends one acquire/release command (see client.Reassign),
// bounded by OpTimeout.
func (a *Admin) Reassign(shard int, acquire bool) (uint64, error) {
	if err := a.Connect(); err != nil {
		return 0, err
	}
	return a.cl.Reassign(shard, acquire)
}

// Status polls the server's routing epoch, owned partitions and member
// view, bounded by OpTimeout.
func (a *Admin) Status() (epoch uint64, owned []ShardInfo, members []string, err error) {
	if err := a.Connect(); err != nil {
		return 0, nil, nil, err
	}
	return a.cl.routingEpoch()
}

// Close tears down the session.
func (a *Admin) Close() error {
	if a.cl != nil {
		return a.cl.Close()
	}
	return nil
}
