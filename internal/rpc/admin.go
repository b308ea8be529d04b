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

// An admin session proves its server reachable with adminAttempts
// handshakes, each bounded by adminProbeTimeout, waiting adminBackoff
// after the first failure and doubling it per retry.
const (
	adminAttempts     = 3
	adminProbeTimeout = 2 * time.Second
	adminBackoff      = 250 * time.Millisecond
)

// Admin is a deadline-bounded admin session with one shard server: every
// operation either completes or fails typed within its bounds, never
// hanging on an unreachable server. Construct with NewAdmin; each
// command connects first.
type Admin struct {
	addr      string
	opTimeout time.Duration
	cl        *client // long-deadline client; non-nil after a successful connect
}

// NewAdmin returns an unconnected admin session for the server at addr.
// opTimeout bounds each admin operation once the server has proven
// reachable; an acquire blocks while the server builds the partition's
// alias tables, far beyond the RPC default (defaultTimeout, which a
// zero opTimeout takes).
func NewAdmin(addr string, opTimeout time.Duration) *Admin {
	return &Admin{addr: addr, opTimeout: opTimeout}
}

// connect proves the server reachable with bounded, backed-off probes —
// each a short-deadline handshake, so a dead server costs adminAttempts
// × adminProbeTimeout plus backoff, not one opTimeout per command — then
// opens the long-deadline operation client. Exhausting the probes
// fails with an error matching ErrAdminDeadline.
func (a *Admin) connect() error {
	if a.cl != nil {
		return nil
	}
	var lastErr error
	backoff := adminBackoff
	for attempt := 0; attempt < adminAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		probe := newClient(a.addr, ClientConfig{conns: 1, Timeout: adminProbeTimeout})
		_, err := probe.Info()
		probe.Close()
		if err == nil {
			a.cl = newClient(a.addr, ClientConfig{conns: 1, Timeout: a.opTimeout})
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %s after %d probes: %v", ErrAdminDeadline, a.addr, adminAttempts, lastErr)
}

// Reassign sends one acquire/release command (see client.Reassign),
// bounded by opTimeout.
func (a *Admin) Reassign(shard int, acquire bool) (uint64, error) {
	if err := a.connect(); err != nil {
		return 0, err
	}
	return a.cl.Reassign(shard, acquire)
}

// Status polls the server's routing epoch, owned partitions and member
// view, bounded by opTimeout.
func (a *Admin) Status() (epoch uint64, owned []ShardInfo, members []string, err error) {
	if err := a.connect(); err != nil {
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
