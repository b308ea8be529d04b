package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// muxConn is one full-duplex multiplexed connection: a fixed window of
// in-flight request slots, writes serialized under a lock (the writer
// role), and the reader role passed between awaiting callers as a lease
// (leader/follower): whoever holds the lease reads frames off the
// socket, completing other callers' slots by request id as they fly by,
// and hands the role on when its own response arrives. No dedicated
// reader goroutine exists, so a caller awaiting its response blocks
// directly in the kernel read — one wakeup, not a netpoll wake plus a
// channel handoff — and a response that has already landed in the
// kernel buffer is consumed without blocking at all. The request id on
// the wire is the slot index, so lookup is an array read and a slot is
// reused only after its caller has consumed the response — no id map,
// no allocation at steady state.
//
// Failure is connection-granular: any transport error (read, write, or a
// caller's deadline expiring) kills the whole connection and delivers
// the error to every in-flight slot exactly once — a pipelined request
// never hangs on a dead peer and never receives another request's bytes.
type muxConn struct {
	c       net.Conn
	br      *bufio.Reader // buffered view of c, owned by the lease holder
	timeout time.Duration

	slots []muxSlot
	free  *slotStack    // indices of slots not in flight (LIFO)
	lease chan struct{} // buffered 1: the reader-role token
	rhdr  [12]byte      // frame header scratch, owned by the lease holder

	wmu  sync.Mutex // serializes request frame writes
	dead atomic.Bool

	emu  sync.Mutex
	errp error // first transport error, recorded before dead is set
}

// muxSlot is one in-flight request's state. The caller owns req/resp/err
// from acquisition until it returns the slot to the free list; pending
// marks the window between frame write and response delivery, during
// which exactly one completer (the reader, or the connection's failure
// path) wins the compare-and-swap and signals done.
type muxSlot struct {
	idx     int32
	pending atomic.Bool
	req     []byte // composed request frame, capacity reused
	resp    []byte // response body (status byte + payload), capacity reused
	err     error
	done    chan struct{} // buffered 1; one signal per pending request
}

// errMuxTimeout marks a caller-side deadline expiry; it kills the
// connection (a peer that stopped answering one request cannot be
// trusted with the others).
var errMuxTimeout = errors.New("rpc: request timed out")

// dialMux dials addr, performs the preface exchange and starts the
// reader. window bounds the in-flight requests on this connection.
func dialMux(addr string, window int, timeout time.Duration) (*muxConn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		c.Close()
		return nil, err
	}
	var pre [prefaceLen]byte
	if _, err := c.Write(appendPreface(pre[:0], ProtocolVersion)); err != nil {
		c.Close()
		return nil, fmt.Errorf("protocol preface: %w", err)
	}
	if _, err := io.ReadFull(c, pre[:]); err != nil {
		c.Close()
		return nil, fmt.Errorf("protocol preface not acknowledged (server speaks an older protocol?): %w", err)
	}
	v, err := parsePreface(pre[:])
	if err != nil {
		c.Close()
		return nil, err
	}
	if v != ProtocolVersion {
		c.Close()
		return nil, fmt.Errorf("rpc: protocol version mismatch: server speaks v%d, client v%d", v, ProtocolVersion)
	}
	c.SetDeadline(time.Time{})
	// Buffered reads: one kernel read typically delivers a whole frame —
	// often several pipelined ones — instead of paying a syscall each for
	// header and body.
	mc := &muxConn{c: c, br: bufio.NewReaderSize(c, readBufSize), timeout: timeout,
		slots: make([]muxSlot, window), free: newSlotStack(window),
		lease: make(chan struct{}, 1)}
	for i := range mc.slots {
		mc.slots[i].idx = int32(i)
		mc.slots[i].done = make(chan struct{}, 1)
	}
	mc.lease <- struct{}{} // the reader role starts free
	return mc, nil
}

// slotStack is a LIFO free list of slot indices with a semaphore for
// bounded blocking acquisition. LIFO matters: steady state keeps
// reusing the same few just-released slots, so their request/response
// buffers stay grown and warm instead of rotating through every slot in
// the window.
type slotStack struct {
	mu    sync.Mutex
	idxs  []int32
	avail chan struct{}
}

func newSlotStack(n int) *slotStack {
	s := &slotStack{idxs: make([]int32, 0, n), avail: make(chan struct{}, n)}
	for i := n - 1; i >= 0; i-- {
		s.push(int32(i))
	}
	return s
}

// pop blocks for a free index until timeout fires (a nil timeout blocks
// indefinitely). A token on avail guarantees the stack is non-empty.
func (s *slotStack) pop(timeout <-chan time.Time) (int32, bool) {
	select {
	case <-s.avail:
	case <-timeout:
		return 0, false
	}
	s.mu.Lock()
	i := s.idxs[len(s.idxs)-1]
	s.idxs = s.idxs[:len(s.idxs)-1]
	s.mu.Unlock()
	return i, true
}

// tryPop takes a free index only if one is available right now.
func (s *slotStack) tryPop() (int32, bool) {
	select {
	case <-s.avail:
	default:
		return 0, false
	}
	s.mu.Lock()
	i := s.idxs[len(s.idxs)-1]
	s.idxs = s.idxs[:len(s.idxs)-1]
	s.mu.Unlock()
	return i, true
}

func (s *slotStack) push(i int32) {
	s.mu.Lock()
	s.idxs = append(s.idxs, i)
	s.mu.Unlock()
	s.avail <- struct{}{}
}

// transportErr returns the error that killed the connection.
func (mc *muxConn) transportErr() error {
	mc.emu.Lock()
	defer mc.emu.Unlock()
	if mc.errp != nil {
		return mc.errp
	}
	return errors.New("rpc: connection closed")
}

// fail kills the connection: records err, closes the socket (unblocking
// the reader and any blocked write) and delivers err to every in-flight
// slot that no other completer has claimed. Safe to call concurrently;
// each pending slot is signaled exactly once across all completers.
func (mc *muxConn) fail(err error) {
	mc.emu.Lock()
	if mc.errp == nil {
		mc.errp = err
	}
	mc.emu.Unlock()
	mc.dead.Store(true)
	mc.c.Close()
	for i := range mc.slots {
		sl := &mc.slots[i]
		if sl.pending.CompareAndSwap(true, false) {
			sl.err = mc.transportErr()
			sl.done <- struct{}{}
		}
	}
}

// close tears the connection down without a pending caller (pool
// shutdown / replacement of a dead connection).
func (mc *muxConn) close() { mc.fail(errors.New("rpc: client closed")) }

// unlease returns the reader-role token.
func (mc *muxConn) unlease() { mc.lease <- struct{}{} }

// readOne demultiplexes a single response frame while holding the
// lease. It claims the target slot (winning the pending CAS) before
// reading the body directly into the slot's buffer, so a slot's
// response bytes are never shared with another request and the failure
// path cannot race the copy. A completed foreign slot is signaled; the
// holder's own slot (sl == own) is not — the holder consumes the result
// directly. A non-nil error obliges the caller to fail the connection;
// any slot claimed by the failed read has its outcome recorded already.
// d bounds the kernel read — the connection timeout, or the holder's
// smaller per-call budget; either way a read-deadline expiry fails the
// connection, so a shortened read changes when the teardown happens,
// not whether it does.
func (mc *muxConn) readOne(own *muxSlot, d time.Duration) (mine bool, err error) {
	mc.c.SetReadDeadline(time.Now().Add(d))
	if _, err := io.ReadFull(mc.br, mc.rhdr[:]); err != nil { // u32 length + u64 request id
		return false, err
	}
	n := int(binary.LittleEndian.Uint32(mc.rhdr[0:4]))
	id := binary.LittleEndian.Uint64(mc.rhdr[4:12])
	if n < 9 || n > maxFrame || id >= uint64(len(mc.slots)) {
		return false, fmt.Errorf("rpc: malformed response frame (len %d, id %d)", n, id)
	}
	sl := &mc.slots[id]
	if !sl.pending.CompareAndSwap(true, false) {
		return false, fmt.Errorf("rpc: response for request %d not in flight", id)
	}
	body := n - 8
	if cap(sl.resp) < body {
		sl.resp = make([]byte, body)
	}
	sl.resp = sl.resp[:body]
	if _, rerr := io.ReadFull(mc.br, sl.resp); rerr != nil {
		sl.err = rerr
		if sl != own {
			sl.done <- struct{}{}
		}
		return sl == own, rerr
	}
	sl.err = nil
	if sl == own {
		return true, nil
	}
	sl.done <- struct{}{}
	return false, nil
}

// acquire checks a free slot out of the window, composing the frame
// prefix ([len hole | request id | op]) into the slot's request buffer.
// It blocks while the window is full — backpressure, bounded by ct
// armed with d (the connection timeout, or a caller deadline's smaller
// remaining budget). Failing to win a slot sends nothing, so a
// deadline-bounded caller that times out here has not perturbed the
// connection at all.
func (mc *muxConn) acquire(op Op, ct *callTimer, d time.Duration) (*muxSlot, []byte, error) {
	idx, ok := mc.free.pop(ct.after(d))
	if !ok {
		return nil, nil, errMuxTimeout
	}
	ct.settle()
	sl := &mc.slots[idx]
	b := append(sl.req[:0], 0, 0, 0, 0)
	b = appendU64(b, uint64(idx))
	b = append(b, byte(op))
	return sl, b, nil
}

// tryAcquire is acquire without blocking: it fails immediately when the
// window is full. The async start path uses it so a caller holding one
// slot never blocks waiting for another — the hold-and-wait that would
// deadlock a full window of multi-shard callers.
func (mc *muxConn) tryAcquire(op Op) (*muxSlot, []byte, bool) {
	idx, ok := mc.free.tryPop()
	if !ok {
		return nil, nil, false
	}
	sl := &mc.slots[idx]
	b := append(sl.req[:0], 0, 0, 0, 0)
	b = appendU64(b, uint64(idx))
	b = append(b, byte(op))
	return sl, b, true
}

// release returns a slot whose response has been fully consumed to the
// free list.
func (mc *muxConn) release(sl *muxSlot) { mc.free.push(sl.idx) }

// send seals and writes the composed request frame, marking the slot in
// flight. This is the pipelining half: the caller regains control the
// moment the frame is on the wire and may send to other shards before
// awaiting any response. On error the slot is already released.
func (mc *muxConn) send(sl *muxSlot, req []byte) error {
	sl.req = req
	binary.LittleEndian.PutUint32(req[0:4], uint32(len(req)-4))
	sl.pending.Store(true)
	if mc.dead.Load() {
		// The connection died before this request was written. Either we
		// reclaim the slot ourselves or the failure path just did.
		if !sl.pending.CompareAndSwap(true, false) {
			<-sl.done
		}
		mc.release(sl)
		return mc.transportErr()
	}
	mc.wmu.Lock()
	mc.c.SetWriteDeadline(time.Now().Add(mc.timeout))
	_, werr := mc.c.Write(req)
	mc.wmu.Unlock()
	if werr != nil {
		mc.fail(werr)
		<-sl.done // fail (or the reader) delivered exactly one signal
		mc.release(sl)
		return mc.transportErr()
	}
	return nil
}

// await waits for a sent slot's response, serving as the connection's
// reader whenever the role is free (see muxConn). On success it returns
// the response payload with the status byte stripped — valid until the
// caller releases the slot. A statusErr answer comes back as
// *remoteError (connection healthy, slot already released); any
// transport failure or timeout kills the connection, releases the slot
// and returns the error. d bounds the wait (the connection timeout, or a
// caller deadline's smaller remaining budget); a request already on the
// wire cannot be abandoned without orphaning its window slot, so a
// deadline expiring mid-flight tears the connection down exactly like
// the static timeout — the peer held a response past a caller's budget.
// The lease holder's kernel reads stay bounded by the connection
// timeout, so a short per-call budget can overshoot by at most one
// read; the caller re-checks its deadline on return.
func (mc *muxConn) await(sl *muxSlot, ct *callTimer, d time.Duration) ([]byte, error) {
	tC := ct.after(d)
	for {
		select {
		case <-sl.done:
			// Completed by another holder or the failure path.
			ct.settle()
			return mc.finish(sl)
		case <-mc.lease:
			// Reader role: demultiplex frames — completing other
			// callers' slots along the way — until our own response or
			// a transport failure arrives. The kernel read deadline
			// bounds this — shrunk to the holder's own budget when that
			// is smaller, so a deadline-bounded lease holder is not
			// stuck in a read for the full connection timeout; the
			// outer timer only covers the waits.
			rd := mc.timeout
			if d < rd {
				rd = d
			}
			for {
				select {
				case <-sl.done: // completed just before we took the role
					mc.unlease()
					ct.settle()
					return mc.finish(sl)
				default:
				}
				mine, rerr := mc.readOne(sl, rd)
				if rerr != nil {
					mc.unlease()
					mc.fail(rerr)
					if !mine {
						<-sl.done // fail delivered our outcome
					}
					ct.settle()
					return mc.finish(sl)
				}
				if mine {
					mc.unlease()
					ct.settle()
					return mc.finish(sl)
				}
			}
		case <-tC:
			mc.fail(fmt.Errorf("%w after %v", errMuxTimeout, d))
			<-sl.done
			return mc.finish(sl)
		}
	}
}

// finish consumes a completed slot: error check, status strip, release.
// The returned body is valid until the caller releases the slot.
func (mc *muxConn) finish(sl *muxSlot) ([]byte, error) {
	if sl.err != nil {
		err := sl.err
		mc.release(sl)
		return nil, err
	}
	body := sl.resp
	if len(body) == 0 {
		mc.fail(errors.New("rpc: empty response frame"))
		mc.release(sl)
		return nil, mc.transportErr()
	}
	if body[0] == statusErr {
		err := &remoteError{msg: string(body[1:])}
		mc.release(sl)
		return nil, err
	}
	if body[0] == statusMoved {
		epoch, shard, err := decodeMoved(body[1:])
		mc.release(sl)
		if err != nil {
			mc.fail(fmt.Errorf("rpc: connection killed: %v", err)) // typed for this slot only
			return nil, err
		}
		return nil, &movedError{shard: shard, epoch: epoch}
	}
	return body[1:], nil
}

// roundTrip is send + await: the synchronous request cycle, bounded by d
// (see await).
func (mc *muxConn) roundTrip(sl *muxSlot, req []byte, ct *callTimer, d time.Duration) ([]byte, error) {
	if err := mc.send(sl, req); err != nil {
		return nil, err
	}
	return mc.await(sl, ct, d)
}

// callTimer is a reusable timer for the two bounded waits of one call
// (slot acquisition, response). Pooled so the steady-state request cycle
// allocates nothing; the stop/drain pattern is safe under both pre- and
// post-1.23 timer semantics.
type callTimer struct{ t *time.Timer }

var timerPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return &callTimer{t: t}
}}

func (ct *callTimer) after(d time.Duration) <-chan time.Time {
	ct.t.Reset(d)
	return ct.t.C
}

// settle stops the timer and drains a concurrently delivered tick so the
// next after() cannot observe a stale one.
func (ct *callTimer) settle() {
	if !ct.t.Stop() {
		select {
		case <-ct.t.C:
		default:
		}
	}
}

func getTimer() *callTimer { return timerPool.Get().(*callTimer) }
func putTimer(ct *callTimer) {
	ct.settle()
	timerPool.Put(ct)
}
