// Package rpc puts graph shards on the other side of a TCP connection:
// the distributed deployment of §VI, where each server owns one or more
// partitions of the web-scale graph and the serving tier talks to them
// over the network. A Server owns the engine.Shard stores for the
// partitions it serves; a RemoteShard is the client-side stub that plugs
// those stores into the Engine routing layer behind the same
// engine.ShardBackend seam the in-process shards use.
//
// The protocol (ProtocolVersion; both ends must speak exactly it) is a
// compact binary framing over TCP with full-duplex multiplexing. A
// connection opens with an 8-byte preface exchange — magic + version,
// and a mismatch fails the dial with one typed error naming both
// versions; after that a frame is a little-endian uint32 body length followed by the body, and
// every body starts with a uint64 request id: a request body is
// [u64 id | op byte | payload], a response body is
// [u64 id | status byte | payload] where status 0 carries the op's
// result, status 1 an error string, and status 2 the wrong-epoch
// redirect of a drained partition. Many requests may be in flight per
// connection at once — responses are matched by id and may arrive in
// any order, so N concurrent callers share a small bounded pool of
// pipelined connections instead of checking a connection out per call.
// The server dispatches each connection's requests across a bounded
// worker group, overlapping shard reads behind one socket.
//
// Shard ownership is live: the reassign op moves partitions in and out
// of a running server's served set (a planned handoff, driven by
// zoomer-shard's admin mode), the routing-epoch op polls the server's
// current ownership, and a Cluster-assembled engine follows a migration
// automatically — the first redirected call refreshes the binding and
// retries against the new owner, with zero failed calls surfaced and
// draws bit-identical to an undisturbed cluster (the handoff tests pin
// this down).
//
// Determinism across the wire is the load-bearing property: RNG state
// (single samples) or the derived-sub-stream base (batches) travels in
// the request and every draw happens shard-side, so a remote engine is
// bit-identical to an in-process one — the loopback equivalence tests pin
// this down. The scatter-gather calls — the sample batch and the bulk
// node read — map one shard visit onto one round trip, and both ends
// reuse per-slot encode/decode scratch so the steady-state paths perform
// no heap allocation.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Protocol preface: immediately after dialing, the client writes the
// 8-byte preface (magic + little-endian version) and the server answers
// with its own. Either side failing the exchange closes the connection
// with a loud error instead of exchanging misframed bytes.
const (
	// ProtocolVersion is the wire protocol version this build speaks; a
	// peer on any other version is refused at the preface. Version 6
	// retired the single-node neighbors/features/content ops: read-nodes
	// is the only attribute read.
	ProtocolVersion = 6
	prefaceLen      = 8
)

// ErrMalformedFrame is the typed decode failure: a frame whose declared
// counts do not fit the bytes it actually carries, or whose fields are
// out of range. Every decoder checks a count against the bytes left in
// the frame before allocating for it.
var ErrMalformedFrame = errors.New("rpc: malformed frame")

var prefaceMagic = [4]byte{'Z', 'M', 'R', 'P'}

// appendPreface composes the preface for the given version.
func appendPreface(b []byte, version uint32) []byte {
	b = append(b, prefaceMagic[:]...)
	return appendU32(b, version)
}

// parsePreface validates an 8-byte preface and returns the peer version.
func parsePreface(p []byte) (uint32, error) {
	if len(p) != prefaceLen || p[0] != prefaceMagic[0] || p[1] != prefaceMagic[1] ||
		p[2] != prefaceMagic[2] || p[3] != prefaceMagic[3] {
		return 0, fmt.Errorf("rpc: peer did not send the protocol preface (speaks protocol version 1?)")
	}
	return binary.LittleEndian.Uint32(p[4:8]), nil
}

// Op identifies a request type on the wire; exported so tests and
// monitoring can read per-op server counters.
type Op byte

// The request vocabulary: the three engine.ShardBackend calls — the
// single sample and the two scatter-gather visits (the batch call
// mirroring SampleNeighborsBatchInto and the bulk node read) — the two
// handshake reads (metadata and the routing table), the live-handoff
// pair — reassign (an admin command: acquire or drain one partition) and
// routing-epoch (the cheap ownership poll clients refresh from after a
// redirect) — membership (servers announce to each other with it; clients
// poll it to discover servers that joined after dial), and the durable
// append. Each op's row in the ops table (ops.go) declares its name,
// attempt budget and handler, and its codecs sit beside it.
const (
	opInfo Op = iota + 1
	opRouting
	OpSample
	OpBatch
	// OpNeighbors, OpFeatures and OpContent (bytes 5-7) are retired: a
	// single-node read is a 1-id read-nodes request. A server answers
	// these bytes with the unknown-op error frame and counts nothing for
	// them. The names remain only because benchmark/ compiles against
	// them — drop them in the next benchmark-only PR.
	OpNeighbors
	OpFeatures
	OpContent
	opReassign
	opEpoch
	opMembers
	// opAppend is the idempotent durable write: append a batch of edges
	// to one owned shard at an exact per-shard sequence number. A
	// non-owner answers with the wrong-epoch redirect like any other
	// shard-targeted op.
	opAppend
	// OpReadNodes is the bulk node read: neighbors and/or features and/or
	// content of a list of nodes of one partition in one frame.
	OpReadNodes
	numOps
)

// appendFlagFanout marks an opAppend request as a replica fan-out copy:
// the receiver applies it locally and never forwards it again, so a
// replica group cannot echo appends among itself.
const appendFlagFanout = 1

// opAppend response results.
const (
	// appendApplied: the record was WAL-logged and applied; lastSeq == seq.
	appendApplied = 0
	// appendDup: seq was already applied (an at-least-once retry landing
	// twice); nothing was written. lastSeq reports the shard's watermark.
	appendDup = 1
	// appendGap: seq is beyond lastSeq+1; nothing was written. The caller
	// must resync its sequence cache from lastSeq.
	appendGap = 2
)

// Reassign actions (the first payload byte of an opReassign request).
const (
	// reassignAcquire commands the server to load the partition's
	// CSR+alias store and start serving it.
	reassignAcquire = 0
	// reassignRelease commands the server to drain the partition:
	// requests already dispatched complete, subsequent ones are answered
	// with the wrong-epoch redirect.
	reassignRelease = 1
)

const (
	statusOK  = 0
	statusErr = 1
	// statusMoved is the wrong-epoch redirect: the target partition is
	// not (or no longer) owned by this server. The payload is the
	// server's current routing epoch (u64), the shard id (u32) and the
	// server's member address list, so a redirected client learns where
	// the partition might have gone without a separate round trip. The client surfaces the redirect as
	// engine.ErrWrongEpoch, which triggers the engine's one-shot
	// ownership refresh and retry.
	statusMoved = 2

	// maxFrame bounds a frame body; anything larger is a protocol error,
	// not a legitimate message (the largest real payloads are batch
	// responses of ~entries×k×4 bytes and degree-balanced routing tables
	// of 8 bytes per node).
	maxFrame = 1 << 28

	// readBufSize sizes the buffered reader both ends put in front of the
	// socket: large enough that a typical batch frame — and usually a few
	// pipelined ones — arrives in one kernel read. Frames larger than the
	// buffer still work (bufio reads them straight into the target).
	readBufSize = 32 << 10
)

// frameScratch is the per-worker framing state both ends reuse: the
// 4-byte length header and growable read/write buffers, so steady-state
// framing allocates nothing.
type frameScratch struct {
	hdr  [4]byte
	rbuf []byte
	wbuf []byte
}

// begin starts composing a frame body in the reusable write
// buffer, leaving the 4-byte length hole and the 8-byte request-id hole
// at the front. Append payload bytes to the returned slice, then hand it
// to writeFrame with the id the frame answers.
func (fs *frameScratch) begin(tag byte) []byte {
	return append(fs.wbuf[:0], 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, tag)
}

// writeFrame seals the length header and request id and writes the frame
// in one call. It stores buf back into the scratch so capacity growth is
// kept. Callers serialize writes to c themselves (the server's response
// write lock; the client's per-connection write lock).
func (fs *frameScratch) writeFrame(c net.Conn, buf []byte, id uint64) error {
	fs.wbuf = buf
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	binary.LittleEndian.PutUint64(buf[4:12], id)
	_, err := c.Write(buf)
	return err
}

// readFrame reads one length-prefixed frame body into the reusable read
// buffer and returns it (valid until the next readFrame on this scratch).
func (fs *frameScratch) readFrame(c io.Reader) ([]byte, error) {
	if _, err := io.ReadFull(c, fs.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(fs.hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	if cap(fs.rbuf) < int(n) {
		fs.rbuf = make([]byte, n)
	}
	fs.rbuf = fs.rbuf[:n]
	if _, err := io.ReadFull(c, fs.rbuf); err != nil {
		return nil, err
	}
	return fs.rbuf, nil
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
