// Package ingest is the durable write path for online graph growth: a
// checksummed, fsync-batched write-ahead log of edge-append records.
//
// Each shard server owns one WAL directory per owned shard
// (<dir>/shard-<id>). A WAL is a chain of segment files named by the
// sequence number of their first record (00000000000000000001.wal, ...);
// records carry strictly increasing sequence numbers with no gaps, so a
// WAL prefix fully determines the delta state layered over the immutable
// CSR base — replaying the same prefix yields bit-identical draws.
//
// On-disk frame format (all little-endian):
//
//	u32 payload length | u32 CRC32 (IEEE, over payload) | payload
//
// record payload:
//
//	u64 seq | u32 edge count | count x (u32 src | u32 dst | u8 type | f32 weight)
//
// Recovery walks segments in order, validating length, checksum and
// sequence continuity. A torn tail (partial frame at the end of the last
// segment, the normal crash shape) is truncated silently modulo a log
// line; a corrupt record mid-file truncates recovery at the last valid
// frame, logs how much was dropped, and removes any later segments —
// durability never extends past the first unverifiable byte.
//
// Writes are group-committed: concurrent Append calls coalesce into one
// fsync (the first writer into the window syncs for everyone behind it).
// A failed write (disk full, I/O error) latches the WAL: the failing and
// all subsequent appends return a typed error wrapping ErrWALFailed, but
// reads — Stats, recovery from the directory — keep working.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zoomer/internal/graph"
	"zoomer/internal/wire"
)

// Edge is one appended adjacency fact: a directed src->dst edge with the
// same type/weight vocabulary as the build-time graph. Undirected
// relations are appended as two records or two edges.
type Edge struct {
	Src    graph.NodeID
	Dst    graph.NodeID
	Type   graph.EdgeType
	Weight float32
}

// Record is one WAL entry: a batch of edges applied atomically under one
// sequence number.
type Record struct {
	Seq   uint64
	Edges []Edge
}

// Typed failures, matched with errors.Is.
var (
	// ErrWALFailed marks a WAL whose backing file hit a write or sync
	// error (disk full, I/O error). The WAL stays readable but refuses
	// further appends until reopened.
	ErrWALFailed = errors.New("ingest: WAL write failed; log is read-only until reopened")
	// errSeqOrder rejects an append whose sequence number is not exactly
	// lastSeq+1 — the caller (rpc.Server) owns dup/gap semantics and must
	// resolve them before writing.
	errSeqOrder = errors.New("ingest: append sequence not contiguous")
	// ErrCorrupt marks unverifiable bytes found during recovery.
	ErrCorrupt = errors.New("ingest: corrupt WAL record")
	// errClosed rejects operations on a closed WAL.
	errClosed = errors.New("ingest: WAL closed")
)

const (
	frameHeaderSize = 8       // u32 len + u32 crc
	edgeWireSize    = 13      // u32 src + u32 dst + u8 type + f32 weight
	maxRecordBytes  = 1 << 24 // sanity bound on one payload; larger lengths are corruption
	// maxRecordEdges bounds one record's batch size (derived from the
	// payload bound; also the wire-protocol append limit).
	maxRecordEdges = (maxRecordBytes - 12) / edgeWireSize
)

// FsyncBounds are the upper bounds (seconds) of the fsync latency
// histogram buckets in Stats.FsyncHist; the final bucket is +Inf.
var FsyncBounds = [...]float64{
	0.000050, 0.000100, 0.000250, 0.000500,
	0.001, 0.0025, 0.005, 0.010, 0.025, 0.050, 0.100, 0.250,
}

// Options configures Open.
type Options struct {
	// Fsync syncs every append (group-committed) before reporting
	// success. Off, durability is bounded by the OS page cache — a
	// process crash loses nothing, a machine crash loses the tail.
	Fsync bool
	// SegmentBytes rotates to a new segment file once the current one
	// reaches this size. Defaults to 4 MiB.
	SegmentBytes int64
	// Logf receives recovery and corruption diagnostics. Defaults to
	// log.Printf.
	Logf func(format string, args ...any)
}

// WAL is a single shard's write-ahead log. Appends are safe for
// concurrent use; Stats never blocks behind an fsync.
type WAL struct {
	dir  string
	opts Options

	mu       sync.Mutex
	syncCond *sync.Cond
	f        *os.File
	segBytes int64
	segments int
	closed   bool
	failed   error // sticky first write/sync error

	// group-commit watermarks: logical byte offsets within the WAL
	// lifetime (monotonic across rotations).
	written int64
	synced  int64
	syncing bool

	lastSeq atomic.Uint64
	records atomic.Uint64

	fsyncs     atomic.Uint64
	fsyncNanos atomic.Uint64
	fsyncHist  [len(FsyncBounds) + 1]atomic.Uint64

	// test hook: simulated write failure (e.g. disk full) injected by
	// wal tests; nil in production.
	injectWriteErr func() error
}

// Stats is a point-in-time snapshot of a WAL's write-path counters.
type Stats struct {
	LastSeq    uint64
	Records    uint64
	Segments   int
	Fsyncs     uint64
	FsyncNanos uint64
	// FsyncHist holds non-cumulative bucket counts aligned with
	// FsyncBounds plus a trailing +Inf bucket.
	FsyncHist []uint64
	Failed    bool
}

// Open opens (creating if needed) the WAL in dir, replays every intact
// record and returns them for the caller to re-apply. The returned WAL
// is positioned to append the next contiguous sequence number.
func Open(dir string, opts Options) (*WAL, []Record, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("ingest: open WAL dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}

	w := &WAL{dir: dir, opts: opts}
	w.syncCond = sync.NewCond(&w.mu)

	var recovered []Record
	for i, name := range segs {
		path := filepath.Join(dir, name)
		recs, validOff, size, rerr := readSegment(path, w.lastSeqLocal(recovered))
		recovered = append(recovered, recs...)
		if rerr == nil {
			continue
		}
		// Unverifiable bytes: truncate this segment at the last valid
		// frame and drop every later segment — recovery must be a clean
		// contiguous prefix of the append history.
		dropped := size - validOff
		kind := "torn tail"
		if !errors.Is(rerr, io.ErrUnexpectedEOF) || i != len(segs)-1 {
			kind = "corrupt record"
		}
		opts.Logf("ingest: %s: %s in %s at offset %d: %v; dropping %d byte(s) after seq %d",
			dir, kind, name, validOff, rerr, dropped, w.lastSeqLocal(recovered))
		if err := os.Truncate(path, validOff); err != nil {
			return nil, nil, fmt.Errorf("ingest: truncate %s: %w", name, err)
		}
		for _, later := range segs[i+1:] {
			opts.Logf("ingest: %s: dropping unreachable segment %s (follows truncated %s)", dir, later, name)
			if err := os.Remove(filepath.Join(dir, later)); err != nil {
				return nil, nil, fmt.Errorf("ingest: remove %s: %w", later, err)
			}
		}
		segs = segs[:i+1]
		break
	}

	last := w.lastSeqLocal(recovered)
	w.lastSeq.Store(last)
	w.records.Store(uint64(len(recovered)))

	// Position the current segment: reuse the newest survivor, or start
	// a fresh one at the next sequence number.
	if len(segs) == 0 {
		if err := w.openSegment(last + 1); err != nil {
			return nil, nil, err
		}
	} else {
		name := segs[len(segs)-1]
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("ingest: reopen segment %s: %w", name, err)
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("ingest: seek segment %s: %w", name, err)
		}
		w.f = f
		w.segBytes = size
		w.segments = len(segs)
	}
	return w, recovered, nil
}

func (w *WAL) lastSeqLocal(recs []Record) uint64 {
	if len(recs) == 0 {
		return 0
	}
	return recs[len(recs)-1].Seq
}

func listSegments(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return nil, fmt.Errorf("ingest: list segments: %w", err)
	}
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, filepath.Base(n))
	}
	// Zero-padded fixed-width names: lexical order is numeric order.
	sort.Strings(out)
	return out, nil
}

// readSegment decodes frames until EOF or the first unverifiable byte.
// It returns the intact records, the offset just past the last valid
// frame, the file size, and nil only when the whole file verified.
func readSegment(path string, lastSeq uint64) (recs []Record, validOff, size int64, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("ingest: read segment: %w", err)
	}
	size = int64(len(b))
	cu := wire.Cursor{B: b}
	for len(cu.Rest()) > 0 {
		off := size - int64(len(cu.Rest()))
		plen, crc := cu.U32(), cu.U32()
		if cu.Bad {
			return recs, off, size, fmt.Errorf("%w: partial frame header", io.ErrUnexpectedEOF)
		}
		if plen > maxRecordBytes {
			return recs, off, size, fmt.Errorf("%w: frame length %d exceeds limit", ErrCorrupt, plen)
		}
		payload := cu.Bytes(int(plen))
		if cu.Bad {
			return recs, off, size, fmt.Errorf("%w: partial frame payload", io.ErrUnexpectedEOF)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, off, size, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
		}
		rec, derr := DecodeRecord(payload, nil)
		if derr != nil {
			return recs, off, size, derr
		}
		if rec.Seq != lastSeq+1 {
			return recs, off, size, fmt.Errorf("%w: sequence %d after %d", ErrCorrupt, rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
	}
	return recs, size, size, nil
}

// DecodeRecord is the one decoder of the record payload AppendPayload
// writes — WAL replay and the RPC graph-append handler both call it, so
// the on-disk and on-wire encodings cannot drift. The edges land in buf
// when it is large enough (a server worker's reused scratch), else in a
// fresh slice (replay, which keeps them). Every failure is ErrCorrupt.
func DecodeRecord(p []byte, buf []Edge) (Record, error) {
	cu := wire.Cursor{B: p}
	seq := cu.U64()
	n := cu.Count(edgeWireSize)
	if cu.Bad || n > maxRecordEdges || len(cu.Rest()) != n*edgeWireSize {
		return Record{}, fmt.Errorf("%w: edge count %d does not match payload of %d bytes", ErrCorrupt, n, len(p))
	}
	if cap(buf) < n {
		buf = make([]Edge, n)
	}
	edges := buf[:n]
	for i := range edges {
		edges[i] = Edge{
			Src:    graph.NodeID(cu.U32()),
			Dst:    graph.NodeID(cu.U32()),
			Type:   graph.EdgeType(cu.U8()),
			Weight: cu.F32(),
		}
	}
	return Record{Seq: seq, Edges: edges}, nil
}

// AppendPayload encodes a record into wire/frame payload form. Shared
// with the RPC layer so the on-disk and on-wire edge encodings agree.
func AppendPayload(b []byte, seq uint64, edges []Edge) []byte {
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(edges)))
	for _, e := range edges {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Src))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Dst))
		b = append(b, byte(e.Type))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(e.Weight))
	}
	return b
}

func (w *WAL) openSegment(startSeq uint64) error {
	name := fmt.Sprintf("%020d.wal", startSeq)
	f, err := os.OpenFile(filepath.Join(w.dir, name), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: create segment %s: %w", name, err)
	}
	w.f = f
	w.segBytes = 0
	w.segments++
	return nil
}

// Append durably writes one record with the next contiguous sequence
// number (seq must equal Stats().LastSeq+1). With Options.Fsync, it returns
// only after the record — batched with any concurrent appends — is
// synced to disk. Equivalent to Write followed by Sync; callers holding
// a lock across Write (rpc.Server's per-shard ingest mutex) should call
// Sync after releasing it so fsync waits don't serialize the write path.
func (w *WAL) Append(seq uint64, edges []Edge) error {
	end, err := w.Write(seq, edges)
	if err != nil {
		return err
	}
	return w.Sync(end)
}

// Write frames and buffers one record, returning the commit offset to
// pass to Sync. It is quick (no fsync) and serialized internally; the
// sequence number must be exactly Stats().LastSeq+1.
func (w *WAL) Write(seq uint64, edges []Edge) (int64, error) {
	if len(edges) == 0 {
		return 0, errors.New("ingest: empty append record")
	}
	if len(edges) > maxRecordEdges {
		return 0, fmt.Errorf("ingest: record of %d edges exceeds limit %d", len(edges), maxRecordEdges)
	}

	payload := AppendPayload(make([]byte, 0, 12+len(edges)*edgeWireSize), seq, edges)
	frame := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	frame = append(frame, payload...)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errClosed
	}
	if w.failed != nil {
		return 0, fmt.Errorf("%w (first failure: %v)", ErrWALFailed, w.failed)
	}
	if last := w.lastSeq.Load(); seq != last+1 {
		return 0, fmt.Errorf("%w: got %d, want %d", errSeqOrder, seq, last+1)
	}
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.rotateLocked(seq); err != nil {
			w.failLocked(err)
			return 0, fmt.Errorf("%w (first failure: %v)", ErrWALFailed, err)
		}
	}
	if err := w.writeLocked(frame); err != nil {
		w.failLocked(err)
		return 0, fmt.Errorf("%w (first failure: %v)", ErrWALFailed, err)
	}
	w.segBytes += int64(len(frame))
	w.written += int64(len(frame))
	w.lastSeq.Store(seq)
	w.records.Add(1)
	return w.written, nil
}

// Sync group-commits: it returns once every byte up to end (a Write
// return value) is fsynced. One fsync covers every record written
// before it started — the first waiter into an unsynced window syncs
// for everyone parked behind it. A no-op without Options.Fsync.
func (w *WAL) Sync(end int64) error {
	if !w.opts.Fsync {
		return nil
	}
	w.mu.Lock()
	for w.synced < end {
		if w.failed != nil {
			err := w.failed
			w.mu.Unlock()
			return fmt.Errorf("%w (first failure: %v)", ErrWALFailed, err)
		}
		if w.closed {
			w.mu.Unlock()
			return errClosed
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		w.syncing = true
		target := w.written
		f := w.f
		w.mu.Unlock()

		start := time.Now()
		serr := f.Sync()
		w.observeFsync(time.Since(start))

		w.mu.Lock()
		w.syncing = false
		if serr != nil {
			w.failLocked(serr)
			w.mu.Unlock()
			return fmt.Errorf("%w (first failure: %v)", ErrWALFailed, serr)
		}
		if target > w.synced {
			w.synced = target
		}
		w.syncCond.Broadcast()
	}
	w.mu.Unlock()
	return nil
}

// rotateLocked syncs and closes the current segment, then opens a fresh
// one whose name records startSeq. The old written bytes count as synced
// (Close syncs) so group-commit waiters don't stall across a rotation.
func (w *WAL) rotateLocked(startSeq uint64) error {
	if w.f != nil {
		if w.opts.Fsync {
			if err := w.f.Sync(); err != nil {
				w.f.Close()
				return err
			}
			if w.written > w.synced {
				w.synced = w.written
				w.syncCond.Broadcast()
			}
		}
		if err := w.f.Close(); err != nil {
			return err
		}
		w.f = nil
	}
	return w.openSegment(startSeq)
}

func (w *WAL) writeLocked(frame []byte) error {
	if w.injectWriteErr != nil {
		if err := w.injectWriteErr(); err != nil {
			return err
		}
	}
	_, err := w.f.Write(frame)
	return err
}

// failLocked latches the first write-path error and frees any group-
// commit waiters so a dead disk never wedges callers.
func (w *WAL) failLocked(err error) {
	if w.failed == nil {
		w.failed = err
		w.opts.Logf("ingest: %s: WAL write failed, log is now read-only: %v", w.dir, err)
	}
	w.syncCond.Broadcast()
}

func (w *WAL) observeFsync(d time.Duration) {
	w.fsyncs.Add(1)
	w.fsyncNanos.Add(uint64(d.Nanoseconds()))
	sec := d.Seconds()
	i := 0
	for i < len(FsyncBounds) && sec > FsyncBounds[i] {
		i++
	}
	w.fsyncHist[i].Add(1)
}

// Stats snapshots the write-path counters. Segment count and failure
// state take the lock briefly; counters are lock-free.
func (w *WAL) Stats() Stats {
	st := Stats{
		LastSeq:    w.lastSeq.Load(),
		Records:    w.records.Load(),
		Fsyncs:     w.fsyncs.Load(),
		FsyncNanos: w.fsyncNanos.Load(),
		FsyncHist:  make([]uint64, len(w.fsyncHist)),
	}
	for i := range w.fsyncHist {
		st.FsyncHist[i] = w.fsyncHist[i].Load()
	}
	w.mu.Lock()
	st.Segments = w.segments
	st.Failed = w.failed != nil
	w.mu.Unlock()
	return st
}

// Close syncs (when configured) and closes the current segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.syncCond.Broadcast()
	if w.f == nil {
		return nil
	}
	var err error
	if w.opts.Fsync && w.failed == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
