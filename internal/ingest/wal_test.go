package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"zoomer/internal/graph"
)

// genRecord returns the deterministic record for seq — the same function
// the crash chaos child uses, so any recovered prefix can be verified
// against it byte for byte.
func genRecord(seq uint64) []Edge {
	n := int(seq%5) + 1
	edges := make([]Edge, n)
	for i := range edges {
		x := seq*1000003 + uint64(i)*97
		edges[i] = Edge{
			Src:    graph.NodeID(x % 10000),
			Dst:    graph.NodeID((x / 7) % 10000),
			Type:   graph.EdgeType(x % 3),
			Weight: float32(x%100) + 0.5,
		}
	}
	return edges
}

func mustOpen(t *testing.T, dir string, opts Options) (*WAL, []Record) {
	t.Helper()
	w, recs, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return w, recs
}

func appendN(t *testing.T, w *WAL, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := w.Append(seq, genRecord(seq)); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
	}
}

func verifyPrefix(t *testing.T, recs []Record) {
	t.Helper()
	for i, r := range recs {
		if r.Seq != uint64(i)+1 {
			t.Fatalf("record %d has seq %d; recovered prefix not contiguous", i, r.Seq)
		}
		want := genRecord(r.Seq)
		if len(r.Edges) != len(want) {
			t.Fatalf("seq %d: %d edges, want %d", r.Seq, len(r.Edges), len(want))
		}
		for j := range want {
			if r.Edges[j] != want[j] {
				t.Fatalf("seq %d edge %d: %+v, want %+v", r.Seq, j, r.Edges[j], want[j])
			}
		}
	}
}

func TestWALAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs := mustOpen(t, dir, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh WAL recovered %d records", len(recs))
	}
	appendN(t, w, 1, 57)
	if w.Stats().LastSeq != 57 {
		t.Fatalf("LastSeq = %d, want 57", w.Stats().LastSeq)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, recs := mustOpen(t, dir, Options{})
	defer w2.Close()
	if len(recs) != 57 {
		t.Fatalf("recovered %d records, want 57", len(recs))
	}
	verifyPrefix(t, recs)
	if w2.Stats().LastSeq != 57 {
		t.Fatalf("recovered LastSeq = %d, want 57", w2.Stats().LastSeq)
	}
	// The log keeps accepting contiguous appends after recovery.
	appendN(t, w2, 58, 60)
}

func TestWALSeqContiguityEnforced(t *testing.T) {
	w, _ := mustOpen(t, t.TempDir(), Options{})
	defer w.Close()
	appendN(t, w, 1, 3)
	if err := w.Append(3, genRecord(3)); !errors.Is(err, errSeqOrder) {
		t.Fatalf("duplicate seq: err = %v, want errSeqOrder", err)
	}
	if err := w.Append(5, genRecord(5)); !errors.Is(err, errSeqOrder) {
		t.Fatalf("gapped seq: err = %v, want errSeqOrder", err)
	}
	appendN(t, w, 4, 4) // the rejected appends must not advance state
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	appendN(t, w, 1, 100)
	st := w.Stats()
	if st.Segments < 4 {
		t.Fatalf("Segments = %d after 100 records at 256-byte rotation, want >= 4", st.Segments)
	}
	w.Close()

	names, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(names) != st.Segments {
		t.Fatalf("%d segment files on disk, stats say %d", len(names), st.Segments)
	}
	w2, recs := mustOpen(t, dir, Options{SegmentBytes: 256})
	defer w2.Close()
	if len(recs) != 100 {
		t.Fatalf("recovered %d records across segments, want 100", len(recs))
	}
	verifyPrefix(t, recs)
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{})
	appendN(t, w, 1, 20)
	w.Close()

	// Simulate a crash mid-write: chop the final frame in half.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	last := segs[len(segs)-1]
	fi, _ := os.Stat(last)
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	var logged strings.Builder
	w2, recs := mustOpen(t, dir, Options{Logf: func(f string, a ...any) { fmt.Fprintf(&logged, f+"\n", a...) }})
	if len(recs) != 19 {
		t.Fatalf("recovered %d records after torn tail, want 19", len(recs))
	}
	verifyPrefix(t, recs)
	if !strings.Contains(logged.String(), "torn tail") {
		t.Fatalf("torn tail not logged; log output:\n%s", logged.String())
	}
	// The torn bytes are gone from disk and the log continues cleanly.
	appendN(t, w2, 20, 25)
	w2.Close()
	w3, recs := mustOpen(t, dir, Options{})
	defer w3.Close()
	if len(recs) != 25 {
		t.Fatalf("recovered %d records after continue, want 25", len(recs))
	}
	verifyPrefix(t, recs)
}

func TestWALCorruptMidFileTruncatesAndLogs(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentBytes: 1 << 20})
	appendN(t, w, 1, 30)
	w.Close()

	// Flip one payload byte in the middle of the single segment: the
	// 10th record's checksum stops verifying.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	b, _ := os.ReadFile(segs[0])
	off := int64(0)
	for i := 0; i < 9; i++ {
		off += frameHeaderSize + int64(binary.LittleEndian.Uint32(b[off:]))
	}
	b[off+frameHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged strings.Builder
	w2, recs := mustOpen(t, dir, Options{Logf: func(f string, a ...any) { fmt.Fprintf(&logged, f+"\n", a...) }})
	defer w2.Close()
	if len(recs) != 9 {
		t.Fatalf("recovered %d records, want 9 (prefix before corruption)", len(recs))
	}
	verifyPrefix(t, recs)
	out := logged.String()
	if !strings.Contains(out, "corrupt record") || !strings.Contains(out, "dropping") {
		t.Fatalf("corruption drop not logged; log output:\n%s", out)
	}
	if w2.Stats().LastSeq != 9 {
		t.Fatalf("LastSeq = %d after truncation, want 9", w2.Stats().LastSeq)
	}
	appendN(t, w2, 10, 12)
}

func TestWALCorruptionDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{SegmentBytes: 256})
	appendN(t, w, 1, 60)
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("want >= 3 segments, got %d", st.Segments)
	}
	w.Close()

	// Corrupt the first byte of the SECOND segment: everything from its
	// first record on is unverifiable, including the later segments.
	segs, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	b, _ := os.ReadFile(segs[1])
	b[10] ^= 0xFF
	os.WriteFile(segs[1], b, 0o644)

	var logged strings.Builder
	w2, recs := mustOpen(t, dir, Options{SegmentBytes: 256, Logf: func(f string, a ...any) { fmt.Fprintf(&logged, f+"\n", a...) }})
	verifyPrefix(t, recs)
	if w2.Stats().LastSeq != recs[len(recs)-1].Seq {
		t.Fatalf("LastSeq mismatch")
	}
	if !strings.Contains(logged.String(), "unreachable segment") {
		t.Fatalf("later-segment drop not logged:\n%s", logged.String())
	}
	left, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if len(left) >= len(segs) {
		t.Fatalf("later segments not removed: %d files before, %d after", len(segs), len(left))
	}
	// Appends continue from the truncated prefix.
	appendN(t, w2, w2.Stats().LastSeq+1, w2.Stats().LastSeq+5)
	w2.Close()
}

func TestWALDiskFullFailsTypedWithoutWedging(t *testing.T) {
	dir := t.TempDir()
	w, _ := mustOpen(t, dir, Options{Fsync: true})
	appendN(t, w, 1, 10)

	w.injectWriteErr = func() error { return errors.New("write: no space left on device") }
	err := w.Append(11, genRecord(11))
	if !errors.Is(err, ErrWALFailed) {
		t.Fatalf("append on full disk: err = %v, want ErrWALFailed", err)
	}
	// Subsequent appends fail fast and typed — the log is latched, not
	// wedged: readers still answer.
	w.injectWriteErr = nil
	if err := w.Append(11, genRecord(11)); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("append after failure: err = %v, want ErrWALFailed", err)
	}
	if got := w.Stats().LastSeq; got != 10 {
		t.Fatalf("LastSeq after failed append = %d, want 10", got)
	}
	st := w.Stats()
	if !st.Failed || st.Records != 10 {
		t.Fatalf("Stats after failure = %+v, want Failed with 10 records", st)
	}
	w.Close()

	// The durable prefix survives a reopen, and the reopened WAL writes.
	w2, recs := mustOpen(t, dir, Options{})
	defer w2.Close()
	if len(recs) != 10 {
		t.Fatalf("recovered %d records, want the 10 durable ones", len(recs))
	}
	verifyPrefix(t, recs)
	appendN(t, w2, 11, 12)
}

func TestWALFsyncStats(t *testing.T) {
	w, _ := mustOpen(t, t.TempDir(), Options{Fsync: true})
	defer w.Close()
	appendN(t, w, 1, 8)
	st := w.Stats()
	if st.Fsyncs == 0 || st.Fsyncs > 8 {
		t.Fatalf("Fsyncs = %d, want 1..8", st.Fsyncs)
	}
	var hist uint64
	for _, c := range st.FsyncHist {
		hist += c
	}
	if hist != st.Fsyncs {
		t.Fatalf("histogram total %d != fsync count %d", hist, st.Fsyncs)
	}
	if len(st.FsyncHist) != len(FsyncBounds)+1 {
		t.Fatalf("histogram has %d buckets, want %d", len(st.FsyncHist), len(FsyncBounds)+1)
	}
}

func TestWALConcurrentAppendGroupCommit(t *testing.T) {
	// Sequence numbers are handed out under a sequencer mutex (the shape
	// rpc.Server's per-shard ingest lock produces) but the fsync waits
	// run concurrently, so many writers coalesce into few syncs.
	w, _ := mustOpen(t, t.TempDir(), Options{Fsync: true, SegmentBytes: 4096})
	const total = 200
	var (
		seqMu sync.Mutex
		next  = uint64(1)
		wg    sync.WaitGroup
	)
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				seqMu.Lock()
				if next > total {
					seqMu.Unlock()
					return
				}
				seq := next
				next++
				end, err := w.Write(seq, genRecord(seq))
				seqMu.Unlock()
				if err == nil {
					err = w.Sync(end)
				}
				if err != nil {
					errCh <- fmt.Errorf("append %d: %w", seq, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if w.Stats().LastSeq != total {
		t.Fatalf("LastSeq = %d, want %d", w.Stats().LastSeq, total)
	}
	st := w.Stats()
	if st.Fsyncs == 0 || st.Fsyncs > total {
		t.Fatalf("Fsyncs = %d, want 1..%d (group commit)", st.Fsyncs, total)
	}
	w.Close()
	w2, recs := mustOpen(t, w.dir, Options{})
	defer w2.Close()
	if len(recs) != total {
		t.Fatalf("recovered %d, want %d", len(recs), total)
	}
	verifyPrefix(t, recs)
}
