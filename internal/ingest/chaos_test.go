package ingest

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

const chaosDirEnv = "ZOOMER_WAL_CHAOS_DIR"

// TestWALChaosChild is not a test of its own: it is the victim process
// for TestWALCrashRecoveryEquivalence, re-executed from the test binary
// with ZOOMER_WAL_CHAOS_DIR set. It appends the deterministic record
// stream as fast as it can until the parent delivers SIGKILL mid-append.
func TestWALChaosChild(t *testing.T) {
	dir := os.Getenv(chaosDirEnv)
	if dir == "" {
		t.Skip("victim mode only (set by TestWALCrashRecoveryEquivalence)")
	}
	w, recovered, err := Open(dir, Options{Fsync: true, SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatalf("victim open: %v", err)
	}
	seq := uint64(len(recovered))
	for {
		seq++
		if err := w.Append(seq, genRecord(seq)); err != nil {
			t.Fatalf("victim append %d: %v", seq, err)
		}
	}
}

// TestWALCrashRecoveryEquivalence is the kill -9 half of the crash
// suite: a child process appends the deterministic stream with fsync on,
// the parent SIGKILLs it mid-append, then recovery must yield a clean
// contiguous prefix of that stream — every surviving record byte-
// identical to an uninterrupted writer's, nothing after the first
// unverifiable byte. Run twice back to back the second child also
// proves recovery repositions the log for further durable appends.
func TestWALCrashRecoveryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	dir := t.TempDir()

	prevSeq := uint64(0)
	for round := 0; round < 2; round++ {
		kill9Victim(t, dir)

		var logged strings.Builder
		w, recs, err := Open(dir, Options{Logf: func(f string, a ...any) { fmt.Fprintf(&logged, f+"\n", a...) }})
		if err != nil {
			t.Fatalf("round %d: recovery failed: %v", round, err)
		}
		verifyPrefix(t, recs)
		last := w.Stats().LastSeq
		if last <= prevSeq {
			t.Fatalf("round %d: victim made no durable progress (seq %d -> %d)", round, prevSeq, last)
		}
		t.Logf("round %d: recovered %d records (%d segments)%s", round, len(recs), w.Stats().Segments,
			map[bool]string{true: ", torn tail truncated", false: ""}[strings.Contains(logged.String(), "torn tail")])
		prevSeq = last
		if err := w.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
	}
}

// kill9Victim re-execs the test binary as a WAL appender and SIGKILLs it
// once it has made observable durable progress.
func kill9Victim(t *testing.T, dir string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestWALChaosChild$", "-test.v")
	cmd.Env = append(os.Environ(), chaosDirEnv+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatalf("start victim: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	// Kill only after the WAL visibly grew, so every round is a genuine
	// mid-stream crash rather than a startup kill.
	grewBy := func() int64 {
		var size int64
		names, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
		for _, n := range names {
			if fi, err := os.Stat(n); err == nil {
				size += fi.Size()
			}
		}
		return size
	}
	start := grewBy()
	deadline := time.Now().Add(20 * time.Second)
	for grewBy() < start+4096 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if grewBy() < start+4096 {
		cmd.Process.Kill()
		<-done
		t.Fatal("victim made no progress within deadline")
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL victim: %v", err)
	}
	err = <-done
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 0 {
		t.Fatalf("victim exited cleanly (%v); expected SIGKILL death", err)
	}
}
