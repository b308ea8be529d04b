package ingest

import "testing"

// BenchmarkWALAppend measures the framing + buffered-write append path
// (fsync off: the group-commit sync cost is device-bound and measured by
// the fsync histogram in production instead).
func BenchmarkWALAppend(b *testing.B) {
	w, _, err := Open(b.TempDir(), Options{segmentBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	edges := genRecord(3) // 4 edges
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(uint64(i)+1, edges); err != nil {
			b.Fatal(err)
		}
	}
}
