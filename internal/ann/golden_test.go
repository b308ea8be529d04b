package ann

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// indexGolden is the index Build makes of goldenInput and what SearchInto
// and SearchExact return over it. A diff there means the index or a
// search result changed bits.
const indexGolden = "testdata/index.golden"

var update = flag.Bool("update", false, "rewrite "+indexGolden+" from the current code")

var goldenConfig = Config{NumLists: 64, Iters: 4, Seed: 42}

// goldenInput is 4 096 clustered vectors plus exact ties: 32 copies of
// earlier vectors scaled by 2 (normalization maps both to the same bits)
// and 4 zero vectors.
func goldenInput() ([]int64, []tensor.Vec) {
	r := rng.New(41)
	ids, vecs, _ := clusteredData(r, 4096, 32, 48)
	for i := 0; i < 32; i++ {
		v := tensor.Copy(vecs[r.Intn(4096)])
		tensor.Scale(2, v)
		vecs = append(vecs, v)
	}
	for i := 0; i < 4; i++ {
		vecs = append(vecs, make(tensor.Vec, 32))
	}
	for i := len(ids); i < len(vecs); i++ {
		ids = append(ids, int64(i))
	}
	return ids, vecs
}

// renderIndex prints ix one line per list — centroid bits and the
// list's ids in order — then SearchInto (nprobe 4, topK 100) for 128
// queries and SearchExact for 8, one line per query with each result's
// id and score bits. A quarter of the queries are
// indexed vectors, so their duplicates tie; the rest are perturbed.
func renderIndex(ix *Index, vecs []tensor.Vec) string {
	var b strings.Builder
	for c := range ix.centroids.Rows {
		fmt.Fprintf(&b, "list %d centroid", c)
		for _, v := range ix.centroids.Row(c) {
			fmt.Fprintf(&b, " %08x", math.Float32bits(v))
		}
		b.WriteString(" ids")
		for _, id := range ix.listIDs[c] {
			fmt.Fprintf(&b, " %d", id)
		}
		b.WriteByte('\n')
	}
	r := rng.New(43)
	queries := make([]tensor.Vec, 128)
	for i := range queries {
		q := tensor.Copy(vecs[r.Intn(len(vecs))])
		if i%4 != 0 {
			for j := range q {
				q[j] += 0.1 * float32(r.NormFloat64())
			}
		}
		queries[i] = q
	}
	results := func(kind string, i int, res []Result) {
		fmt.Fprintf(&b, "%s %d", kind, i)
		for _, x := range res {
			fmt.Fprintf(&b, " %d:%08x", x.ID, math.Float32bits(x.Score))
		}
		b.WriteByte('\n')
	}
	sc := ix.NewSearchScratch()
	for i, q := range queries {
		results("search", i, ix.SearchInto(q, 100, 4, sc))
	}
	for i, q := range queries[:8] {
		results("exact", i, ix.SearchExact(q, 100))
	}
	return b.String()
}

// checkGolden fails t at the first line where got differs from the
// golden file.
func checkGolden(t *testing.T, got string) {
	t.Helper()
	want, err := os.ReadFile(indexGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("index differs from %s at line %d:\n got  %.200s\n want %.200s", indexGolden, i+1, gl[i], wl[min(i, len(wl)-1)])
		}
	}
	t.Fatalf("index is a prefix of %s", indexGolden)
}

// The built index and every search over it are pinned bit for bit.
// Regenerate with `go test ./internal/ann -run TestIndexGolden -update`
// only in a change that means to move them.
func TestIndexGolden(t *testing.T) {
	ids, vecs := goldenInput()
	got := renderIndex(Build(ids, vecs, goldenConfig), vecs)
	if *update {
		if err := os.WriteFile(indexGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkGolden(t, got)
}

// Build's result does not depend on how many cores it runs on.
func TestBuildSameAcrossGOMAXPROCS(t *testing.T) {
	ids, vecs := goldenInput()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprint(procs), func(t *testing.T) {
			checkGolden(t, renderIndex(Build(ids, vecs, goldenConfig), vecs))
		})
	}
}

// A zero vector scores cosine 0 against every centroid, and the
// assignment keeps the first of equal scores, so every zero vector
// lands in list 0.
func TestZeroVectorsLandInListZero(t *testing.T) {
	r := rng.New(44)
	ids, vecs, _ := clusteredData(r, 2000, 16, 16)
	zero := map[int64]bool{}
	for i := 0; i < 20; i++ {
		j := r.Intn(len(vecs))
		vecs[j] = make(tensor.Vec, 16)
		zero[ids[j]] = true
	}
	ix := Build(ids, vecs, Config{NumLists: 16, Iters: 5, Seed: 45})
	found := 0
	for c, list := range ix.listIDs {
		for _, id := range list {
			if zero[id] {
				found++
				if c != 0 {
					t.Errorf("zero vector %d is in list %d, want 0", id, c)
				}
			}
		}
	}
	if found != len(zero) {
		t.Fatalf("found %d of %d zero vectors", found, len(zero))
	}
}
