package graphbuild

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"

	"zoomer/internal/graph"
	"zoomer/internal/loggen"
)

func buildTiny(t *testing.T) (*loggen.Logs, *Result) {
	t.Helper()
	l := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 42))
	return l, Build(l, DefaultConfig())
}

func TestNodeMapping(t *testing.T) {
	l, res := buildTiny(t)
	g, m := res.Graph, res.Mapping
	if g.NumNodes() != len(l.Users)+len(l.Queries)+len(l.Items) {
		t.Fatalf("node count %d", g.NumNodes())
	}
	if g.Type(m.UserNode(0)) != graph.User {
		t.Fatal("user node type wrong")
	}
	if g.Type(m.QueryNode(0)) != graph.Query {
		t.Fatal("query node type wrong")
	}
	if g.Type(m.ItemNode(0)) != graph.Item {
		t.Fatal("item node type wrong")
	}
	// Local index must match world index.
	if g.LocalIndex(m.ItemNode(5)) != 5 {
		t.Fatal("item local index mismatch")
	}
	if g.LocalIndex(m.QueryNode(3)) != 3 {
		t.Fatal("query local index mismatch")
	}
}

func TestInteractionEdgesExist(t *testing.T) {
	l, res := buildTiny(t)
	g, m := res.Graph, res.Mapping
	// Every session's first event must produce a u—q edge; spot check all.
	for _, s := range l.Sessions {
		un := m.UserNode(s.User)
		for _, ev := range s.Events {
			qn := m.QueryNode(ev.Query)
			found := false
			for _, e := range g.Neighbors(un) {
				if e.To == qn && e.Type == graph.Click {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("missing u-q click edge user=%d query=%d", s.User, ev.Query)
			}
			// And q—item click edges for every click.
			for _, c := range ev.Clicks {
				in := m.ItemNode(c.Item)
				ok := false
				for _, e := range g.Neighbors(qn) {
					if e.To == in && e.Type == graph.Click {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("missing q-i click edge query=%d item=%d", ev.Query, c.Item)
				}
			}
		}
	}
}

func TestSessionEdgesLinkAdjacentClicks(t *testing.T) {
	l, res := buildTiny(t)
	g, m := res.Graph, res.Mapping
	found := false
	for _, s := range l.Sessions {
		for _, ev := range s.Events {
			for ci := 1; ci < len(ev.Clicks); ci++ {
				a := m.ItemNode(ev.Clicks[ci-1].Item)
				b := m.ItemNode(ev.Clicks[ci].Item)
				if a == b {
					continue
				}
				ok := false
				for _, e := range g.Neighbors(a) {
					if e.To == b && e.Type == graph.Session {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("missing session edge between adjacent clicks")
				}
				found = true
			}
		}
	}
	if !found {
		t.Skip("no adjacent distinct clicks in tiny world")
	}
}

func TestRepeatedClicksAccumulateWeight(t *testing.T) {
	_, res := buildTiny(t)
	g := res.Graph
	// At least one click edge should have accumulated weight > 1 given
	// Zipfian popularity.
	for id := 0; id < g.NumNodes(); id++ {
		for _, e := range g.Neighbors(graph.NodeID(id)) {
			if e.Type == graph.Click && e.Weight > 1 {
				return
			}
		}
	}
	t.Fatal("no click edge accumulated weight; popularity head missing")
}

func TestSimilarityEdges(t *testing.T) {
	_, res := buildTiny(t)
	g := res.Graph
	if g.Stats().EdgesByType[graph.Similarity] == 0 {
		t.Fatal("no similarity edges built")
	}
	// Similarity weights must respect the threshold and the degree cap.
	cfg := DefaultConfig()
	simDeg := make(map[graph.NodeID]int)
	for id := 0; id < g.NumNodes(); id++ {
		for _, e := range g.Neighbors(graph.NodeID(id)) {
			if e.Type != graph.Similarity {
				continue
			}
			if float64(e.Weight) < cfg.SimThreshold {
				t.Fatalf("similarity weight %v below threshold", e.Weight)
			}
			simDeg[graph.NodeID(id)]++
		}
	}
	for id, d := range simDeg {
		if d > cfg.MaxSimEdgesPerNode {
			t.Fatalf("node %d has %d similarity edges, cap %d", id, d, cfg.MaxSimEdgesPerNode)
		}
	}
}

func TestUserUserEdgesToggle(t *testing.T) {
	l := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 7))
	with := Build(l, DefaultConfig())
	cfg := DefaultConfig()
	cfg.UserUserEdges = false
	without := Build(l, cfg)

	countUU := func(r *Result) int {
		n := 0
		g := r.Graph
		for id := 0; id < g.NumNodes(); id++ {
			if g.Type(graph.NodeID(id)) != graph.User {
				continue
			}
			for _, e := range g.Neighbors(graph.NodeID(id)) {
				if g.Type(e.To) == graph.User {
					n++
				}
			}
		}
		return n
	}
	if countUU(without) != 0 {
		t.Fatal("user-user edges present despite toggle off")
	}
	if countUU(with) == 0 {
		t.Log("note: tiny world produced no user-user candidates (acceptable)")
	}
}

func TestSymmetry(t *testing.T) {
	_, res := buildTiny(t)
	g := res.Graph
	// Every edge must have its reverse (the builder adds undirected pairs,
	// and merging preserves both directions).
	for id := 0; id < g.NumNodes(); id++ {
		for _, e := range g.Neighbors(graph.NodeID(id)) {
			back := false
			for _, r := range g.Neighbors(e.To) {
				if r.To == graph.NodeID(id) && r.Type == e.Type {
					back = true
					break
				}
			}
			if !back {
				t.Fatalf("edge %d->%d type %v has no reverse", id, e.To, e.Type)
			}
		}
	}
}

// Config.MinHashK's contract, Bands divides it, is checked up front:
// zero bands would divide by zero, more bands than rows would hash every
// node into one bucket per band, and a remainder would ignore rows.
func TestBuildPanicsUnlessBandsDivideMinHashK(t *testing.T) {
	l := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 42))
	for _, tc := range []struct {
		name  string
		bands int
	}{
		{"zero", 0},
		{"more than MinHashK", 64},
		{"leaves rows over", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Bands = tc.bands
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "Bands") {
					t.Fatalf("Bands %d, MinHashK %d: panic %q, want one naming Bands", cfg.Bands, cfg.MinHashK, msg)
				}
			}()
			Build(l, cfg)
		})
	}
}

func TestContentPreserved(t *testing.T) {
	l, res := buildTiny(t)
	g, m := res.Graph, res.Mapping
	for i := range l.Items {
		want := l.Items[i].Content
		got := g.Content(m.ItemNode(i))
		for j := range want {
			if want[j] != got[j] {
				t.Fatal("item content vector lost in build")
			}
		}
	}
}

func BenchmarkBuildSmall(b *testing.B) {
	l := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleSmall, 1))
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(l, cfg)
	}
}

// BenchmarkBuildLarge builds the world every benchmark workload brings
// up (ScaleLarge, 1.86 M edges).
func BenchmarkBuildLarge(b *testing.B) {
	l := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleLarge, 1))
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(l, cfg)
	}
}

// TestBuildDeterministic pins the world as a function of its logs: the
// similarity pass signs and buckets on every core, and the small world
// has enough tied MinHash similarities at the per-node degree cap that
// any order dependence changes which edges survive.
func TestBuildDeterministic(t *testing.T) {
	l := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleSmall, 1))
	hash := func() [sha256.Size]byte {
		h := sha256.New()
		if _, err := Build(l, DefaultConfig()).Graph.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		return [sha256.Size]byte(h.Sum(nil))
	}
	want := hash()
	for i := 1; i < 3; i++ {
		if got := hash(); got != want {
			t.Fatalf("build %d of the same logs wrote a different graph: %x vs %x", i, got, want)
		}
	}
}

// TestBuildSameAcrossGOMAXPROCS pins the small world's bytes to the
// checked-in record, whatever the core count the build runs on.
func TestBuildSameAcrossGOMAXPROCS(t *testing.T) {
	golden, err := os.ReadFile("testdata/world.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, line := range strings.Split(string(golden), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "small" && f[1] == "sha256" {
			want = f[2]
		}
	}
	if want == "" {
		t.Fatal("testdata/world.golden has no small sha256 line")
	}
	l := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleSmall, 1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		h := sha256.New()
		if _, err := Build(l, DefaultConfig()).Graph.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Fatalf("GOMAXPROCS=%d: small world sha256 %s, testdata/world.golden has %s", procs, got, want)
		}
	}
}
