package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"zoomer/internal/baselines"
	"zoomer/internal/core"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
)

var update = flag.Bool("update", false, "rewrite "+modelsGolden+" from the current code")

const modelsGolden = "testdata/models.golden"

// goldenModels builds every model the harness trains — Zoomer's five
// ablation variants and the nine baselines — at two hops over g.
func goldenModels(g core.GraphView, v loggen.Vocab) []core.Model {
	cfg := core.DefaultConfig()
	cfg.EmbedDim, cfg.OutDim, cfg.Hops, cfg.FanOut = 16, 16, 2, 4
	var out []core.Model
	for _, name := range []string{"zoomer", "gcn", "zoomer-fe", "zoomer-fs", "zoomer-es"} {
		for _, a := range core.Ablations {
			if a.Name == name {
				out = append(out, core.NewZoomer(g, v, a.Apply(cfg), 11))
			}
		}
	}
	for i, name := range []string{"graphsage", "pinsage", "pinnersage", "pixie", "han", "gce-gnn", "fgnn", "stamp", "mccf"} {
		out = append(out, baselines.New(name, g, v, cfg, 12+uint64(i)))
	}
	return out
}

// TestModelsGolden pins every model's draws, losses and embeddings, bit
// for bit, to testdata/models.golden: a 6-step loss trace over a 4-shard
// engine view of the tiny world, the exported user-query and item
// embeddings, and the state of the RNG that drew them. Any change to a
// sampler's RNG use, a read, a parameter's init or an op's order moves a
// line. Rewrite the file with -update only in a change that means to.
func TestModelsGolden(t *testing.T) {
	w := buildWorld(loggen.TaobaoConfig(loggen.ScaleTiny, 3), 1, 3)
	var b bytes.Buffer
	for _, m := range goldenModels(w.view, w.logs.Vocab()) {
		tc := core.DefaultTrainConfig()
		tc.Seed, tc.Epochs, tc.MaxSteps, tc.BatchSize = 21, 1, 6, 16
		fmt.Fprintf(&b, "%s loss", m.Name())
		tc.OnStep = func(_ int, loss float64) { fmt.Fprintf(&b, " %016x", math.Float64bits(loss)) }
		core.Train(m, w.train, nil, tc)
		r := rng.New(22)
		ex := w.test[0]
		fmt.Fprintf(&b, "\n%s uq", m.Name())
		for _, x := range m.UserQueryEmbedding(ex.User, ex.Query, r) {
			fmt.Fprintf(&b, " %08x", math.Float32bits(x))
		}
		fmt.Fprintf(&b, "\n%s item", m.Name())
		for _, x := range m.ItemEmbedding(ex.Item, r) {
			fmt.Fprintf(&b, " %08x", math.Float32bits(x))
		}
		fmt.Fprintf(&b, "\n%s rng %x\n", m.Name(), r.State())
	}
	if *update {
		if err := os.WriteFile(modelsGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(modelsGolden)
	if err != nil {
		t.Fatalf("%v (rewrite it with -update)", err)
	}
	if !bytes.Equal(want, b.Bytes()) {
		wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(b.Bytes(), []byte("\n"))
		for i := range min(len(wl), len(gl)) {
			if !bytes.Equal(wl[i], gl[i]) {
				t.Fatalf("%s line %d:\nwant %s\n got %s", modelsGolden, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("%s has %d lines, the run printed %d", modelsGolden, len(wl), len(gl))
	}
}
