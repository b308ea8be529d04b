package core

import (
	"reflect"
	"slices"
	"testing"

	"zoomer/internal/ad"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
	"zoomer/internal/tensor"
)

// perNodeView serves a bulk read as the single-node reads it replaced,
// in request order: the read pattern every view had before ReadNodes.
type perNodeView struct{ *graph.Graph }

func (v perNodeView) ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) {
	into.Resize(len(ids), fields)
	for i, id := range ids {
		if fields&graph.ReadNeighbors != 0 {
			into.Neighbors[i] = v.Neighbors(id)
		}
		if fields&graph.ReadFeatures != 0 {
			into.Features[i] = v.Features(id)
		}
		if fields&graph.ReadContent != 0 {
			into.Content[i] = v.Content(id)
		}
	}
}

// legacyZoomer is the reference the read-set path is pinned against: the
// forward pass as it ran before — every graph read a single-node call
// straight on the bound view, no read set. Train drives it through its
// own two halves, so the reference leg never runs the chassis's.
type legacyZoomer struct{ *Zoomer }

// sampleBatch builds the batch's trees as one forest over the bound
// view: the same draws as the chassis's, read node by node.
func (l legacyZoomer) sampleBatch(b *regions, batch []Instance, r *rng.RNG) {
	z := l.Zoomer
	b.sc.Reset()
	b.ids, b.focals = b.ids[:0], b.focals[:0]
	for _, ex := range batch {
		fc := samplingFocal(z.g, ex.User, ex.Query)
		b.ids = append(b.ids, ex.User, ex.Query)
		b.focals = append(b.focals, fc, fc)
	}
	b.trees = sampling.BuildForest(z.g, b.ids, b.focals, z.cfg.Hops, z.cfg.FanOut, z.spec.Region.Sampler, r, b.sc)
}

func (l legacyZoomer) uq(t *ad.Tape, user, query *sampling.Tree) *ad.Node {
	z := l.Zoomer
	C := z.focalVector(t, z.g, user.Node, query.Node)
	hu := z.embedTree(t, z.g, user, C, z.attnUser.Node(t))
	hq := z.embedTree(t, z.g, query, C, z.attnQuery.Node(t))
	return z.towerUQ.Forward(t, t.ConcatCols(hu, hq))
}

// batchLogits embeds request by request, reading the view node by node.
func (l legacyZoomer) batchLogits(t *ad.Tape, b *regions, batch []Instance) *ad.Node {
	rows := make([]*ad.Node, len(batch))
	for i, ex := range batch {
		uq := l.uq(t, b.trees[2*i], b.trees[2*i+1])
		it := l.itemBase(t, l.g, ex.Item)
		rows[i] = t.Scale(l.cfg.LogitScale, t.CosineSim(uq, it))
	}
	return t.ConcatRows(rows...)
}

func (l legacyZoomer) UserQueryEmbedding(u, q graph.NodeID, r *rng.RNG) tensor.Vec {
	b := &regions{sc: sampling.NewScratch()}
	l.sampleBatch(b, []Instance{{User: u, Query: q}}, r)
	return tensor.Copy(l.uq(ad.NewTape(), b.trees[0], b.trees[1]).Val.Row(0))
}

// stepTrace is what a short training run leaves behind.
type stepTrace struct {
	losses []float64
	uq     tensor.Vec
	rng    [4]uint64
}

func traceRun(m Model, w *tinyWorld) stepTrace {
	tc := DefaultTrainConfig()
	tc.Seed, tc.Epochs, tc.MaxSteps, tc.BatchSize = 5, 1, 6, 8
	var tr stepTrace
	tc.OnStep = func(_ int, loss float64) { tr.losses = append(tr.losses, loss) }
	Train(m, w.train, nil, tc)
	r := rng.New(6)
	tr.uq = m.UserQueryEmbedding(w.test[0].User, w.test[0].Query, r)
	tr.rng = r.State()
	return tr
}

// TestStepViewMatchesPerNodeReads pins the read-set forward pass
// bit-for-bit against the per-node reference, for every sampler —
// the RNG-consuming ones included — and for one- and three-hop regions:
// same loss trace, same exported embedding, same RNG state afterwards,
// over the monolithic graph and over a sharded engine.
func TestStepViewMatchesPerNodeReads(t *testing.T) {
	w := buildTinyWorld(t, 3)
	g := w.res.Graph
	eng := engine.New(g, engine.Config{Shards: 3, Strategy: partition.DegreeBalanced})
	views := map[string]GraphView{"graph": g, "engine": EngineView{Engine: eng, M: w.res.Mapping}}

	samplers := []sampling.Sampler{
		sampling.NewFocalBiased(), sampling.Uniform{}, sampling.Weighted{},
		sampling.NewImportanceWalk(), sampling.NewBiasedWalk(), sampling.NewClusterImportance(),
	}
	for _, s := range samplers {
		for _, hops := range []int{1, 3} {
			cfg := tinyModelConfig()
			cfg.Sampler, cfg.Hops, cfg.FanOut = s, hops, 3
			want := traceRun(legacyZoomer{NewZoomer(perNodeView{g}, w.logs.Vocab(), cfg, 7)}, w)
			if len(want.losses) == 0 {
				t.Fatalf("%T: empty reference trace", s)
			}
			for name, view := range views {
				got := traceRun(NewZoomer(view, w.logs.Vocab(), cfg, 7), w)
				for i := range want.losses {
					if got.losses[i] != want.losses[i] {
						t.Fatalf("%T hops=%d over %s: step %d loss %v != %v", s, hops, name, i, got.losses[i], want.losses[i])
					}
				}
				for i := range want.uq {
					if got.uq[i] != want.uq[i] {
						t.Fatalf("%T hops=%d over %s: embedding dim %d differs", s, hops, name, i)
					}
				}
				if got.rng != want.rng {
					t.Fatalf("%T hops=%d over %s: RNG consumed differently", s, hops, name)
				}
			}
		}
	}
}

// fetch is one node read a view served: the node, the fields asked for
// and, when its adjacency was among them, the list handed back.
type fetch struct {
	id     graph.NodeID
	fields graph.ReadFields
	nbrs   []graph.Edge
}

// loggedView records every read an engine view serves, in order.
type loggedView struct {
	EngineView
	log []fetch
}

func (v *loggedView) Neighbors(id graph.NodeID) []graph.Edge {
	nbrs := v.EngineView.Neighbors(id)
	v.log = append(v.log, fetch{id, graph.ReadNeighbors, slices.Clone(nbrs)})
	return nbrs
}

func (v *loggedView) Content(id graph.NodeID) tensor.Vec {
	v.log = append(v.log, fetch{id: id, fields: graph.ReadContent})
	return v.EngineView.Content(id)
}

func (v *loggedView) ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) {
	v.EngineView.ReadNodes(ids, fields, into)
	for i, id := range ids {
		f := fetch{id: id, fields: fields}
		if fields&graph.ReadNeighbors != 0 {
			f.nbrs = slices.Clone(into.Neighbors[i])
		}
		v.log = append(v.log, f)
	}
}

// A chassis keeps one read set for all its passes and empties it as each
// pass starts: an edge appended to the engine between two passes is read
// by the second, and the second pass reads exactly what a model that
// never ran a pass reads — nothing the first pass read survives it.
func TestReadSetEmptiedBetweenPasses(t *testing.T) {
	w := buildTinyWorld(t, 3)
	eng := engine.New(w.res.Graph, engine.DefaultConfig())
	reused := &loggedView{EngineView: EngineView{Engine: eng, M: w.res.Mapping}}
	z := NewZoomer(reused, w.logs.Vocab(), tinyModelConfig(), 7)
	ex := w.train[0]
	z.UserQueryEmbedding(ex.User, ex.Query, rng.New(8))

	item := w.res.Graph.NodesOfType(graph.Item)[0]
	if _, err := eng.Append([]ingest.Edge{{Src: ex.User, Dst: item, Type: graph.Click, Weight: 1e6}}); err != nil {
		t.Fatal(err)
	}
	reused.log = nil
	got := z.UserQueryEmbedding(ex.User, ex.Query, rng.New(9))

	fresh := &loggedView{EngineView: reused.EngineView}
	want := NewZoomer(fresh, w.logs.Vocab(), tinyModelConfig(), 7).UserQueryEmbedding(ex.User, ex.Query, rng.New(9))
	if !slices.Equal(got, want) {
		t.Fatalf("second pass embeds %v, a fresh model %v", got, want)
	}
	if !reflect.DeepEqual(reused.log, fresh.log) {
		t.Fatalf("second pass made %d reads, a fresh model %d: %v\nvs %v", len(reused.log), len(fresh.log), reused.log, fresh.log)
	}
	sawEdge := false
	for _, f := range reused.log {
		if f.id == ex.User && slices.Contains(f.nbrs, graph.Edge{To: item, Type: graph.Click, Weight: 1e6}) {
			sawEdge = true
		}
	}
	if !sawEdge {
		t.Fatalf("second pass never read user %d's appended edge to %d", ex.User, item)
	}
}
