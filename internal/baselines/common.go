// Package baselines implements the comparison models of §VII-A on the
// same substrate as Zoomer (shared feature embedder, twin towers, trainer)
// so that differences isolate each method's aggregation and sampling
// strategy: GraphSAGE, PinSage, PinnerSage, Pixie, HAN, GCE-GNN, FGNN,
// STAMP and MCCF. Each is a faithful simplification of the original
// method's key mechanism — see the constructor comments for what is kept.
package baselines

import (
	"zoomer/internal/ad"
	"zoomer/internal/core"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/nn"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
	"zoomer/internal/tensor"
)

// Config holds the knobs shared by every baseline.
type Config struct {
	EmbedDim int
	OutDim   int
	Hops     int
	FanOut   int
	// LogitScale matches Zoomer's cosine-to-logit scaling.
	LogitScale float32
}

// DefaultConfig mirrors core.DefaultConfig for fair comparison.
func DefaultConfig() Config {
	return Config{EmbedDim: 32, OutDim: 32, Hops: 2, FanOut: 10, LogitScale: 5}
}

// gnnModel is the shared chassis: feature embedder, twin towers, and a
// model-specific request-side embedding function.
type gnnModel struct {
	name string
	cfg  Config
	g    core.GraphView
	fe   *core.FeatureEmbedder

	// reads is the current forward pass's read set (m.g points at it for
	// the duration); nil between passes.
	reads *sampling.ReadSet

	towerUQ, towerItem *nn.MLP
	extra              []*nn.Param

	uqFn func(t *ad.Tape, u, q graph.NodeID, r *rng.RNG) *ad.Node
}

func newChassis(name string, g core.GraphView, v loggen.Vocab, cfg Config, seed uint64) *gnnModel {
	r := rng.New(seed)
	d := cfg.EmbedDim
	return &gnnModel{
		name:      name,
		cfg:       cfg,
		g:         g,
		fe:        core.NewFeatureEmbedder(v, d, r.Split()),
		towerUQ:   nn.NewMLP(name+".tower.uq", []int{2 * d, d, cfg.OutDim}, nn.ActReLU, nn.ActNone, r.Split()),
		towerItem: nn.NewMLP(name+".tower.item", []int{d, d, cfg.OutDim}, nn.ActReLU, nn.ActNone, r.Split()),
	}
}

// Name implements core.Model.
func (m *gnnModel) Name() string { return m.name }

// BindView implements core.ViewBinder: every closure reads the graph
// through m.g, so swapping the view redirects sampling and feature
// lookups without touching trained weights.
func (m *gnnModel) BindView(g core.GraphView) { m.g = g }

// stepView puts the bound view behind the read set of one forward pass
// (core.NewStepView) — the same helper Zoomer reads through — and
// returns the call that takes it off again. Every closure reads through
// m.g, so for the duration each graph read is fetched once, and
// sampling.BuildTree reads its frontiers in bulk.
func (m *gnnModel) stepView() (done func()) {
	g := m.g
	m.reads = core.NewStepView(g)
	m.g = m.reads
	return func() { m.g, m.reads = g, nil }
}

// nodeEmb returns the mean of a node's feature latent vectors (1 x d).
func (m *gnnModel) nodeEmb(t *ad.Tape, id graph.NodeID) *ad.Node {
	return t.MeanRows(m.fe.FeatureMatrix(t, m.g, id))
}

func (m *gnnModel) itemVec(t *ad.Tape, item graph.NodeID) *ad.Node {
	return m.towerItem.Forward(t, m.nodeEmb(t, item))
}

// Logits implements core.Model.
func (m *gnnModel) Logits(t *ad.Tape, batch []core.Instance, r *rng.RNG) *ad.Node {
	defer m.stepView()()
	rows := make([]*ad.Node, len(batch))
	for i, ex := range batch {
		uq := m.uqFn(t, ex.User, ex.Query, r)
		it := m.itemVec(t, ex.Item)
		rows[i] = t.Scale(m.cfg.LogitScale, t.CosineSim(uq, it))
	}
	return t.ConcatRows(rows...)
}

// DenseParams implements core.Model.
func (m *gnnModel) DenseParams() []*nn.Param {
	out := append([]*nn.Param(nil), m.extra...)
	out = append(out, m.towerUQ.Params()...)
	out = append(out, m.towerItem.Params()...)
	return out
}

// Tables implements core.Model.
func (m *gnnModel) Tables() []*nn.EmbeddingTable { return m.fe.Tables() }

// UserQueryEmbedding implements core.Model.
func (m *gnnModel) UserQueryEmbedding(u, q graph.NodeID, r *rng.RNG) tensor.Vec {
	defer m.stepView()()
	t := ad.NewTape()
	return tensor.Copy(m.uqFn(t, u, q, r).Val.Row(0))
}

// ItemEmbedding implements core.Model.
func (m *gnnModel) ItemEmbedding(item graph.NodeID, _ *rng.RNG) tensor.Vec {
	t := ad.NewTape()
	return tensor.Copy(m.itemVec(t, item).Val.Row(0))
}

// meanTree embeds a sampled tree by recursive mean aggregation:
// h = ReLU(W·[self ‖ mean(children)]), the GraphSAGE aggregation that
// PinSage/PinnerSage/Pixie variants reuse under different samplers.
func meanTree(t *ad.Tape, m *gnnModel, tree *sampling.Tree, aggW *nn.Linear) *ad.Node {
	self := m.nodeEmb(t, tree.Node)
	if len(tree.Children) == 0 {
		return self
	}
	childs := make([]*ad.Node, len(tree.Children))
	for i, c := range tree.Children {
		childs[i] = meanTree(t, m, c, aggW)
	}
	agg := t.MeanRows(t.ConcatRows(childs...))
	return t.ReLU(aggW.Forward(t, t.ConcatCols(self, agg)))
}

// samplerUQ wires a sampler + mean aggregation into a request-side
// embedding: the shape shared by the four sampler baselines.
func samplerUQ(m *gnnModel, s sampling.Sampler, aggW *nn.Linear, focalFromContent bool) func(*ad.Tape, graph.NodeID, graph.NodeID, *rng.RNG) *ad.Node {
	// One scratch per model: models run strictly sequentially (training
	// and eval are single-goroutine), and the walk samplers' slice-backed
	// visit counters are only cheap when the scratch is reused.
	sc := sampling.NewScratch()
	var nodes []graph.NodeID
	return func(t *ad.Tape, u, q graph.NodeID, r *rng.RNG) *ad.Node {
		sc.Reset()
		var focal tensor.Vec
		if focalFromContent {
			focal = tensor.NewVec(m.g.ContentDim())
			if c := m.g.Content(u); c != nil {
				tensor.Axpy(1, c, focal)
			}
			if c := m.g.Content(q); c != nil {
				tensor.Axpy(1, c, focal)
			}
		}
		treeU := sampling.BuildTree(m.g, u, focal, m.cfg.Hops, m.cfg.FanOut, s, r, sc)
		treeQ := sampling.BuildTree(m.g, q, focal, m.cfg.Hops, m.cfg.FanOut, s, r, sc)
		nodes = treeQ.AppendNodes(treeU.AppendNodes(nodes[:0]))
		m.reads.Prefetch(nodes, graph.ReadFeatures)
		hu := meanTree(t, m, treeU, aggW)
		hq := meanTree(t, m, treeQ, aggW)
		return m.towerUQ.Forward(t, t.ConcatCols(hu, hq))
	}
}

// NewGraphSAGE returns the GraphSAGE baseline: uniform neighbor sampling
// with mean aggregation (Hamilton et al. 2017).
func NewGraphSAGE(g core.GraphView, v loggen.Vocab, cfg Config, seed uint64) core.Model {
	m := newChassis("graphsage", g, v, cfg, seed)
	aggW := nn.NewLinear("graphsage.agg", 2*cfg.EmbedDim, cfg.EmbedDim, rng.New(seed+1))
	m.extra = aggW.Params()
	m.uqFn = samplerUQ(m, sampling.Uniform{}, aggW, false)
	return m
}

// NewPinSage returns the PinSage baseline: random-walk importance
// sampling with mean aggregation (Ying et al. 2018).
func NewPinSage(g core.GraphView, v loggen.Vocab, cfg Config, seed uint64) core.Model {
	m := newChassis("pinsage", g, v, cfg, seed)
	aggW := nn.NewLinear("pinsage.agg", 2*cfg.EmbedDim, cfg.EmbedDim, rng.New(seed+1))
	m.extra = aggW.Params()
	m.uqFn = samplerUQ(m, sampling.NewImportanceWalk(), aggW, false)
	return m
}

// NewPinnerSage returns the PinnerSage baseline: cluster-importance
// sampling preserving multi-modal interests (Pal et al. 2020).
func NewPinnerSage(g core.GraphView, v loggen.Vocab, cfg Config, seed uint64) core.Model {
	m := newChassis("pinnersage", g, v, cfg, seed)
	aggW := nn.NewLinear("pinnersage.agg", 2*cfg.EmbedDim, cfg.EmbedDim, rng.New(seed+1))
	m.extra = aggW.Params()
	m.uqFn = samplerUQ(m, sampling.NewClusterImportance(), aggW, false)
	return m
}

// NewPixie returns the Pixie baseline: user-biased random-walk sampling
// (Eksombatchai et al. 2018); walks are biased by the request's content.
func NewPixie(g core.GraphView, v loggen.Vocab, cfg Config, seed uint64) core.Model {
	m := newChassis("pixie", g, v, cfg, seed)
	aggW := nn.NewLinear("pixie.agg", 2*cfg.EmbedDim, cfg.EmbedDim, rng.New(seed+1))
	m.extra = aggW.Params()
	m.uqFn = samplerUQ(m, sampling.NewBiasedWalk(), aggW, true)
	return m
}
