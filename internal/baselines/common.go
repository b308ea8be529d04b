// Package baselines implements the comparison models of §VII-A on the
// same chassis as Zoomer (core.Chassis: shared feature embedder, twin
// towers, batched region reads, trainer) so that differences isolate
// each method's sampling and aggregation: GraphSAGE, PinSage,
// PinnerSage, Pixie, HAN, GCE-GNN, FGNN, STAMP and MCCF. Each is a
// region spec plus a request tower (core.Spec) — a faithful
// simplification of the original method's key mechanism; see the
// constructor comments for what is kept. Every constructor reads the
// shared fields of core.Config and ignores Zoomer's own.
package baselines

import (
	"zoomer/internal/ad"
	"zoomer/internal/core"
	"zoomer/internal/loggen"
	"zoomer/internal/nn"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
)

// constructors maps each baseline's name to its constructor.
var constructors = map[string]func(core.GraphView, loggen.Vocab, core.Config, uint64) core.Model{
	"graphsage":  NewGraphSAGE,
	"pinsage":    NewPinSage,
	"pinnersage": NewPinnerSage,
	"pixie":      NewPixie,
	"han":        NewHAN,
	"gce-gnn":    NewGCEGNN,
	"fgnn":       NewFGNN,
	"stamp":      NewSTAMP,
	"mccf":       NewMCCF,
}

// New builds the baseline called name, or returns nil when there is none.
func New(name string, g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64) core.Model {
	if ctor := constructors[name]; ctor != nil {
		return ctor(g, v, cfg, seed)
	}
	return nil
}

// newModel puts s on a chassis over g: the feature embedder and the
// towers, named after the model, are drawn from seed.
func newModel(g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64, s core.Spec) *core.Chassis {
	r := rng.New(seed)
	return core.NewChassis(g, core.NewFeatureEmbedder(v, cfg.EmbedDim, r.Split()), cfg, s.Name+".tower", r, s)
}

// meanTree embeds a sampled tree by recursive mean aggregation:
// h = ReLU(W·[self ‖ mean(children)]), the GraphSAGE aggregation that
// PinSage/PinnerSage/Pixie variants reuse under different samplers.
func meanTree(p core.Pass, tree *sampling.Tree, aggW *nn.Linear) *ad.Node {
	self := p.NodeEmb(tree.Node)
	if len(tree.Children) == 0 {
		return self
	}
	t := p.T
	childs := make([]*ad.Node, len(tree.Children))
	for i, c := range tree.Children {
		childs[i] = meanTree(p, c, aggW)
	}
	agg := t.MeanRows(t.ConcatRows(childs...))
	return t.ReLU(aggW.Forward(t, t.ConcatCols(self, agg)))
}

// samplerModel is the shape shared by the four sampler baselines: cfg's
// hops and fan-out under sampler s, mean aggregation over both regions.
func samplerModel(name string, s sampling.Sampler, focal bool, g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64) core.Model {
	aggW := nn.NewLinear(name+".agg", 2*cfg.EmbedDim, cfg.EmbedDim, rng.New(seed+1))
	return newModel(g, v, cfg, seed, core.Spec{
		Name:   name,
		Region: core.Region{Sampler: s, Hops: cfg.Hops, FanOut: cfg.FanOut, Focal: focal},
		Params: aggW.Params(),
		Tower: func(p core.Pass, user, query *sampling.Tree) (*ad.Node, *ad.Node) {
			return meanTree(p, user, aggW), meanTree(p, query, aggW)
		},
	})
}

// NewGraphSAGE returns the GraphSAGE baseline: uniform neighbor sampling
// with mean aggregation (Hamilton et al. 2017).
func NewGraphSAGE(g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64) core.Model {
	return samplerModel("graphsage", sampling.Uniform{}, false, g, v, cfg, seed)
}

// NewPinSage returns the PinSage baseline: random-walk importance
// sampling with mean aggregation (Ying et al. 2018).
func NewPinSage(g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64) core.Model {
	return samplerModel("pinsage", sampling.NewImportanceWalk(), false, g, v, cfg, seed)
}

// NewPinnerSage returns the PinnerSage baseline: cluster-importance
// sampling preserving multi-modal interests (Pal et al. 2020).
func NewPinnerSage(g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64) core.Model {
	return samplerModel("pinnersage", sampling.NewClusterImportance(), false, g, v, cfg, seed)
}

// NewPixie returns the Pixie baseline: user-biased random-walk sampling
// (Eksombatchai et al. 2018); walks are biased by the request's content.
func NewPixie(g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64) core.Model {
	return samplerModel("pixie", sampling.NewBiasedWalk(), true, g, v, cfg, seed)
}
