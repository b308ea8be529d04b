package baselines

import (
	"sort"

	"zoomer/internal/ad"
	"zoomer/internal/core"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/nn"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
	"zoomer/internal/tensor"
)

// NewHAN returns the Heterogeneous Graph Attention Network baseline
// (Wang et al. 2019): node-level attention (learnable, per-edge, NOT
// focal-conditioned) plus semantic-level attention (learnable softmax over
// per-type aggregates). The key difference from Zoomer — static attention
// independent of the request's focal interest — is exactly what the paper
// credits its gains to.
func NewHAN(g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64) core.Model {
	r := rng.New(seed + 1)
	d := cfg.EmbedDim
	attn := nn.NewParam("han.a", 2*d, 1).XavierInit(r.Split())
	semW := nn.NewLinear("han.semW", d, d, r.Split())
	semQ := nn.NewParam("han.q", d, 1).XavierInit(r.Split())

	var embed func(p core.Pass, tree *sampling.Tree) *ad.Node
	embed = func(p core.Pass, tree *sampling.Tree) *ad.Node {
		self := p.NodeEmb(tree.Node)
		if len(tree.Children) == 0 {
			return self
		}
		t := p.T
		a := attn.Node(t)
		var byType [graph.NumNodeTypes][]*ad.Node
		for i, c := range tree.Children {
			nt := p.G.Type(tree.Edges[i].To)
			byType[nt] = append(byType[nt], embed(p, c))
		}
		var aggs []*ad.Node
		for nt := 0; nt < graph.NumNodeTypes; nt++ {
			ns := byType[nt]
			if len(ns) == 0 {
				continue
			}
			// Node-level attention: score_j = LeakyReLU(aᵀ[self ‖ n_j]).
			scores := make([]*ad.Node, len(ns))
			for j, n := range ns {
				scores[j] = t.LeakyReLU(0.2, t.MatMul(t.ConcatCols(self, n), a))
			}
			w := t.SoftmaxRows(t.ConcatCols(scores...))
			aggs = append(aggs, t.MatMul(w, t.ConcatRows(ns...)))
		}
		var combined *ad.Node
		if len(aggs) == 1 {
			combined = aggs[0]
		} else {
			// Semantic attention: β_T = softmax(qᵀ·tanh(W·E_T)).
			qv := semQ.Node(t)
			ss := make([]*ad.Node, len(aggs))
			for j, e := range aggs {
				ss[j] = t.MatMul(t.Tanh(semW.Forward(t, e)), qv)
			}
			beta := t.SoftmaxRows(t.ConcatCols(ss...))
			combined = t.MatMul(beta, t.ConcatRows(aggs...))
		}
		return t.Add(self, combined)
	}
	return newModel(g, v, cfg, seed, core.Spec{
		Name:   "han",
		Region: core.Region{Sampler: sampling.Uniform{}, Hops: cfg.Hops, FanOut: cfg.FanOut},
		Params: append([]*nn.Param{attn, semQ}, semW.Params()...),
		Tower:  bothRegions(embed),
	})
}

// bothRegions is the request tower that embeds the user's and the
// query's region the same way.
func bothRegions(embed func(core.Pass, *sampling.Tree) *ad.Node) func(core.Pass, *sampling.Tree, *sampling.Tree) (*ad.Node, *ad.Node) {
	return func(p core.Pass, user, query *sampling.Tree) (*ad.Node, *ad.Node) {
		return embed(p, user), embed(p, query)
	}
}

// NewGCEGNN returns the Global Context Enhanced GNN baseline (Wang et al.
// 2020): a session-local channel (interaction edges only) and a global
// channel (all edges including similarity) are aggregated separately and
// fused — the mechanism that lets session models exploit global item
// transitions. Its region is one hop at twice cfg's fan-out.
func NewGCEGNN(g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64) core.Model {
	r := rng.New(seed + 1)
	d := cfg.EmbedDim
	fuse := nn.NewLinear("gce.fuse", 2*d, d, r.Split())

	channel := func(p core.Pass, tree *sampling.Tree, keep func(graph.EdgeType) bool) *ad.Node {
		self := p.NodeEmb(tree.Node)
		var kept []*ad.Node
		for i, c := range tree.Children {
			if keep(tree.Edges[i].Type) {
				kept = append(kept, p.NodeEmb(c.Node))
			}
		}
		if len(kept) == 0 {
			return self
		}
		return p.T.Add(self, p.T.MeanRows(p.T.ConcatRows(kept...)))
	}
	embed := func(p core.Pass, tree *sampling.Tree) *ad.Node {
		local := channel(p, tree, func(e graph.EdgeType) bool { return e != graph.Similarity })
		global := channel(p, tree, func(graph.EdgeType) bool { return true })
		return p.T.ReLU(fuse.Forward(p.T, p.T.ConcatCols(local, global)))
	}
	return newModel(g, v, cfg, seed, core.Spec{
		Name:   "gce-gnn",
		Region: core.Region{Sampler: sampling.Uniform{}, Hops: 1, FanOut: 2 * cfg.FanOut},
		Params: fuse.Params(),
		Tower:  bothRegions(embed),
	})
}

// NewFGNN returns the Factor Graph Neural Network baseline (Zhang et al.
// 2019) in its session-graph reading: neighbor messages are combined with
// a position/weight-decayed order (heavier interactions first, geometric
// decay capturing the "latent order") through a gated fusion with the
// self embedding. Its region is one weighted-sampled hop.
func NewFGNN(g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64) core.Model {
	r := rng.New(seed + 1)
	d := cfg.EmbedDim
	gate := nn.NewLinear("fgnn.gate", 2*d, d, r.Split())

	const decay = 0.7
	embed := func(p core.Pass, tree *sampling.Tree) *ad.Node {
		self := p.NodeEmb(tree.Node)
		if len(tree.Children) == 0 {
			return self
		}
		t := p.T
		// Order by interaction weight (recency proxy) and decay.
		type we struct {
			idx int
			w   float32
		}
		order := make([]we, len(tree.Edges))
		for i, e := range tree.Edges {
			order[i] = we{i, e.Weight}
		}
		sort.Slice(order, func(a, b int) bool { return order[a].w > order[b].w })
		var agg *ad.Node
		scale := float32(1)
		var total float32
		for _, o := range order {
			emb := t.Scale(scale, p.NodeEmb(tree.Children[o.idx].Node))
			if agg == nil {
				agg = emb
			} else {
				agg = t.Add(agg, emb)
			}
			total += scale
			scale *= decay
		}
		agg = t.Scale(1/total, agg)
		gv := t.Sigmoid(gate.Forward(t, t.ConcatCols(self, agg)))
		one := t.Const(onesLike(gv))
		// h = g⊙self + (1-g)⊙agg
		return t.Add(t.Mul(gv, self), t.Mul(t.Sub(one, gv), agg))
	}
	return newModel(g, v, cfg, seed, core.Spec{
		Name:   "fgnn",
		Region: core.Region{Sampler: sampling.Weighted{}, Hops: 1, FanOut: cfg.FanOut},
		Params: gate.Params(),
		Tower:  bothRegions(embed),
	})
}

// NewSTAMP returns the Short-Term Attention/Memory Priority baseline (Liu
// et al. 2018): no graph convolution — its region is the focal points
// alone, and the user's clicked-item history is attended with a score
// conditioned on both the current query (short-term interest) and the
// mean history (general interest).
func NewSTAMP(g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64) core.Model {
	r := rng.New(seed + 1)
	d := cfg.EmbedDim
	w1 := nn.NewLinear("stamp.w1", d, d, r.Split())
	w2 := nn.NewLinear("stamp.w2", d, d, r.Split())
	w3 := nn.NewLinear("stamp.w3", d, d, r.Split())
	va := nn.NewParam("stamp.v", d, 1).XavierInit(r.Split())

	tower := func(p core.Pass, user, query *sampling.Tree) (*ad.Node, *ad.Node) {
		t := p.T
		qEmb := p.NodeEmb(query.Node)
		history := userItemHistory(p.G, user.Node, 2*cfg.FanOut)
		if len(history) == 0 {
			return p.NodeEmb(user.Node), qEmb
		}
		embs := make([]*ad.Node, len(history))
		for i, it := range history {
			embs[i] = p.NodeEmb(it)
		}
		general := t.MeanRows(t.ConcatRows(embs...))
		// Attention: α_i = vᵀ·sigmoid(W1·x_i + W2·q + W3·ms).
		ctx := t.Add(w2.Forward(t, qEmb), w3.Forward(t, general))
		scores := make([]*ad.Node, len(embs))
		for i, x := range embs {
			scores[i] = t.MatMul(t.Sigmoid(t.Add(w1.Forward(t, x), ctx)), va.Node(t))
		}
		alpha := t.SoftmaxRows(t.ConcatCols(scores...))
		return t.MatMul(alpha, t.ConcatRows(embs...)), qEmb
	}
	return newModel(g, v, cfg, seed, core.Spec{
		Name:   "stamp",
		Params: append(append(append([]*nn.Param{va}, w1.Params()...), w2.Params()...), w3.Params()...),
		Tower:  tower,
	})
}

// NewMCCF returns the Multi-Component graph Convolutional Collaborative
// Filtering baseline (Wang et al. 2020): neighbor embeddings are
// decomposed through C component projections, each pooled separately,
// and recombined with a learned component-attention — capturing multiple
// latent purchase motivations. Its region is one uniformly sampled hop.
func NewMCCF(g core.GraphView, v loggen.Vocab, cfg core.Config, seed uint64) core.Model {
	r := rng.New(seed + 1)
	d := cfg.EmbedDim
	const components = 2
	var own []*nn.Param
	comps := make([]*nn.Linear, components)
	for c := range comps {
		comps[c] = nn.NewLinear("mccf.comp", d, d, r.Split())
		own = append(own, comps[c].Params()...)
	}
	compQ := nn.NewParam("mccf.q", d, 1).XavierInit(r.Split())

	embed := func(p core.Pass, tree *sampling.Tree) *ad.Node {
		self := p.NodeEmb(tree.Node)
		if len(tree.Children) == 0 {
			return self
		}
		t := p.T
		nbrs := make([]*ad.Node, len(tree.Children))
		for i, c := range tree.Children {
			nbrs[i] = p.NodeEmb(c.Node)
		}
		stack := t.ConcatRows(nbrs...)
		pooled := make([]*ad.Node, components)
		scores := make([]*ad.Node, components)
		for c := 0; c < components; c++ {
			pooled[c] = t.Tanh(comps[c].Forward(t, t.MeanRows(stack)))
			scores[c] = t.MatMul(pooled[c], compQ.Node(t))
		}
		beta := t.SoftmaxRows(t.ConcatCols(scores...))
		return t.Add(self, t.MatMul(beta, t.ConcatRows(pooled...)))
	}
	return newModel(g, v, cfg, seed, core.Spec{
		Name:   "mccf",
		Region: core.Region{Sampler: sampling.Uniform{}, Hops: 1, FanOut: cfg.FanOut},
		Params: append(own, compQ),
		Tower:  bothRegions(embed),
	})
}

// userItemHistory collects item nodes reachable from u through click
// paths (u -> query -> item and u's session items), deterministically,
// capped at max — STAMP's "history" view of the graph.
func userItemHistory(g core.GraphView, u graph.NodeID, max int) []graph.NodeID {
	var out []graph.NodeID
	seen := map[graph.NodeID]bool{}
	for _, e := range g.Neighbors(u) {
		if g.Type(e.To) == graph.Item && !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
			if len(out) == max {
				return out
			}
		}
	}
	for _, e := range g.Neighbors(u) {
		if g.Type(e.To) != graph.Query {
			continue
		}
		for _, e2 := range g.Neighbors(e.To) {
			if g.Type(e2.To) == graph.Item && !seen[e2.To] {
				seen[e2.To] = true
				out = append(out, e2.To)
				if len(out) == max {
					return out
				}
			}
		}
	}
	return out
}

// onesLike returns a matrix of ones with n's shape, for gated fusions.
func onesLike(n *ad.Node) *tensor.Matrix {
	m := tensor.NewMatrix(n.Rows(), n.Cols())
	for i := range m.Data {
		m.Data[i] = 1
	}
	return m
}
