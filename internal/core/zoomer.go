package core

import (
	"io"
	"math"

	"zoomer/internal/ad"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/nn"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
	"zoomer/internal/tensor"
)

// Config parameterizes the Zoomer model. The three Use* switches are the
// ablation knobs of Fig. 8: disabling UseSemanticAttn yields Zoomer-FE,
// UseEdgeAttn yields Zoomer-FS, UseFeatureProj yields Zoomer-ES, and
// disabling all three degrades to a mean-pooling GCN.
type Config struct {
	EmbedDim int // latent dimensionality d (paper: 128)
	OutDim   int // tower output dimensionality
	Hops     int // neighborhood depth (paper: 2 for Taobao, 1 for MovieLens)
	FanOut   int // sampled neighbors per hop (paper: 10 default)

	UseFeatureProj  bool
	UseEdgeAttn     bool
	UseSemanticAttn bool

	// Sampler constructs the ROI; nil means the paper's focal-biased
	// sampler.
	Sampler sampling.Sampler

	// LogitScale multiplies the cosine score into a logit; cosine lives in
	// [-1,1], so without scaling the model cannot express confident
	// probabilities.
	LogitScale float32
}

// DefaultConfig returns the configuration used by the offline experiments
// (scaled-down analog of the paper's settings).
func DefaultConfig() Config {
	return Config{
		EmbedDim:        32,
		OutDim:          32,
		Hops:            2,
		FanOut:          10,
		UseFeatureProj:  true,
		UseEdgeAttn:     true,
		UseSemanticAttn: true,
		LogitScale:      5,
	}
}

// Zoomer is the paper's model: focal selection, ROI sampling, and
// ROI-based multi-level attention feeding a twin-tower CTR head.
type Zoomer struct {
	cfg Config
	g   GraphView
	fe  *FeatureEmbedder

	// Space mappings projecting each focal-point type into the shared
	// latent space before summation into the focal vector (§V-A).
	mapUser, mapQuery *nn.Linear

	// Edge-level attention vectors a (eq. 8), one per tower.
	attnUser, attnQuery *nn.Param

	towerUQ   *nn.MLP // user+query tower over [h_u ‖ h_q]
	towerItem *nn.MLP // base item tower (§V-B: no graph attention on items)

	sampler sampling.Sampler
	name    string
}

// NewZoomer builds the model over view g (a monolithic graph, a local
// sharded engine, or a remote cluster) with vocabulary v.
func NewZoomer(g GraphView, v loggen.Vocab, cfg Config, seed uint64) *Zoomer {
	r := rng.New(seed)
	d := cfg.EmbedDim
	s := cfg.Sampler
	if s == nil {
		s = sampling.NewFocalBiased()
	}
	z := &Zoomer{
		cfg:       cfg,
		g:         g,
		fe:        NewFeatureEmbedder(v, d, r.Split()),
		mapUser:   nn.NewLinear("focal.user", d, d, r.Split()),
		mapQuery:  nn.NewLinear("focal.query", d, d, r.Split()),
		attnUser:  nn.NewParam("attn.user", 3*d, 1).XavierInit(r.Split()),
		attnQuery: nn.NewParam("attn.query", 3*d, 1).XavierInit(r.Split()),
		towerUQ:   nn.NewMLP("tower.uq", []int{2 * d, d, cfg.OutDim}, nn.ActReLU, nn.ActNone, r.Split()),
		towerItem: nn.NewMLP("tower.item", []int{d, d, cfg.OutDim}, nn.ActReLU, nn.ActNone, r.Split()),
		sampler:   s,
		name:      "zoomer",
	}
	if !cfg.UseFeatureProj && !cfg.UseEdgeAttn && !cfg.UseSemanticAttn {
		z.name = "gcn"
	} else if !cfg.UseSemanticAttn {
		z.name = "zoomer-fe"
	} else if !cfg.UseEdgeAttn {
		z.name = "zoomer-fs"
	} else if !cfg.UseFeatureProj {
		z.name = "zoomer-es"
	}
	return z
}

// Name implements Model.
func (z *Zoomer) Name() string { return z.name }

// BindView implements ViewBinder: rebinding swaps the read path (e.g.
// onto a different engine topology) without touching trained weights.
func (z *Zoomer) BindView(g GraphView) { z.g = g }

// DenseParams implements Model.
func (z *Zoomer) DenseParams() []*nn.Param {
	out := []*nn.Param{z.attnUser, z.attnQuery}
	out = append(out, z.mapUser.Params()...)
	out = append(out, z.mapQuery.Params()...)
	out = append(out, z.towerUQ.Params()...)
	out = append(out, z.towerItem.Params()...)
	return out
}

// Tables implements Model.
func (z *Zoomer) Tables() []*nn.EmbeddingTable { return z.fe.Tables() }

// samplingFocal is the static focal vector Fc of eq. (5): the sum of the
// focal points' content features, used to score neighbors during ROI
// construction (no learned parameters — sampling happens outside the
// training graph).
func samplingFocal(g GraphView, u, q graph.NodeID) tensor.Vec {
	fc := tensor.NewVec(g.ContentDim())
	if c := g.Content(u); c != nil {
		tensor.Axpy(1, c, fc)
	}
	if c := g.Content(q); c != nil {
		tensor.Axpy(1, c, fc)
	}
	return fc
}

// focalVector computes the learned focal vector (§V-A): per-type space
// mapping of the focal points' embeddings, then summation.
func (z *Zoomer) focalVector(t *ad.Tape, g GraphView, u, q graph.NodeID) *ad.Node {
	eu := t.MeanRows(z.fe.FeatureMatrix(t, g, u))
	eq := t.MeanRows(z.fe.FeatureMatrix(t, g, q))
	return t.Add(z.mapUser.Forward(t, eu), z.mapQuery.Forward(t, eq))
}

// featureLevel applies eq. (6)–(7): focal-conditioned softmax weights over
// the node's feature slots, returning the reweighed 1 x d node embedding.
// With the ablation off it mean-pools the slots.
func (z *Zoomer) featureLevel(t *ad.Tape, H, C *ad.Node) *ad.Node {
	if !z.cfg.UseFeatureProj {
		return t.MeanRows(H)
	}
	// scores = H·Cᵀ/√d  (n x 1), softmaxed across slots.
	scores := t.Scale(1/float32(math.Sqrt(float64(z.cfg.EmbedDim))), t.MatMul(H, t.Transpose(C)))
	w := t.SoftmaxRows(t.Transpose(scores)) // 1 x n
	return t.MatMul(w, H)                   // 1 x d: Σ w_i · H_i
}

// edgeLevel applies eq. (8)–(9) to one neighbor type: focal-conditioned
// attention over the type's neighbor embeddings. zf is the ego's
// feature-level embedding, C the focal vector, a the attention vector.
// With the ablation off it mean-pools the neighbors.
func (z *Zoomer) edgeLevel(t *ad.Tape, zf, C *ad.Node, nbrs []*ad.Node, a *ad.Node) *ad.Node {
	stack := t.ConcatRows(nbrs...)
	if !z.cfg.UseEdgeAttn {
		return t.MeanRows(stack)
	}
	scores := t.Nodes(len(nbrs))
	for i, zj := range nbrs {
		cat := t.ConcatCols(zf, zj, C) // [(Z_i ‖ Z_j) ‖ Z_c]
		scores[i] = t.LeakyReLU(0.2, t.MatMul(cat, a))
	}
	w := t.SoftmaxRows(t.ConcatCols(scores...)) // 1 x m
	return t.MatMul(w, stack)                   // Σ e_ij · Z_j
}

// semanticLevel applies eq. (10)–(11): per-type aggregates are combined
// with weights cos(ego, aggregate). With the ablation off it mean-pools
// the types.
func (z *Zoomer) semanticLevel(t *ad.Tape, zf *ad.Node, perType []*ad.Node) *ad.Node {
	if len(perType) == 1 {
		if !z.cfg.UseSemanticAttn {
			return perType[0]
		}
		return t.ScaleBy(t.CosineSim(zf, perType[0]), perType[0])
	}
	if !z.cfg.UseSemanticAttn {
		return t.MeanRows(t.ConcatRows(perType...))
	}
	var acc *ad.Node
	for _, e := range perType {
		weighted := t.ScaleBy(t.CosineSim(zf, e), e)
		if acc == nil {
			acc = weighted
		} else {
			acc = t.Add(acc, weighted)
		}
	}
	return acc
}

// embedTree computes the multi-level-attention embedding of a sampled ROI
// tree, recursively: leaves contribute their (feature-level) embeddings;
// interior nodes aggregate children per type with edge attention and
// combine types semantically, with a residual connection to the ego's own
// feature embedding.
func (z *Zoomer) embedTree(t *ad.Tape, g GraphView, tree *sampling.Tree, C, a *ad.Node) *ad.Node {
	H := z.fe.FeatureMatrix(t, g, tree.Node)
	zf := z.featureLevel(t, H, C)
	if len(tree.Children) == 0 {
		return zf
	}
	// Group children by neighbor type (eq. 8 normalizes within type).
	embs := t.Nodes(len(tree.Children))
	var count [graph.NumNodeTypes]int
	types := 0
	for i, child := range tree.Children {
		embs[i] = z.embedTree(t, g, child, C, a)
		nt := g.Type(tree.Edges[i].To)
		if count[nt] == 0 {
			types++
		}
		count[nt]++
	}
	perType := t.Nodes(types)[:0]
	for nt := range graph.NumNodeTypes {
		if count[nt] == 0 {
			continue
		}
		nbrs := t.Nodes(count[nt])[:0]
		for i, emb := range embs {
			if g.Type(tree.Edges[i].To) == graph.NodeType(nt) {
				nbrs = append(nbrs, emb)
			}
		}
		perType = append(perType, z.edgeLevel(t, zf, C, nbrs, a))
	}
	return t.Add(zf, z.semanticLevel(t, zf, perType))
}

// itemBase is the base item model of §V-B: feature embedding through the
// item tower, no graph attention (matching the online deployment).
func (z *Zoomer) itemBase(t *ad.Tape, g GraphView, item graph.NodeID) *ad.Node {
	emb := t.MeanRows(z.fe.FeatureMatrix(t, g, item))
	return z.towerItem.Forward(t, emb)
}

// roi is one request's pair of sampled regions.
type roi struct{ user, query *sampling.Tree }

// sampleROIs is the one ROI-construction path of training and inference,
// over every kind of view. All graph reads of the pass go through rs: the
// focal points' content and adjacency arrive in one bulk read, the region
// trees are built request by request in the order — and so with the RNG
// stream — they always were (BuildTree reads one level ahead of its
// depth-first walk), and the features of every node the embedding will
// touch — the trees' nodes plus extra, the batch's items — arrive in one
// last bulk read. What follows runs on slice lookups. The trees live in
// sc until its next Reset.
func (z *Zoomer) sampleROIs(rs *sampling.ReadSet, batch []Instance, extra []graph.NodeID, r *rng.RNG, sc *sampling.Scratch) []roi {
	ids := make([]graph.NodeID, 0, 3*len(batch))
	for _, ex := range batch {
		ids = append(ids, ex.User, ex.Query)
	}
	rs.Prefetch(ids, graph.ReadNeighbors|graph.ReadContent)
	if z.cfg.Hops > 0 {
		rs.Expand(ids, z.sampler.NeighborReads())
	}
	rois := make([]roi, len(batch))
	for i, ex := range batch {
		fc := samplingFocal(rs, ex.User, ex.Query)
		rois[i].user = sampling.BuildTree(rs, ex.User, fc, z.cfg.Hops, z.cfg.FanOut, z.sampler, r, sc)
		rois[i].query = sampling.BuildTree(rs, ex.Query, fc, z.cfg.Hops, z.cfg.FanOut, z.sampler, r, sc)
	}
	ids = append(ids[:0], extra...)
	for _, roi := range rois {
		ids = roi.query.AppendNodes(roi.user.AppendNodes(ids))
	}
	rs.Prefetch(ids, graph.ReadFeatures)
	return rois
}

// uqForward runs the user and query towers over one request's regions
// and returns the combined user-query vector.
func (z *Zoomer) uqForward(t *ad.Tape, g GraphView, u, q graph.NodeID, roi roi) *ad.Node {
	C := z.focalVector(t, g, u, q)
	hu := z.embedTree(t, g, roi.user, C, z.attnUser.Node(t))
	hq := z.embedTree(t, g, roi.query, C, z.attnQuery.Node(t))
	return z.towerUQ.Forward(t, t.ConcatCols(hu, hq))
}

// Logits implements Model: per-example twin-tower cosine scores scaled
// into logits. The batch's regions are sampled first, through a read set
// that lives for this call, then embedded.
func (z *Zoomer) Logits(t *ad.Tape, batch []Instance, r *rng.RNG) *ad.Node {
	rs := NewStepView(z.g)
	items := make([]graph.NodeID, len(batch))
	for i, ex := range batch {
		items[i] = ex.Item
	}
	rois := z.sampleROIs(rs, batch, items, r, sampling.NewScratch())
	rows := t.Nodes(len(batch))
	for i, ex := range batch {
		uq := z.uqForward(t, rs, ex.User, ex.Query, rois[i])
		it := z.itemBase(t, rs, ex.Item)
		rows[i] = t.Scale(z.cfg.LogitScale, t.CosineSim(uq, it))
	}
	return t.ConcatRows(rows...)
}

// UserQueryEmbedding implements Model (inference path: forward only).
func (z *Zoomer) UserQueryEmbedding(u, q graph.NodeID, r *rng.RNG) tensor.Vec {
	rs := NewStepView(z.g)
	rois := z.sampleROIs(rs, []Instance{{User: u, Query: q}}, nil, r, sampling.NewScratch())
	out := z.uqForward(ad.NewTape(), rs, u, q, rois[0])
	return tensor.Copy(out.Val.Row(0))
}

// ItemEmbedding implements Model.
func (z *Zoomer) ItemEmbedding(item graph.NodeID, _ *rng.RNG) tensor.Vec {
	t := ad.NewTape()
	out := z.itemBase(t, z.g, item)
	return tensor.Copy(out.Val.Row(0))
}

// EdgeAttentionWeights exposes the trained edge-level coupling
// coefficients for interpretability (Fig. 13): for ego node with the given
// focal points, it returns the attention weight assigned to each listed
// neighbor. Weights are softmax-normalized over the provided set.
func (z *Zoomer) EdgeAttentionWeights(ego graph.NodeID, focalU, focalQ graph.NodeID, neighbors []graph.NodeID) []float32 {
	t := ad.NewTape()
	C := z.focalVector(t, z.g, focalU, focalQ)
	H := z.fe.FeatureMatrix(t, z.g, ego)
	zf := z.featureLevel(t, H, C)
	a := z.attnUser.Node(t)
	scores := make([]*ad.Node, len(neighbors))
	for i, nb := range neighbors {
		Hn := z.fe.FeatureMatrix(t, z.g, nb)
		zn := z.featureLevel(t, Hn, C)
		scores[i] = t.LeakyReLU(0.2, t.MatMul(t.ConcatCols(zf, zn, C), a))
	}
	w := t.SoftmaxRows(t.ConcatCols(scores...))
	return tensor.Copy(w.Val.Row(0))
}

// Save writes a checkpoint of all trainable state (dense parameters and
// embedding tables) to w.
func (z *Zoomer) Save(w io.Writer) error {
	return nn.SaveCheckpoint(w, z.DenseParams(), z.Tables())
}

// Load restores a checkpoint written by Save into this model; the
// architecture (and thus parameter names/shapes) must match.
func (z *Zoomer) Load(r io.Reader) error {
	return nn.LoadCheckpoint(r, z.DenseParams(), z.Tables())
}
