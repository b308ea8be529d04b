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

// Config is the one model configuration: every model — Zoomer and each
// baseline — reads EmbedDim, OutDim, Hops, FanOut and LogitScale from
// it. The three Use* switches and Sampler are Zoomer's fields, which the
// baselines ignore. The switches are the ablation knobs of Fig. 8 (see
// Ablations).
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

// Ablation is one variant of Fig. 8's ablation study: a model name and
// the three attention levels Zoomer runs with.
type Ablation struct {
	Name                                string
	FeatureProj, EdgeAttn, SemanticAttn bool
}

// Ablations lists Fig. 8's variants, in the figure's order: disabling
// UseSemanticAttn yields Zoomer-FE, UseEdgeAttn Zoomer-FS, UseFeatureProj
// Zoomer-ES, and disabling all three degrades to a mean-pooling GCN.
var Ablations = []Ablation{
	{"gcn", false, false, false},
	{"zoomer-fe", true, true, false},
	{"zoomer-fs", true, false, true},
	{"zoomer-es", false, true, true},
	{"zoomer", true, true, true},
}

// Apply returns cfg with a's switches.
func (a Ablation) Apply(cfg Config) Config {
	cfg.UseFeatureProj, cfg.UseEdgeAttn, cfg.UseSemanticAttn = a.FeatureProj, a.EdgeAttn, a.SemanticAttn
	return cfg
}

// ablationName names the variant cfg's switches select; a combination
// Ablations does not list is "zoomer-custom".
func ablationName(cfg Config) string {
	for _, a := range Ablations {
		if a.FeatureProj == cfg.UseFeatureProj && a.EdgeAttn == cfg.UseEdgeAttn && a.SemanticAttn == cfg.UseSemanticAttn {
			return a.Name
		}
	}
	return "zoomer-custom"
}

// Zoomer is the paper's model on the chassis: a focal-biased region spec,
// and a request tower of focal selection plus ROI-based multi-level
// attention.
type Zoomer struct {
	*Chassis

	// Space mappings projecting each focal-point type into the shared
	// latent space before summation into the focal vector (§V-A).
	mapUser, mapQuery *nn.Linear

	// Edge-level attention vectors a (eq. 8), one per tower.
	attnUser, attnQuery *nn.Param
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
	fe := NewFeatureEmbedder(v, d, r.Split())
	z := &Zoomer{
		mapUser:   nn.NewLinear("focal.user", d, d, r.Split()),
		mapQuery:  nn.NewLinear("focal.query", d, d, r.Split()),
		attnUser:  nn.NewParam("attn.user", 3*d, 1).XavierInit(r.Split()),
		attnQuery: nn.NewParam("attn.query", 3*d, 1).XavierInit(r.Split()),
	}
	own := []*nn.Param{z.attnUser, z.attnQuery}
	own = append(own, z.mapUser.Params()...)
	own = append(own, z.mapQuery.Params()...)
	z.Chassis = NewChassis(g, fe, cfg, "tower", r, Spec{
		Name:   ablationName(cfg),
		Region: Region{Sampler: s, Hops: cfg.Hops, FanOut: cfg.FanOut, Focal: true},
		Params: own,
		Tower:  z.requestTower,
	})
	return z
}

// focalVector computes the learned focal vector (§V-A): per-type space
// mapping of the focal points' embeddings, then summation.
func (z *Zoomer) focalVector(t *ad.Tape, g GraphView, u, q graph.NodeID) *ad.Node {
	eu := t.MeanRows(z.fe.featureMatrix(t, g, u))
	eq := t.MeanRows(z.fe.featureMatrix(t, g, q))
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
	H := z.fe.featureMatrix(t, g, tree.Node)
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

// requestTower is Zoomer's request tower: the learned focal vector, then
// each region embedded by multi-level attention under its own edge
// attention vector.
func (z *Zoomer) requestTower(p Pass, user, query *sampling.Tree) (hu, hq *ad.Node) {
	C := z.focalVector(p.T, p.G, user.Node, query.Node)
	hu = z.embedTree(p.T, p.G, user, C, z.attnUser.Node(p.T))
	hq = z.embedTree(p.T, p.G, query, C, z.attnQuery.Node(p.T))
	return hu, hq
}

// EdgeAttentionWeights exposes the trained edge-level coupling
// coefficients for interpretability (Fig. 13): for ego node with the given
// focal points, it returns the attention weight assigned to each listed
// neighbor. Weights are softmax-normalized over the provided set.
func (z *Zoomer) EdgeAttentionWeights(ego graph.NodeID, focalU, focalQ graph.NodeID, neighbors []graph.NodeID) []float32 {
	t := ad.NewTape()
	C := z.focalVector(t, z.g, focalU, focalQ)
	H := z.fe.featureMatrix(t, z.g, ego)
	zf := z.featureLevel(t, H, C)
	a := z.attnUser.Node(t)
	scores := make([]*ad.Node, len(neighbors))
	for i, nb := range neighbors {
		Hn := z.fe.featureMatrix(t, z.g, nb)
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
