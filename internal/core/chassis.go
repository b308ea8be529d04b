package core

import (
	"zoomer/internal/ad"
	"zoomer/internal/graph"
	"zoomer/internal/nn"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
	"zoomer/internal/tensor"
)

// Region is a model's region spec: how the chassis samples the two
// regions — one around the user, one around the query — of a request.
type Region struct {
	Sampler sampling.Sampler // may be nil when Hops is 0
	Hops    int              // levels sampled below each focal point
	FanOut  int              // neighbors kept per node and level
	// Focal biases sampling by the request's static focal vector (the
	// summed content of its user and query); without it the sampler
	// gets nil.
	Focal bool
}

// Pass is one forward pass as a request tower sees it: the tape, and the
// read set every graph read of the pass goes through.
type Pass struct {
	T  *ad.Tape
	G  GraphView
	fe *FeatureEmbedder
}

// NodeEmb returns the mean of id's feature latent vectors (1 x d).
func (p Pass) NodeEmb(id graph.NodeID) *ad.Node {
	return p.T.MeanRows(p.fe.featureMatrix(p.T, p.G, id))
}

// Spec is what a model puts on the chassis: its name, its region spec,
// its own dense parameters and its request tower. Tower embeds a request
// from its two sampled regions and returns the user and the query half
// of the request-side MLP's input; every node of both trees has its
// features in p's read set already.
type Spec struct {
	Name   string
	Region Region
	Params []*nn.Param
	Tower  func(p Pass, user, query *sampling.Tree) (hu, hq *ad.Node)
}

// Chassis is what every model is built on, so that comparisons isolate
// each method's sampling and aggregation: the feature embedder, the two
// MLP towers and the LogitScale·cosine head, and the one batched pass
// that reads a step's regions out of the graph. A model adds a Spec.
//
// A batch's pass has two halves, and Train runs them on two goroutines:
// sampleBatch builds the regions of the next batch into one region
// buffer while batchLogits embeds the current batch from the other.
// Sampling reads only the view, the region spec and the buffer it fills;
// the halves share no mutable state. Logits and UserQueryEmbedding run
// on the chassis's own buffer; they and the other methods are used by
// one goroutine at a time.
type Chassis struct {
	spec               Spec
	cfg                Config
	g                  GraphView
	fe                 *FeatureEmbedder
	towerUQ, towerItem *nn.MLP
	own                *regions
}

// NewChassis puts s on a chassis over view g with feature embedder fe,
// drawing the towers — named towers+".uq" and towers+".item" — from r.
func NewChassis(g GraphView, fe *FeatureEmbedder, cfg Config, towers string, r *rng.RNG, s Spec) *Chassis {
	d := cfg.EmbedDim
	return &Chassis{
		spec:      s,
		cfg:       cfg,
		g:         g,
		fe:        fe,
		towerUQ:   nn.NewMLP(towers+".uq", []int{2 * d, d, cfg.OutDim}, nn.ActReLU, nn.ActNone, r.Split()),
		towerItem: nn.NewMLP(towers+".item", []int{d, d, cfg.OutDim}, nn.ActReLU, nn.ActNone, r.Split()),
		own:       newRegions(g),
	}
}

// Name implements Model.
func (c *Chassis) Name() string { return c.spec.Name }

// DenseParams implements Model: the model's own parameters, then the
// towers'.
func (c *Chassis) DenseParams() []*nn.Param {
	out := append([]*nn.Param(nil), c.spec.Params...)
	out = append(out, c.towerUQ.Params()...)
	return append(out, c.towerItem.Params()...)
}

// Tables implements Model.
func (c *Chassis) Tables() []*nn.EmbeddingTable { return c.fe.tables() }

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

// regions is one batch's region buffer: the read set every graph read of
// the batch's pass goes through, the scratch its trees live in, and the
// trees, two per request — request i's user region is trees[2i], its
// query region trees[2i+1]. Everything in it stays valid until the
// buffer is sampled into again.
type regions struct {
	rs     *sampling.ReadSet
	sc     *sampling.Scratch
	trees  []*sampling.Tree
	ids    []graph.NodeID // the focal points, then bulk-read staging
	focals []tensor.Vec   // each focal point's focal vector
}

// newRegions returns an empty region buffer over view g.
func newRegions(g GraphView) *regions {
	return &regions{rs: sampling.NewReadSet(g, g.Type), sc: sampling.NewScratch()}
}

// newRegions implements Model.
func (c *Chassis) newRegions() *regions { return newRegions(c.g) }

// sampleBatch implements Model: the batch's regions, with the features
// of their nodes and of the batch's items read.
func (c *Chassis) sampleBatch(b *regions, batch []Instance, r *rng.RNG) {
	c.sampleROIs(b, batch, true, r)
}

// sampleROIs is the one region-construction path of every model, in
// training and inference, over every kind of view. It empties b — the
// graph may change between passes, never inside one — and every graph
// read of the pass goes through b's read set: for a focal-biased region
// the focal points' content arrives in one bulk read, with the adjacency
// lists the first level samples riding along; the batch's trees are
// built as one forest, level by level (BuildForest readies each level in
// bulk); and the features of every node the embedding will touch — the
// batch's items when items is set, then the trees' nodes — arrive in one
// last bulk read. What follows runs on slice lookups.
func (c *Chassis) sampleROIs(b *regions, batch []Instance, items bool, r *rng.RNG) {
	reg := c.spec.Region
	rs := b.rs
	rs.Reset()
	b.sc.Reset()
	ids := b.ids[:0]
	for _, ex := range batch {
		ids = append(ids, ex.User, ex.Query)
	}
	var focals []tensor.Vec
	if reg.Focal {
		rs.Prefetch(ids, graph.ReadNeighbors|graph.ReadContent)
		focals = b.focals[:0]
		for _, ex := range batch {
			fc := samplingFocal(rs, ex.User, ex.Query)
			focals = append(focals, fc, fc)
		}
		b.focals = focals
	}
	b.trees = sampling.BuildForest(rs, ids, focals, reg.Hops, reg.FanOut, reg.Sampler, r, b.sc)
	ids = ids[:0]
	if items {
		for _, ex := range batch {
			ids = append(ids, ex.Item)
		}
	}
	for _, t := range b.trees {
		ids = t.AppendNodes(ids)
	}
	rs.Prefetch(ids, graph.ReadFeatures)
	b.ids = ids
}

// uqForward runs the model's request tower over request i's regions in b
// and the request-side MLP over its output.
func (c *Chassis) uqForward(t *ad.Tape, b *regions, i int) *ad.Node {
	hu, hq := c.spec.Tower(Pass{T: t, G: b.rs, fe: c.fe}, b.trees[2*i], b.trees[2*i+1])
	return c.towerUQ.Forward(t, t.ConcatCols(hu, hq))
}

// itemBase is the base item model of §V-B: feature embedding through the
// item tower, no graph attention (matching the online deployment).
func (c *Chassis) itemBase(t *ad.Tape, g GraphView, item graph.NodeID) *ad.Node {
	return c.towerItem.Forward(t, t.MeanRows(c.fe.featureMatrix(t, g, item)))
}

// batchLogits implements Model: per-example twin-tower cosine scores,
// scaled into logits, of a batch sampled into b.
func (c *Chassis) batchLogits(t *ad.Tape, b *regions, batch []Instance) *ad.Node {
	rows := t.Nodes(len(batch))
	for i, ex := range batch {
		uq := c.uqForward(t, b, i)
		it := c.itemBase(t, b.rs, ex.Item)
		rows[i] = t.Scale(c.cfg.LogitScale, t.CosineSim(uq, it))
	}
	return t.ConcatRows(rows...)
}

// Logits implements Model: the two halves, one after the other, on the
// chassis's own region buffer.
func (c *Chassis) Logits(t *ad.Tape, batch []Instance, r *rng.RNG) *ad.Node {
	c.sampleBatch(c.own, batch, r)
	return c.batchLogits(t, c.own, batch)
}

// UserQueryEmbedding implements Model (inference path: forward only).
func (c *Chassis) UserQueryEmbedding(u, q graph.NodeID, r *rng.RNG) tensor.Vec {
	c.sampleROIs(c.own, []Instance{{User: u, Query: q}}, false, r)
	return tensor.Copy(c.uqForward(ad.NewTape(), c.own, 0).Val.Row(0))
}

// ItemEmbedding implements Model.
func (c *Chassis) ItemEmbedding(item graph.NodeID, _ *rng.RNG) tensor.Vec {
	return tensor.Copy(c.itemBase(ad.NewTape(), c.g, item).Val.Row(0))
}
