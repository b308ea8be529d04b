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
// A chassis is used by one goroutine at a time: its sampling scratch and
// its read set are shared by every pass (the walk samplers' visit
// counters are only cheap reused, and the read set's node table is as
// large as the graph).
type Chassis struct {
	spec               Spec
	cfg                Config
	g                  GraphView
	fe                 *FeatureEmbedder
	towerUQ, towerItem *nn.MLP
	sc                 *sampling.Scratch
	rs                 *sampling.ReadSet
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
		sc:        sampling.NewScratch(),
		rs:        sampling.NewReadSet(g, g.Type),
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
func (c *Chassis) Tables() []*nn.EmbeddingTable { return c.fe.Tables() }

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

// roi is one request's pair of sampled regions.
type roi struct{ user, query *sampling.Tree }

// readSet returns the chassis's read set emptied for a new forward pass:
// a GraphView over the bound view that fetches each attribute of each
// node at most once and takes the reads the pass can foresee in bulk.
// Every Logits or embedding call starts with it — the graph may change
// between passes, never inside one.
func (c *Chassis) readSet() *sampling.ReadSet {
	c.rs.Reset()
	return c.rs
}

// sampleROIs is the one region-construction path of every model, in
// training and inference, over every kind of view. All graph reads of
// the pass go through rs: the focal points' adjacency (and content, for
// a focal-biased region) arrive in one bulk read, the region trees are
// built request by request in the order — and so with the RNG stream —
// they always were (BuildTree reads one level ahead of its depth-first
// walk), and the features of every node the embedding will touch — the
// trees' nodes plus extra, the batch's items — arrive in one last bulk
// read. What follows runs on slice lookups. The trees live in the
// chassis's scratch until the next pass.
func (c *Chassis) sampleROIs(rs *sampling.ReadSet, batch []Instance, extra []graph.NodeID, r *rng.RNG) []roi {
	reg := c.spec.Region
	c.sc.Reset()
	ids := make([]graph.NodeID, 0, 3*len(batch))
	for _, ex := range batch {
		ids = append(ids, ex.User, ex.Query)
	}
	fields := graph.ReadNeighbors
	if reg.Focal {
		fields |= graph.ReadContent
	}
	rs.Prefetch(ids, fields)
	if reg.Hops > 0 {
		rs.Expand(ids, reg.Sampler.NeighborReads())
	}
	rois := make([]roi, len(batch))
	for i, ex := range batch {
		var fc tensor.Vec
		if reg.Focal {
			fc = samplingFocal(rs, ex.User, ex.Query)
		}
		rois[i].user = sampling.BuildTree(rs, ex.User, fc, reg.Hops, reg.FanOut, reg.Sampler, r, c.sc)
		rois[i].query = sampling.BuildTree(rs, ex.Query, fc, reg.Hops, reg.FanOut, reg.Sampler, r, c.sc)
	}
	ids = append(ids[:0], extra...)
	for _, roi := range rois {
		ids = roi.query.AppendNodes(roi.user.AppendNodes(ids))
	}
	rs.Prefetch(ids, graph.ReadFeatures)
	return rois
}

// uqForward runs the model's request tower over one request's regions
// and the request-side MLP over its output.
func (c *Chassis) uqForward(t *ad.Tape, g GraphView, roi roi) *ad.Node {
	hu, hq := c.spec.Tower(Pass{T: t, G: g, fe: c.fe}, roi.user, roi.query)
	return c.towerUQ.Forward(t, t.ConcatCols(hu, hq))
}

// itemBase is the base item model of §V-B: feature embedding through the
// item tower, no graph attention (matching the online deployment).
func (c *Chassis) itemBase(t *ad.Tape, g GraphView, item graph.NodeID) *ad.Node {
	return c.towerItem.Forward(t, t.MeanRows(c.fe.featureMatrix(t, g, item)))
}

// Logits implements Model: per-example twin-tower cosine scores scaled
// into logits. The batch's regions are sampled first, through the read
// set emptied for this call, then embedded.
func (c *Chassis) Logits(t *ad.Tape, batch []Instance, r *rng.RNG) *ad.Node {
	rs := c.readSet()
	items := make([]graph.NodeID, len(batch))
	for i, ex := range batch {
		items[i] = ex.Item
	}
	rois := c.sampleROIs(rs, batch, items, r)
	rows := t.Nodes(len(batch))
	for i, ex := range batch {
		uq := c.uqForward(t, rs, rois[i])
		it := c.itemBase(t, rs, ex.Item)
		rows[i] = t.Scale(c.cfg.LogitScale, t.CosineSim(uq, it))
	}
	return t.ConcatRows(rows...)
}

// UserQueryEmbedding implements Model (inference path: forward only).
func (c *Chassis) UserQueryEmbedding(u, q graph.NodeID, r *rng.RNG) tensor.Vec {
	rs := c.readSet()
	rois := c.sampleROIs(rs, []Instance{{User: u, Query: q}}, nil, r)
	return tensor.Copy(c.uqForward(ad.NewTape(), rs, rois[0]).Val.Row(0))
}

// ItemEmbedding implements Model.
func (c *Chassis) ItemEmbedding(item graph.NodeID, _ *rng.RNG) tensor.Vec {
	return tensor.Copy(c.itemBase(ad.NewTape(), c.g, item).Val.Row(0))
}
