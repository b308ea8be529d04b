// Package abtest simulates the production A/B test of §VII-D: live
// traffic is split between a control retrieval channel (the paper's
// PinSage channel) and a treatment channel (Zoomer); a position-biased
// click model driven by ground-truth relevance generates clicks, and an
// ad-pricing model turns clicks into revenue. The reported metrics are
// the paper's: CTR, PPC and RPM, with treatment-over-control lifts.
//
// Absolute lifts are not comparable to the paper's (their traffic is
// real); what reproduces is the direction and ordering — a channel that
// retrieves more relevant items earns higher CTR and RPM under any
// reasonable click model.
package abtest

import (
	"math"

	"zoomer/internal/ann"
	"zoomer/internal/core"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
	"zoomer/internal/servestack"
	"zoomer/internal/tensor"
)

// Channel retrieves a ranked item list for a request.
type Channel interface {
	retrieve(u, q graph.NodeID, k int) []graph.NodeID
}

// ModelChannel serves retrieval from a trained model through an ANN
// index over its item embeddings. Like its RNG, its search scratch makes
// a channel single-goroutine.
type ModelChannel struct {
	model  core.Model
	index  *ann.Index
	r      *rng.RNG
	sc     *ann.SearchScratch
	nprobe int
}

// NewModelChannel indexes the model's item embeddings and returns a
// retrieval channel.
func NewModelChannel(m core.Model, items []graph.NodeID, seed uint64) *ModelChannel {
	r := rng.New(seed)
	ix := servestack.ItemIndex(items, func(it graph.NodeID) tensor.Vec { return m.ItemEmbedding(it, r) }, seed+1)
	return &ModelChannel{model: m, index: ix, r: r, sc: ix.NewSearchScratch(), nprobe: 4}
}

// retrieve implements Channel.
func (c *ModelChannel) retrieve(u, q graph.NodeID, k int) []graph.NodeID {
	uq := c.model.UserQueryEmbedding(u, q, c.r)
	res := c.index.SearchInto(uq, k, c.nprobe, c.sc)
	out := make([]graph.NodeID, len(res))
	for i, r := range res {
		out[i] = graph.NodeID(r.ID)
	}
	return out
}

// Request is one traffic event.
type Request struct {
	User, Query graph.NodeID
}

// TrafficFromLogs extracts (user, query) requests from session logs.
func TrafficFromLogs(l *loggen.Logs, m graphbuild.Mapping, max int) []Request {
	var out []Request
	for _, s := range l.Sessions {
		for _, ev := range s.Events {
			out = append(out, Request{User: m.UserNode(s.User), Query: m.QueryNode(ev.Query)})
			if max > 0 && len(out) >= max {
				return out
			}
		}
	}
	return out
}

// Metrics accumulates one channel's outcomes.
type Metrics struct {
	Impressions int
	Clicks      int
	Revenue     float64
}

// CTR is clicks per impression.
func (m Metrics) CTR() float64 {
	if m.Impressions == 0 {
		return 0
	}
	return float64(m.Clicks) / float64(m.Impressions)
}

// PPC is revenue per click (price per click).
func (m Metrics) PPC() float64 {
	if m.Clicks == 0 {
		return 0
	}
	return m.Revenue / float64(m.Clicks)
}

// RPM is revenue per mille impressions.
func (m Metrics) RPM() float64 {
	if m.Impressions == 0 {
		return 0
	}
	return m.Revenue / float64(m.Impressions) * 1000
}

// Config tunes the simulation.
type Config struct {
	ListSize  int // items shown per request
	Seed      uint64
	ClickBase float64 // relevance-to-click steepness
}

// DefaultConfig returns the harness settings.
func DefaultConfig() Config { return Config{ListSize: 10, Seed: 1, ClickBase: 6} }

// Result reports both channels and the paper's lift metrics.
type Result struct {
	Control, Treatment        Metrics
	CTRLift, PPCLift, RPMLift float64 // percent
}

// RunArms replays traffic through both arms under the same click and
// pricing models. Relevance ground truth comes from the generator's
// latent content vectors: rel = cos(user⊕query intent, item content).
// Click probability is position-biased (1/log2(pos+2)) and sigmoidal in
// relevance; ad prices are deterministic per item (hash-based), so the
// two arms face identical economics. g is the ground-truth view scoring
// relevance (monolithic graph or engine — identical reads).
func RunArms(g core.GraphView, traffic []Request, control, treatment Channel, cfg Config) Result {
	r := rng.New(cfg.Seed)
	price := func(item graph.NodeID) float64 {
		// Stable per-item price in [0.2, 1.2).
		x := uint64(item)*0x9e3779b97f4a7c15 + 0x1234
		x ^= x >> 33
		return 0.2 + float64(x%1000)/1000.0
	}
	relevance := func(u, q, item graph.NodeID) float64 {
		intent := tensor.Copy(g.Content(q)) // query carries the focal intent
		tensor.Axpy(0.5, g.Content(u), intent)
		return float64(tensor.Cosine(intent, g.Content(item)))
	}
	play := func(ch Channel, m *Metrics) {
		for _, req := range traffic {
			items := ch.retrieve(req.User, req.Query, cfg.ListSize)
			for pos, item := range items {
				m.Impressions++
				rel := relevance(req.User, req.Query, item)
				posBias := 1 / math.Log2(float64(pos)+2)
				p := posBias / (1 + math.Exp(-cfg.ClickBase*(rel-0.5)))
				if r.Float64() < p {
					m.Clicks++
					m.Revenue += price(item)
				}
			}
		}
	}
	var res Result
	play(control, &res.Control)
	play(treatment, &res.Treatment)
	lift := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		return (b - a) / a * 100
	}
	res.CTRLift = lift(res.Control.CTR(), res.Treatment.CTR())
	res.PPCLift = lift(res.Control.PPC(), res.Treatment.PPC())
	res.RPMLift = lift(res.Control.RPM(), res.Treatment.RPM())
	return res
}
