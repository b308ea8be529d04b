package abtest

import (
	"math"
	"testing"

	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

func TestMetricsArithmetic(t *testing.T) {
	m := Metrics{Impressions: 1000, Clicks: 30, Revenue: 15}
	if math.Abs(m.CTR()-0.03) > 1e-12 {
		t.Fatalf("CTR = %v", m.CTR())
	}
	if math.Abs(m.PPC()-0.5) > 1e-12 {
		t.Fatalf("PPC = %v", m.PPC())
	}
	if math.Abs(m.RPM()-15) > 1e-12 {
		t.Fatalf("RPM = %v", m.RPM())
	}
	var zero Metrics
	if zero.CTR() != 0 || zero.PPC() != 0 || zero.RPM() != 0 {
		t.Fatal("zero metrics must not divide by zero")
	}
}

func TestTrafficFromLogs(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	traffic := TrafficFromLogs(logs, res.Mapping, 50)
	if len(traffic) != 50 {
		t.Fatalf("traffic size %d", len(traffic))
	}
	g := res.Graph
	for _, req := range traffic {
		if g.Type(req.User) != graph.User || g.Type(req.Query) != graph.Query {
			t.Fatal("traffic node types wrong")
		}
	}
	all := TrafficFromLogs(logs, res.Mapping, 0)
	if len(all) <= 50 {
		t.Fatal("uncapped traffic should exceed capped")
	}
}

// oracleChannel retrieves items by true content relevance; noiseChannel
// retrieves uniformly at random. The A/B harness must show the oracle
// lifting CTR and RPM over noise — the directional property the paper's
// Table IV rests on.
type oracleChannel struct {
	g     *graph.Graph
	items []graph.NodeID
}

func (o *oracleChannel) retrieve(u, q graph.NodeID, k int) []graph.NodeID {
	intent := tensor.Copy(o.g.Content(q))
	tensor.Axpy(0.5, o.g.Content(u), intent)
	type sc struct {
		id graph.NodeID
		s  float32
	}
	best := make([]sc, 0, k+1)
	for _, it := range o.items {
		s := tensor.Cosine(intent, o.g.Content(it))
		best = append(best, sc{it, s})
		for i := len(best) - 1; i > 0 && best[i].s > best[i-1].s; i-- {
			best[i], best[i-1] = best[i-1], best[i]
		}
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make([]graph.NodeID, len(best))
	for i, b := range best {
		out[i] = b.id
	}
	return out
}

type noiseChannel struct {
	items []graph.NodeID
	r     *rng.RNG
}

func (n *noiseChannel) retrieve(u, q graph.NodeID, k int) []graph.NodeID {
	out := make([]graph.NodeID, k)
	for i := range out {
		out[i] = n.items[n.r.Intn(len(n.items))]
	}
	return out
}

func TestRunShowsRelevanceLift(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 2))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	g := res.Graph
	items := g.NodesOfType(graph.Item)
	traffic := TrafficFromLogs(logs, res.Mapping, 150)

	control := &noiseChannel{items: items, r: rng.New(3)}
	treatment := &oracleChannel{g: g, items: items}
	out := RunArms(g, traffic, control, treatment, DefaultConfig())

	if out.Control.Impressions == 0 || out.Treatment.Impressions == 0 {
		t.Fatal("no impressions")
	}
	if out.CTRLift <= 0 {
		t.Fatalf("oracle channel shows no CTR lift: %+v", out)
	}
	if out.RPMLift <= 0 {
		t.Fatalf("oracle channel shows no RPM lift: %+v", out)
	}
}

// Identical channels must show near-zero lift (the null experiment).
func TestRunNullExperiment(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 4))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	g := res.Graph
	items := g.NodesOfType(graph.Item)
	traffic := TrafficFromLogs(logs, res.Mapping, 300)

	a := &oracleChannel{g: g, items: items}
	out := RunArms(g, traffic, a, a, DefaultConfig())
	if math.Abs(out.CTRLift) > 8 {
		t.Fatalf("null experiment shows %.1f%% CTR lift", out.CTRLift)
	}
}

func TestModelChannel(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 5))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	g := res.Graph
	items := g.NodesOfType(graph.Item)

	// An untrained model still exercises the full channel path.
	// (Training-quality comparisons live in the Table IV harness.)
	m := newTestModel(t, g, logs)
	ch := NewModelChannel(m, items, 6)
	out := ch.retrieve(g.NodesOfType(graph.User)[0], g.NodesOfType(graph.Query)[0], 10)
	if len(out) == 0 || len(out) > 10 {
		t.Fatalf("retrieved %d items", len(out))
	}
	for _, it := range out {
		if g.Type(it) != graph.Item {
			t.Fatal("retrieved non-item")
		}
	}
}
