package experiments

import (
	"fmt"
	"time"

	"zoomer/internal/abtest"
	"zoomer/internal/baselines"
	"zoomer/internal/core"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/serve"
	"zoomer/internal/servestack"
)

// Table4Result is the production A/B comparison: Zoomer channel vs
// PinSage channel.
type Table4Result struct {
	CTRLift, PPCLift, RPMLift float64 // percent
	Control, Treatment        abtest.Metrics
}

// String prints the lifts.
func (r Table4Result) String() string {
	return "Table IV: A/B test, Zoomer channel vs PinSage channel\n" +
		table([]string{"metric", "lift"},
			[][]string{
				{"CTR", fmt.Sprintf("%+.3f%%", r.CTRLift)},
				{"PPC", fmt.Sprintf("%+.3f%%", r.PPCLift)},
				{"RPM", fmt.Sprintf("%+.3f%%", r.RPMLift)},
			}) +
		fmt.Sprintf("control:   CTR %.4f PPC %.3f RPM %.2f\ntreatment: CTR %.4f PPC %.3f RPM %.2f\n",
			r.Control.CTR(), r.Control.PPC(), r.Control.RPM(),
			r.Treatment.CTR(), r.Treatment.PPC(), r.Treatment.RPM())
}

// Table4 trains Zoomer and PinSage, substitutes the PinSage retrieval
// channel with Zoomer as the paper's deployment does, and replays
// held-out traffic through both under the same click and pricing model.
func Table4(o Options) Table4Result {
	w := o.taobaoWorld(loggen.ScaleSmall)
	v := w.logs.Vocab()
	g := w.view

	zoomer := core.NewZoomer(g, v, o.modelConfig(), o.Seed+1)
	pinsage := baselines.NewPinSage(g, v, o.modelConfig(), o.Seed+2)
	tc := o.trainConfig()
	core.Train(zoomer, w.train, nil, tc) // no test split: the A/B replay judges the channels
	core.Train(pinsage, w.train, nil, tc)

	items := w.res.Mapping.NodesOfType(graph.Item)
	control := abtest.NewModelChannel(pinsage, items, o.Seed+3)
	treatment := abtest.NewModelChannel(zoomer, items, o.Seed+4)

	maxTraffic := 400
	if o.Quick {
		maxTraffic = 60
	}
	traffic := abtest.TrafficFromLogs(w.logs, w.res.Mapping, maxTraffic)
	res := abtest.RunArms(g, traffic, control, treatment, abtest.DefaultConfig())
	return Table4Result{
		CTRLift: res.CTRLift, PPCLift: res.PPCLift, RPMLift: res.RPMLift,
		Control: res.Control, Treatment: res.Treatment,
	}
}

// Fig9Row is one offered-load measurement.
type Fig9Row struct {
	QPS          float64
	MeanRTMillis float64
	P99RTMillis  float64
	Served       int64
}

// Fig9Result is the RT-vs-QPS sweep.
type Fig9Result struct{ Rows []Fig9Row }

// String prints the sweep.
func (r Fig9Result) String() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			fmt.Sprintf("%.0f", row.QPS),
			fmt.Sprintf("%.3f", row.MeanRTMillis),
			fmt.Sprintf("%.3f", row.P99RTMillis),
			fmt.Sprint(row.Served),
		}
	}
	return "Fig 9: online response time vs offered QPS\n" +
		table([]string{"QPS", "mean RT (ms)", "p99 RT (ms)", "served"}, rows)
}

// Fig9 reproduces the online serving measurement: the trimmed
// (edge-attention-only) model with k=30 neighbor caches and the two-layer
// inverted index, under an open-loop load sweep.
func Fig9(o Options) Fig9Result {
	w := o.taobaoWorld(loggen.ScaleSmall)
	v := w.logs.Vocab()

	model := core.NewZoomer(w.view, v, o.modelConfig(), o.Seed+1)
	// A short warm-up train so the exported weights are not random noise;
	// serving latency does not depend on weight values.
	tc := o.trainConfig()
	tc.MaxSteps = min(tc.MaxSteps, 100)
	core.Train(model, w.train, nil, tc)

	// The tier stands over the world's own engine (engine.DefaultConfig's
	// topology).
	st := servestack.Assemble(&servestack.Backend{Engine: w.eng}, serve.NewEmbedder(model.ExportServing()),
		w.res.Mapping.NodesOfType(graph.Item), serve.DefaultConfig(), o.Seed+2)
	defer st.Close()

	users := w.res.Mapping.NodesOfType(graph.User)
	queries := w.res.Mapping.NodesOfType(graph.Query)

	qpsPoints := []float64{1000, 2000, 5000, 10000, 20000, 50000}
	dur := 400 * time.Millisecond
	if o.Quick {
		qpsPoints = []float64{500, 2000}
		dur = 150 * time.Millisecond
	}
	// Warm the caches so steady-state latency is measured.
	st.Offer(users, queries, 500, 100*time.Millisecond, o.Seed+4)

	var out Fig9Result
	for i, qps := range qpsPoints {
		pt := st.Offer(users, queries, qps, dur, o.Seed+5+uint64(i))
		out.Rows = append(out.Rows, Fig9Row{
			QPS:          qps,
			MeanRTMillis: float64(pt.MeanRT.Microseconds()) / 1000,
			P99RTMillis:  float64(pt.P99.Microseconds()) / 1000,
			Served:       pt.Served,
		})
		o.logf("fig9 qps=%.0f meanRT=%.3fms", qps, float64(pt.MeanRT.Microseconds())/1000)
	}
	return out
}

// Fig13Result holds the interpretability heatmaps: edge-attention
// coupling coefficients for a fixed user across queries, and a fixed
// query across users.
type Fig13Result struct {
	// FixedUser[i][j]: weight of item j when the focal query is i.
	QueryLabels []string
	FixedUser   [][]float32
	// FixedQuery[i][j]: weight of item j when the focal user is i.
	UserLabels []string
	FixedQuery [][]float32
}

// String prints both heatmaps.
func (r Fig13Result) String() string {
	fmtRow := func(label string, ws []float32) []string {
		cells := []string{label}
		for _, w := range ws {
			cells = append(cells, fmt.Sprintf("%.3f", w))
		}
		return cells
	}
	nItems := 0
	if len(r.FixedUser) > 0 {
		nItems = len(r.FixedUser[0])
	}
	header := []string{"focal"}
	for j := 0; j < nItems; j++ {
		header = append(header, fmt.Sprintf("item%d", j))
	}
	var rows [][]string
	for i, ws := range r.FixedUser {
		rows = append(rows, fmtRow(r.QueryLabels[i], ws))
	}
	s := "Fig 13(a): coupling coefficients, fixed user x varying focal query\n" + table(header, rows)
	rows = rows[:0]
	for i, ws := range r.FixedQuery {
		rows = append(rows, fmtRow(r.UserLabels[i], ws))
	}
	return s + "\nFig 13(b): coupling coefficients, fixed query x varying focal user\n" + table(header, rows)
}

// Fig13 trains Zoomer briefly and dumps edge-attention weights for (a) a
// fixed user with rotating focal queries over that user's historical
// items, and (b) a fixed query with rotating focal users over the query's
// item neighbors — the paper's interpretability visualization.
func Fig13(o Options) Fig13Result {
	w := o.taobaoWorld(loggen.ScaleSmall)
	v := w.logs.Vocab()
	g := w.view
	model := core.NewZoomer(g, v, o.modelConfig(), o.Seed+1)
	tc := o.trainConfig()
	tc.MaxSteps = min(tc.MaxSteps, 200)
	core.Train(model, w.train, nil, tc) // the heatmaps read the weights, not an AUC

	nQueries, nUsers, nItems := 9, 8, 10
	if o.Quick {
		nQueries, nUsers, nItems = 3, 3, 4
	}

	// (a) Fixed user: the user's item history as columns, focal queries as
	// rows.
	users := w.res.Mapping.NodesOfType(graph.User)
	queries := w.res.Mapping.NodesOfType(graph.Query)
	itemsOf := func(id graph.NodeID, max int) []graph.NodeID {
		var out []graph.NodeID
		seen := map[graph.NodeID]bool{}
		var walk func(n graph.NodeID, depth int)
		walk = func(n graph.NodeID, depth int) {
			for _, e := range g.Neighbors(n) {
				if len(out) >= max {
					return
				}
				if g.Type(e.To) == graph.Item && !seen[e.To] {
					seen[e.To] = true
					out = append(out, e.To)
				} else if depth > 0 && g.Type(e.To) == graph.Query {
					walk(e.To, depth-1)
				}
			}
		}
		walk(id, 1)
		return out
	}
	var fixedUser graph.NodeID = -1
	var userItems []graph.NodeID
	for _, u := range users {
		if its := itemsOf(u, nItems); len(its) == nItems {
			fixedUser, userItems = u, its
			break
		}
	}
	var out Fig13Result
	if fixedUser >= 0 {
		for i := 0; i < nQueries && i < len(queries); i++ {
			q := queries[i]
			ws := model.EdgeAttentionWeights(fixedUser, fixedUser, q, userItems)
			out.FixedUser = append(out.FixedUser, ws)
			out.QueryLabels = append(out.QueryLabels, fmt.Sprintf("q%d", i))
		}
	}

	// (b) Fixed query ("handbag"): its item neighbors as columns, focal
	// users as rows.
	var fixedQuery graph.NodeID = -1
	var queryItems []graph.NodeID
	for _, q := range queries {
		if its := itemsOf(q, nItems); len(its) == nItems {
			fixedQuery, queryItems = q, its
			break
		}
	}
	if fixedQuery >= 0 {
		for i := 0; i < nUsers && i < len(users); i++ {
			u := users[i]
			ws := model.EdgeAttentionWeights(fixedQuery, u, fixedQuery, queryItems)
			out.FixedQuery = append(out.FixedQuery, ws)
			out.UserLabels = append(out.UserLabels, fmt.Sprintf("u%d", i))
		}
	}
	return out
}
