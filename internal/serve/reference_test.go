package serve

import (
	"math"
	"testing"

	"zoomer/internal/ad"
	"zoomer/internal/core"
	"zoomer/internal/graph"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// referenceUserQuery is the trimmed request tower of §VII-E written once
// more, from ad tape ops over the exported weights and sharing nothing
// with aggregateInto's fused kernels:
//   - the focal vector C = MapUser(z_u) + MapQuery(z_q);
//   - per side, h = z_f + Σ_j α_j z_j over the neighbour set, with
//     α = softmax_j LeakyReLU_0.2(a·[z_f ‖ z_j ‖ C]); h = z_f when the
//     set is empty;
//   - the TowerUQ MLP over [h_u ‖ h_q].
func referenceUserQuery(sw *core.ServingWeights, u, q graph.NodeID, nbrsU, nbrsQ []graph.NodeID) tensor.Vec {
	t := ad.NewTape()
	row := func(v tensor.Vec) *ad.Node { return t.Const(&tensor.Matrix{Rows: 1, Cols: len(v), Data: v}) }
	layer := func(x *ad.Node, l core.ServingLayer) *ad.Node {
		y := t.AddBias(t.MatMul(x, t.Const(l.W)), row(l.B))
		if l.ReLU {
			y = t.ReLU(y)
		}
		return y
	}
	c := t.Add(layer(row(sw.Base[u]), sw.MapUser), layer(row(sw.Base[q]), sw.MapQuery))
	side := func(ego graph.NodeID, nbrs []graph.NodeID, attn tensor.Vec) *ad.Node {
		zf := row(sw.Base[ego])
		if len(nbrs) == 0 {
			return zf
		}
		a := t.Const(&tensor.Matrix{Rows: len(attn), Cols: 1, Data: attn})
		zs, scores := make([]*ad.Node, len(nbrs)), make([]*ad.Node, len(nbrs))
		for j, nb := range nbrs {
			zs[j] = row(sw.Base[nb])
			scores[j] = t.MatMul(t.ConcatCols(zf, zs[j], c), a)
		}
		alpha := t.SoftmaxRows(t.LeakyReLU(0.2, t.ConcatCols(scores...)))
		return t.Add(zf, t.MatMul(alpha, t.ConcatRows(zs...)))
	}
	x := t.ConcatCols(side(u, nbrsU, sw.AttnUser), side(q, nbrsQ, sw.AttnQuery))
	for _, l := range sw.TowerUQ {
		x = layer(x, l)
	}
	return x.Val.Data
}

// UserQuery equals referenceUserQuery within 1e-5 (relative above 1)
// over 1 200 (user, query, neighbour set) triples, among them empty
// sets, duplicate neighbours and nodes that are their own neighbour. The
// biases are randomized first (the harness exports them at their zero
// init), so a dropped bias shows too. The test runs under AVX2 dispatch
// and, in the -tags purego leg, under the generic kernels.
func TestServingUserQueryMatchesReference(t *testing.T) {
	h := buildHarness(t)
	sw := h.emb.sw
	r := rng.New(47)
	for _, l := range append([]core.ServingLayer{sw.MapUser, sw.MapQuery}, sw.TowerUQ...) {
		for i := range l.B {
			l.B[i] = 0.1 * float32(r.NormFloat64())
		}
	}
	n := len(sw.Base)
	// neighbours draws a set for ego of the kind kind%4 names: empty;
	// ego itself twice plus random nodes; random nodes with the first
	// repeated; random nodes only.
	neighbours := func(ego graph.NodeID, kind int) []graph.NodeID {
		var s []graph.NodeID
		switch kind % 4 {
		case 0:
			return nil
		case 1:
			s = append(s, ego, ego)
		}
		for range 1 + r.Intn(12) {
			s = append(s, graph.NodeID(r.Intn(n)))
		}
		if kind%4 == 2 {
			s = append(s, s[0], s[0])
		}
		return s
	}
	sc := h.emb.NewScratch()
	worst := 0.0
	for i := range 1200 {
		u, q := h.users[r.Intn(len(h.users))], h.queries[r.Intn(len(h.queries))]
		nu, nq := neighbours(u, i), neighbours(q, i/4)
		got := h.emb.UserQuery(u, q, nu, nq, sc)
		want := referenceUserQuery(sw, u, q, nu, nq)
		if len(got) != len(want) {
			t.Fatalf("triple %d: dim %d, reference %d", i, len(got), len(want))
		}
		for j := range want {
			diff := math.Abs(float64(got[j]-want[j])) / math.Max(1, math.Abs(float64(want[j])))
			worst = math.Max(worst, diff)
			if !(diff <= 1e-5) {
				t.Fatalf("triple %d (user %d |%d nbrs|, query %d |%d nbrs|) dim %d: UserQuery %v, reference %v",
					i, u, len(nu), q, len(nq), j, got[j], want[j])
			}
		}
	}
	t.Logf("largest difference %.2g", worst)
}
