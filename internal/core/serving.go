package core

import (
	"zoomer/internal/graph"
	"zoomer/internal/tensor"
)

// ServingLayer is one dense layer exported for the tape-free online
// inference path (§VII-E): y = relu?(x·W + b).
type ServingLayer struct {
	W    *tensor.Matrix // in x out
	B    tensor.Vec
	ReLU bool
}

// ApplyInto computes the layer output into out (length l.W.Cols), which
// must not alias x. It performs no allocation — the serving hot path.
func (l ServingLayer) ApplyInto(x, out tensor.Vec) {
	tensor.MatVecT(l.W, x, out)
	tensor.Axpy(1, l.B, out)
	if l.ReLU {
		for i, v := range out {
			if v < 0 {
				out[i] = 0
			}
		}
	}
}

// MaxLayerWidth returns the widest output dimension across the given
// layers; sizing a ping/pong buffer pair to it lets ApplyMLPInto run any
// of the exported towers without allocating.
func MaxLayerWidth(layerSets ...[]ServingLayer) int {
	w := 0
	for _, layers := range layerSets {
		for _, l := range layers {
			if l.W.Cols > w {
				w = l.W.Cols
			}
		}
	}
	return w
}

// ApplyMLPInto chains exported layers through the caller's ping/pong
// buffers (each with capacity >= MaxLayerWidth of the chain) and returns
// a slice of one of them — zero allocations. x must alias neither buffer.
func ApplyMLPInto(layers []ServingLayer, x, ping, pong tensor.Vec) tensor.Vec {
	cur := x
	for i, l := range layers {
		buf := ping
		if i%2 == 1 {
			buf = pong
		}
		out := buf[:l.W.Cols]
		l.ApplyInto(cur, out)
		cur = out
	}
	return cur
}

// ServingWeights is the frozen model state the online module needs. Per
// §VII-E the deployment trims the model to edge-level attention only, so
// node base embeddings become focal-independent and can be precomputed:
// Base[id] is the mean of node id's feature latent vectors.
type ServingWeights struct {
	Dim        int
	LogitScale float32

	Base []tensor.Vec // per graph node

	AttnUser, AttnQuery tensor.Vec // edge-attention vectors (3d)

	MapUser, MapQuery ServingLayer // focal space mappings
	TowerUQ           []ServingLayer
	TowerItem         []ServingLayer
}

func exportLinear(w *tensor.Matrix, b tensor.Vec, relu bool) ServingLayer {
	return ServingLayer{W: w.Clone(), B: tensor.Copy(b), ReLU: relu}
}

// ExportServing freezes the trained model for online serving.
func (z *Zoomer) ExportServing() *ServingWeights {
	d := z.cfg.EmbedDim
	sw := &ServingWeights{
		Dim:        d,
		LogitScale: z.cfg.LogitScale,
		AttnUser:   tensor.Copy(z.attnUser.Val.Data),
		AttnQuery:  tensor.Copy(z.attnQuery.Val.Data),
		MapUser:    exportLinear(z.mapUser.W.Val, z.mapUser.B.Val.Data, false),
		MapQuery:   exportLinear(z.mapQuery.W.Val, z.mapQuery.B.Val.Data, false),
	}
	for i, l := range z.towerUQ.Layers {
		sw.TowerUQ = append(sw.TowerUQ, exportLinear(l.W.Val, l.B.Val.Data, i+1 < len(z.towerUQ.Layers)))
	}
	for i, l := range z.towerItem.Layers {
		sw.TowerItem = append(sw.TowerItem, exportLinear(l.W.Val, l.B.Val.Data, i+1 < len(z.towerItem.Layers)))
	}

	sw.Base = make([]tensor.Vec, z.g.NumNodes())
	for id := 0; id < z.g.NumNodes(); id++ {
		sw.Base[id] = z.baseEmbedding(graph.NodeID(id))
	}
	return sw
}

// baseEmbedding computes the mean of a node's feature latent vectors
// directly from the tables (no tape) — the serving-time static node
// embedding.
func (z *Zoomer) baseEmbedding(id graph.NodeID) tensor.Vec {
	slots, n := z.fe.slots(z.g, id)
	out := tensor.NewVec(z.fe.Dim)
	for _, sl := range slots[:n] {
		if !sl.Mean {
			tensor.Axpy(1, sl.Table.Row(int(sl.IDs[0])), out)
			continue
		}
		sum := tensor.NewVec(z.fe.Dim)
		for _, id := range sl.IDs {
			tensor.Axpy(1, sl.Table.Row(int(id)), sum)
		}
		tensor.Axpy(1/float32(len(sl.IDs)), sum, out)
	}
	tensor.Scale(1/float32(n), out)
	return out
}
