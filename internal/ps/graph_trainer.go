package ps

import (
	"fmt"
	"math"
	"time"

	"zoomer/internal/eval"
	"zoomer/internal/graph"
	"zoomer/internal/rng"
	"zoomer/internal/tensor"
)

// NeighborSource is the minimal graph surface the graph-coupled MF
// trainer samples through: the typed-error path of the distributed
// engine. Both a local sharded engine and a remote DialCluster engine
// satisfy it, and on failure the call returns a typed error without
// consuming the RNG — the property that makes a retried or restarted
// run bit-identical instead of silently training on corrupted draws.
type NeighborSource interface {
	TrySampleNeighborsIntoBy(id graph.NodeID, out []graph.NodeID, r *rng.RNG, deadline time.Time) (int, error)
}

// GraphMFExample is one CTR example in graph-node space for the
// graph-coupled distributed trainer.
type GraphMFExample struct {
	User, Item graph.NodeID
	Label      float32
}

// GraphMFConfig drives TrainMFGraph.
type GraphMFConfig struct {
	Dim    int
	Epochs int
	LR     float32
	// FanOut is the neighbor sample size blended into the user row.
	FanOut int
	// Blend weighs the sampled-neighbor mean against the user's own row
	// (the one-hop aggregation that couples MF training to the graph).
	Blend    float32
	Seed     uint64
	PSShards int
}

// GraphMFResult reports the run. Every field is deterministic for a
// fixed (examples, config, view) triple: the trainer runs one worker
// with synchronous flushes, so the cross-topology equivalence test can
// compare runs bit-for-bit.
type GraphMFResult struct {
	TrainAUC    float64
	EpochLosses []float64
	// UserRows/ItemRows are the final embedding rows of the first few
	// distinct users/items (id order), for bit-equality checks.
	UserRows, ItemRows map[graph.NodeID][]float32
	Metrics            Metrics
}

// TrainMFGraph trains a graph-coupled matrix-factorization model
// through the parameter server, sampling each user's neighborhood from
// src on every step: u_rep = u + Blend·mean(neighbor rows), BCE loss
// against sigmoid(u_rep·item). One worker, synchronous flushes — the
// deterministic analog of TrainMF that trains against the engine seam.
//
// A sampling failure (server death, zero healthy replicas) aborts the
// run with the engine's typed error; no partially-applied gradient from
// a corrupt read ever reaches the server.
func TrainMFGraph(src NeighborSource, examples []GraphMFExample, cfg GraphMFConfig) (GraphMFResult, error) {
	if cfg.Dim <= 0 {
		cfg.Dim = 16
	}
	if cfg.FanOut <= 0 {
		cfg.FanOut = 4
	}
	if cfg.Blend == 0 {
		cfg.Blend = 0.5
	}
	if cfg.PSShards <= 0 {
		cfg.PSShards = 4
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	srv := NewServer(Config{Shards: cfg.PSShards, Dim: cfg.Dim, QueueSize: 4096})
	defer srv.Close()

	// Initialize a row for every node mentioned; neighbor rows are
	// initialized lazily on first contact so the id universe stays small.
	var res GraphMFResult
	seen := map[Key]bool{}
	r := rng.New(cfg.Seed)
	initRow := func(k Key) {
		if seen[k] {
			return
		}
		seen[k] = true
		v := make([]float32, cfg.Dim)
		for i := range v {
			v[i] = (r.Float32()*2 - 1) * 0.1
		}
		srv.Init(k, v)
	}
	for _, ex := range examples {
		initRow(Key{"node", int32(ex.User)})
		initRow(Key{"node", int32(ex.Item)})
	}

	sampleRNG := rng.New(cfg.Seed + 1)
	nbrBuf := make([]graph.NodeID, cfg.FanOut)
	uRep := make([]float32, cfg.Dim)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochLoss float64
		for i, ex := range examples {
			// Sample the user's neighborhood through the engine seam. On a
			// transport failure the RNG was not consumed and nothing was
			// pushed — the typed error aborts the run cleanly.
			n, err := src.TrySampleNeighborsIntoBy(ex.User, nbrBuf, sampleRNG, time.Time{})
			if err != nil {
				return res, fmt.Errorf("ps: sample neighbors of node %d (epoch %d, example %d): %w", ex.User, epoch, i, err)
			}
			nbrs := nbrBuf[:n]
			keys := make([]Key, 0, 2+n)
			keys = append(keys, Key{"node", int32(ex.User)}, Key{"node", int32(ex.Item)})
			for _, nb := range nbrs {
				initRow(Key{"node", int32(nb)})
				keys = append(keys, Key{"node", int32(nb)})
			}
			rows := srv.Pull(keys)
			u, it := rows[0], rows[1]

			copy(uRep, u)
			if n > 0 {
				inv := cfg.Blend / float32(n)
				for _, nb := range rows[2:] {
					for j := 0; j < cfg.Dim; j++ {
						uRep[j] += inv * nb[j]
					}
				}
			}
			p := tensor.Sigmoid(tensor.Dot(uRep, it))
			g := p - ex.Label // dBCE/dlogit
			epochLoss += bceLoss(p, ex.Label)

			ups := make([]Update, 0, 2+n)
			du := make([]float32, cfg.Dim)
			di := make([]float32, cfg.Dim)
			for j := 0; j < cfg.Dim; j++ {
				du[j] = -cfg.LR * g * it[j]
				di[j] = -cfg.LR * g * uRep[j]
			}
			ups = append(ups, Update{Key{"node", int32(ex.User)}, du}, Update{Key{"node", int32(ex.Item)}, di})
			if n > 0 {
				inv := cfg.Blend / float32(n)
				for k := range nbrs {
					dn := make([]float32, cfg.Dim)
					for j := 0; j < cfg.Dim; j++ {
						dn[j] = -cfg.LR * g * inv * it[j]
					}
					ups = append(ups, Update{keys[2+k], dn})
				}
			}
			srv.Push(ups)
			srv.Flush() // synchronous: deterministic apply order
		}
		res.EpochLosses = append(res.EpochLosses, epochLoss/float64(len(examples)))
	}

	// Final evaluation and row export (first few distinct ids, id order).
	scores := make([]float64, len(examples))
	labels := make([]bool, len(examples))
	res.UserRows = map[graph.NodeID][]float32{}
	res.ItemRows = map[graph.NodeID][]float32{}
	for i, ex := range examples {
		rows := srv.Pull([]Key{{"node", int32(ex.User)}, {"node", int32(ex.Item)}})
		scores[i] = float64(tensor.Dot(rows[0], rows[1]))
		labels[i] = ex.Label > 0.5
		if len(res.UserRows) < 8 {
			res.UserRows[ex.User] = append([]float32(nil), rows[0]...)
		}
		if len(res.ItemRows) < 8 {
			res.ItemRows[ex.Item] = append([]float32(nil), rows[1]...)
		}
	}
	res.TrainAUC = eval.AUC(scores, labels)
	res.Metrics = srv.Metrics()
	return res, nil
}

// bceLoss is the binary cross-entropy of probability p against label y,
// clamped away from log(0).
func bceLoss(p, y float32) float64 {
	const eps = 1e-7
	q := float64(p)
	if q < eps {
		q = eps
	}
	if q > 1-eps {
		q = 1 - eps
	}
	if y > 0.5 {
		return -math.Log(q)
	}
	return -math.Log(1 - q)
}
