package core

import (
	"zoomer/internal/ad"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/nn"
	"zoomer/internal/rng"
	"zoomer/internal/sampling"
	"zoomer/internal/tensor"
)

// GraphView is the read surface every model trains and serves against:
// the sampling view (neighbors + content) plus the feature/type
// accessors the feature embedder needs. Both *graph.Graph and the
// engine-backed EngineView satisfy it, so the same model runs unchanged
// over the monolithic graph, a local sharded engine, or a remote
// cluster dialed over RPC.
type GraphView interface {
	sampling.GraphView
	// Features returns the node's categorical feature ids (Table I layout).
	Features(id graph.NodeID) []int32
	// Type returns the node's type.
	Type(id graph.NodeID) graph.NodeType
}

// EngineView adapts an engine (local sharded or remote cluster) into a
// GraphView. The engine serves neighbors, content and features; node
// types are derived arithmetically from the graphbuild id layout, since
// partition shards carry no type column.
type EngineView struct {
	*engine.Engine
	M graphbuild.Mapping
}

// Type implements GraphView via the mapping's id-range arithmetic.
func (v EngineView) Type(id graph.NodeID) graph.NodeType { return v.M.Type(id) }

// Instance is one CTR example in graph-node space.
type Instance struct {
	User, Query, Item graph.NodeID
	Label             float32
}

// InstancesFromExamples converts world-local examples to graph instances.
func InstancesFromExamples(examples []loggen.Example, m graphbuild.Mapping) []Instance {
	out := make([]Instance, len(examples))
	for i, e := range examples {
		out[i] = Instance{
			User:  m.UserNode(e.User),
			Query: m.QueryNode(e.Query),
			Item:  m.ItemNode(e.Item),
			Label: e.Label,
		}
	}
	return out
}

// World is what a (loggen.Config, seed) names: the generated logs and
// the graph built from them under graphbuild.DefaultConfig. Every
// process of a deployment — shard servers, trainers, the serving tier —
// holds the same World by calling BuildWorld with the same cfg, so
// anything that decides "which graph is this" belongs here.
type World struct {
	Logs *loggen.Logs
	*graphbuild.Result
}

// BuildWorld generates cfg's logs and builds their graph. It panics on
// an invalid cfg, as loggen.MustGenerate does.
func BuildWorld(cfg loggen.Config) *World {
	logs := loggen.MustGenerate(cfg)
	return &World{Logs: logs, Result: graphbuild.Build(logs, graphbuild.DefaultConfig())}
}

// Instances draws the world's labeled train/test instances: negPerPos
// negatives per click, a fifth of the user-query pairs held out. The
// seed is a parameter because the binaries and the experiments harness
// have always drawn their negatives from different streams.
func (w *World) Instances(negPerPos int, seed uint64) (train, test []Instance) {
	ds := loggen.BuildExamples(w.Logs, negPerPos, 0.2, seed)
	return InstancesFromExamples(ds.Train, w.Mapping), InstancesFromExamples(ds.Test, w.Mapping)
}

// Model is the contract shared by Zoomer and every baseline: batched logit
// computation for training, parameter/table enumeration for optimizers,
// and embedding export for retrieval (hit-rate and ANN serving). Every
// Model in this repository is a Chassis.
//
// A batch's forward pass is two halves, and Train drives them through
// the Model it is given: sampleBatch builds the batch's regions into a
// region buffer, batchLogits embeds them. Train samples the next batch
// on a second goroutine while the current one is embedded, so the view
// a model reads must be safe for concurrent reads (*graph.Graph and
// EngineView are): a tower that reads past its prefetched regions —
// STAMP's click history — reads the view while the next batch's
// sampling does. Every other method is used by one goroutine at a time.
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// Logits returns an n x 1 node of match logits for the batch. The RNG
	// drives any sampling inside the forward pass.
	Logits(t *ad.Tape, batch []Instance, r *rng.RNG) *ad.Node
	// DenseParams returns the dense trainable parameters.
	DenseParams() []*nn.Param
	// Tables returns the sparse embedding tables.
	Tables() []*nn.EmbeddingTable
	// UserQueryEmbedding returns the request-side tower output for (u, q).
	UserQueryEmbedding(u, q graph.NodeID, r *rng.RNG) tensor.Vec
	// ItemEmbedding returns the item-side tower output.
	ItemEmbedding(item graph.NodeID, r *rng.RNG) tensor.Vec

	// newRegions returns an empty region buffer over the model's view.
	newRegions() *regions
	// sampleBatch samples batch's regions into b with r, reading every
	// graph attribute batchLogits will need. It touches nothing but b,
	// r and the view.
	sampleBatch(b *regions, batch []Instance, r *rng.RNG)
	// batchLogits returns the n x 1 logits of batch, whose regions b
	// holds. It reads no RNG.
	batchLogits(t *ad.Tape, b *regions, batch []Instance) *ad.Node
}
