package experiments

import (
	"errors"
	"net"
	"testing"

	"zoomer/internal/ad"
	"zoomer/internal/baselines"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/eval"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/rpc"
	"zoomer/internal/sampling"
	"zoomer/internal/tensor"
)

// trainTrace is everything a training run produces that the suite pins
// bit-for-bit: the per-step loss trace, per-epoch losses, final
// AUC/MAE/RMSE, retrieval hit-rates, and raw embedding draws.
type trainTrace struct {
	stepLosses  []float64
	epochLosses []float64
	auc         float64
	mae, rmse   float64
	hitRates    map[int]float64
	uqEmb       tensor.Vec
	itemEmb     tensor.Vec
}

// topology is one named GraphView over the shared world.
type topology struct {
	name string
	view core.GraphView
}

// equivalenceTopologies builds the full cross-topology matrix over one
// tiny world: the monolithic graph, local sharded engines across
// shard counts / strategies / locality, and a 2-server loopback-RPC
// remote engine. The returned cleanup closes every engine and server.
func equivalenceTopologies(t testing.TB) (*world, []topology, func()) {
	t.Helper()
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	res := buildWorldFromLogs(logs, 1)
	var closers []func()

	topos := []topology{{name: "graph", view: res.res.Graph}}
	add := func(name string, cfg engine.Config) {
		eng := engine.New(res.res.Graph, cfg)
		topos = append(topos, topology{name: name, view: core.EngineView{Engine: eng, M: res.res.Mapping}})
	}
	add("hash-1", engine.Config{Shards: 1, Strategy: partition.Hash, Locality: false})
	add("hash-2", engine.Config{Shards: 2, Strategy: partition.Hash, Locality: false})
	add("hash-4-locality", engine.Config{Shards: 4, Strategy: partition.Hash, Locality: true})
	add("degree-2", engine.Config{Shards: 2, Strategy: partition.DegreeBalanced, Locality: false})
	add("degree-4-locality", engine.Config{Shards: 4, Strategy: partition.DegreeBalanced, Locality: true})

	// Loopback remote: four hash shards behind two TCP servers.
	servers, cluster := loopbackCluster(t, res.res.Graph, remoteLayout, true)
	for _, srv := range servers {
		closers = append(closers, func() { srv.Close() })
	}
	closers = append(closers, func() { cluster.Close() })
	topos = append(topos, topology{name: "remote-2servers", view: core.EngineView{Engine: cluster.Engine, M: res.res.Mapping}})

	cleanup := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	return res, topos, cleanup
}

// remoteLayout is the loopback cluster's shard placement: four hash
// shards, two per server.
var remoteLayout = [][]int{{0, 2}, {1, 3}}

// loopbackCluster starts one TCP server per layout entry, each owning
// its entry's shards of a 4-way hash partition of g, and dials a cluster
// over them. The caller closes the servers and the cluster.
func loopbackCluster(t testing.TB, g *graph.Graph, layout [][]int, locality bool) ([]*rpc.Server, *rpc.Cluster) {
	t.Helper()
	servers := make([]*rpc.Server, len(layout))
	addrs := make([]string, len(layout))
	for i, owned := range layout {
		servers[i] = rpc.NewServer(g, rpc.ServerConfig{
			Shards: 4, Strategy: partition.Hash, Owned: owned, Locality: locality,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		servers[i].Start(ln)
		addrs[i] = ln.Addr().String()
	}
	cluster, err := rpc.DialClusterWith(rpc.ClientConfig{}, addrs...)
	if err != nil {
		t.Fatalf("dial cluster: %v", err)
	}
	return servers, cluster
}

// buildWorldFromLogs mirrors buildWorld without constructing an engine
// (the suite builds its own topologies).
func buildWorldFromLogs(logs *loggen.Logs, negPerPos int) *world {
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	ds := loggen.BuildExamples(logs, negPerPos, 0.25, 101)
	return &world{
		logs:  logs,
		res:   res,
		train: core.InstancesFromExamples(ds.Train, res.Mapping),
		test:  core.InstancesFromExamples(ds.Test, res.Mapping),
	}
}

// equivModelCtor builds a named model over a view with a fixed seed, so
// every topology starts from bit-identical weights.
func equivModelCtor(name string, g core.GraphView, v loggen.Vocab) core.Model {
	cfg := core.DefaultConfig()
	cfg.EmbedDim, cfg.OutDim = 16, 16
	cfg.Hops, cfg.FanOut = 1, 4
	switch name {
	case "zoomer":
		return core.NewZoomer(g, v, cfg, 31)
	case "graphsage":
		return baselines.NewGraphSAGE(g, v, cfg, 32)
	case "pinsage":
		return baselines.NewPinSage(g, v, cfg, 33)
	case "pinnersage":
		return baselines.NewPinnerSage(g, v, cfg, 34)
	case "pixie":
		return baselines.NewPixie(g, v, cfg, 35)
	case "han":
		return baselines.NewHAN(g, v, cfg, 36)
	case "gce-gnn":
		return baselines.NewGCEGNN(g, v, cfg, 37)
	case "fgnn":
		return baselines.NewFGNN(g, v, cfg, 38)
	case "stamp":
		return baselines.NewSTAMP(g, v, cfg, 39)
	case "mccf":
		return baselines.NewMCCF(g, v, cfg, 40)
	}
	panic("unknown model " + name)
}

// runTrainingTrace trains a fresh model of the given kind over view g
// and captures the full pinned trace.
func runTrainingTrace(w *world, name string, g core.GraphView, v loggen.Vocab, mp graphbuild.Mapping) trainTrace {
	m := equivModelCtor(name, g, v)
	tc := core.DefaultTrainConfig()
	tc.Seed = 71
	tc.Epochs, tc.MaxSteps, tc.BatchSize = 2, 30, 8
	var tr trainTrace
	tc.OnStep = func(step int, loss float64) { tr.stepLosses = append(tr.stepLosses, loss) }
	res := core.Train(m, w.train, w.test, tc)
	tr.epochLosses = res.EpochLosses
	tr.auc = res.TestAUC

	// Post-training predictions on the test split -> MAE/RMSE.
	r := rng.New(72)
	var pred, target []float64
	for lo := 0; lo < len(w.test); lo += 16 {
		hi := min(lo+16, len(w.test))
		t := ad.NewTape()
		logits := m.Logits(t, w.test[lo:hi], r)
		for i, ex := range w.test[lo:hi] {
			pred = append(pred, float64(tensor.Sigmoid(logits.Val.Data[i])))
			target = append(target, float64(ex.Label))
		}
	}
	tr.mae = eval.MAE(pred, target)
	tr.rmse = eval.RMSE(pred, target)

	// Retrieval draws: hit-rate over all items plus raw embedding bits.
	items := mp.NodesOfType(graph.Item)
	tr.hitRates = core.HitRateAtKs(m, w.test, items, []int{5, 20}, 10, 73)
	er := rng.New(74)
	ex := w.test[0]
	tr.uqEmb = m.UserQueryEmbedding(ex.User, ex.Query, er)
	tr.itemEmb = m.ItemEmbedding(ex.Item, er)
	return tr
}

// requireTraceEqual asserts two traces match bit-for-bit.
func requireTraceEqual(t *testing.T, model, topo string, want, got trainTrace) {
	t.Helper()
	if len(want.stepLosses) != len(got.stepLosses) {
		t.Fatalf("%s/%s: %d steps != %d", model, topo, len(got.stepLosses), len(want.stepLosses))
	}
	for i := range want.stepLosses {
		if want.stepLosses[i] != got.stepLosses[i] {
			t.Fatalf("%s/%s: step %d loss %v != %v", model, topo, i, got.stepLosses[i], want.stepLosses[i])
		}
	}
	if len(want.epochLosses) != len(got.epochLosses) {
		t.Fatalf("%s/%s: epoch count mismatch", model, topo)
	}
	for i := range want.epochLosses {
		if want.epochLosses[i] != got.epochLosses[i] {
			t.Fatalf("%s/%s: epoch %d loss %v != %v", model, topo, i, got.epochLosses[i], want.epochLosses[i])
		}
	}
	if want.auc != got.auc {
		t.Fatalf("%s/%s: AUC %v != %v", model, topo, got.auc, want.auc)
	}
	if want.mae != got.mae || want.rmse != got.rmse {
		t.Fatalf("%s/%s: MAE/RMSE (%v,%v) != (%v,%v)", model, topo, got.mae, got.rmse, want.mae, want.rmse)
	}
	for k, v := range want.hitRates {
		if got.hitRates[k] != v {
			t.Fatalf("%s/%s: HR@%d %v != %v", model, topo, k, got.hitRates[k], v)
		}
	}
	for i := range want.uqEmb {
		if want.uqEmb[i] != got.uqEmb[i] {
			t.Fatalf("%s/%s: uq embedding dim %d differs", model, topo, i)
		}
	}
	for i := range want.itemEmb {
		if want.itemEmb[i] != got.itemEmb[i] {
			t.Fatalf("%s/%s: item embedding dim %d differs", model, topo, i)
		}
	}
}

// TestTrainingEquivalenceAcrossTopologies is the PR's headline harness:
// full training runs — ad.Tape gradients, per-step and per-epoch loss
// traces, final AUC/MAE/RMSE, retrieval hit-rates and raw embedding
// draws — are bit-identical whether the model samples from the
// monolithic graph, local sharded engines (hash and degree-balanced,
// 1/2/4 shards, locality on and off), or a 2-server loopback-RPC
// remote engine. Zoomer plus one representative of each baseline
// family trains end to end; TestForwardEquivalenceAllModels covers the
// remaining constructors' forward passes.
func TestTrainingEquivalenceAcrossTopologies(t *testing.T) {
	w, topos, cleanup := equivalenceTopologies(t)
	defer cleanup()
	v := w.logs.Vocab()
	mp := w.res.Mapping

	models := []string{"zoomer", "graphsage", "han", "stamp"}
	for _, model := range models {
		want := runTrainingTrace(w, model, topos[0].view, v, mp)
		if len(want.stepLosses) == 0 {
			t.Fatalf("%s: empty training trace", model)
		}
		for _, topo := range topos[1:] {
			got := runTrainingTrace(w, model, topo.view, v, mp)
			requireTraceEqual(t, model, topo.name, want, got)
		}
	}
}

// TestForwardEquivalenceAllModels pins the forward pass of every model
// constructor across the topology matrix: training-batch logits and
// request/item embeddings must be bit-identical to the monolithic
// graph's. This is the cheap full-coverage companion of the training
// suite above.
func TestForwardEquivalenceAllModels(t *testing.T) {
	w, topos, cleanup := equivalenceTopologies(t)
	defer cleanup()
	v := w.logs.Vocab()

	models := []string{"zoomer", "graphsage", "pinsage", "pinnersage", "pixie", "han", "gce-gnn", "fgnn", "stamp", "mccf"}
	batch := w.train[:min(8, len(w.train))]
	for _, model := range models {
		var want []float32
		var wantEmb tensor.Vec
		for i, topo := range topos {
			m := equivModelCtor(model, topo.view, v)
			tp := ad.NewTape()
			logits := m.Logits(tp, batch, rng.New(55))
			emb := m.UserQueryEmbedding(batch[0].User, batch[0].Query, rng.New(56))
			if i == 0 {
				want = append([]float32(nil), logits.Val.Data...)
				wantEmb = emb
				continue
			}
			for j := range want {
				if logits.Val.Data[j] != want[j] {
					t.Fatalf("%s/%s: logit %d %v != %v", model, topo.name, j, logits.Val.Data[j], want[j])
				}
			}
			for j := range wantEmb {
				if emb[j] != wantEmb[j] {
					t.Fatalf("%s/%s: embedding dim %d differs", model, topo.name, j)
				}
			}
		}
	}
}

// TestSamplerEquivalenceAcrossTopologies pins the read-set path for every
// sampler — the RNG-consuming ones included — at three hops: the loss
// trace and the exported embedding of a Zoomer trained over the sharded
// and the remote view are bit-identical to the monolithic graph's. (The
// graph leg is itself pinned against the per-node read order by
// core's TestStepViewMatchesPerNodeReads.)
func TestSamplerEquivalenceAcrossTopologies(t *testing.T) {
	w, topos, cleanup := equivalenceTopologies(t)
	defer cleanup()
	samplers := []sampling.Sampler{
		sampling.NewFocalBiased(), sampling.Uniform{}, sampling.Weighted{},
		sampling.NewImportanceWalk(), sampling.NewBiasedWalk(), sampling.NewClusterImportance(),
	}
	run := func(s sampling.Sampler, g core.GraphView) (losses []float64, emb tensor.Vec) {
		cfg := core.DefaultConfig()
		cfg.EmbedDim, cfg.OutDim, cfg.Hops, cfg.FanOut, cfg.Sampler = 16, 16, 3, 3, s
		m := core.NewZoomer(g, w.logs.Vocab(), cfg, 31)
		tc := core.DefaultTrainConfig()
		tc.Seed, tc.Epochs, tc.MaxSteps, tc.BatchSize = 71, 1, 5, 8
		tc.OnStep = func(_ int, loss float64) { losses = append(losses, loss) }
		core.Train(m, w.train, nil, tc)
		return losses, m.UserQueryEmbedding(w.test[0].User, w.test[0].Query, rng.New(74))
	}
	for _, s := range samplers {
		wantLoss, wantEmb := run(s, topos[0].view)
		for _, topo := range topos[1:] {
			if topo.name != "hash-4-locality" && topo.name != "degree-2" && topo.name != "remote-2servers" {
				continue
			}
			gotLoss, gotEmb := run(s, topo.view)
			for i := range wantLoss {
				if gotLoss[i] != wantLoss[i] {
					t.Fatalf("%s/%s: step %d loss %v != %v", s.Name(), topo.name, i, gotLoss[i], wantLoss[i])
				}
			}
			for i := range wantEmb {
				if gotEmb[i] != wantEmb[i] {
					t.Fatalf("%s/%s: embedding dim %d differs", s.Name(), topo.name, i)
				}
			}
		}
	}
}

// killAfterReads is a view that closes a shard server just before its
// nth bulk read — a deterministic server death mid-training.
type killAfterReads struct {
	core.GraphView
	n    int
	kill func()
}

func (v *killAfterReads) ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) {
	if v.n--; v.n == 0 {
		v.kill()
	}
	v.GraphView.ReadNodes(ids, fields, into)
}

// TestTrainDeadClusterFailsLoudAndRestarts pins core.Train over a
// cluster that loses a server: the run aborts with a panic that still
// carries the engine's typed engine.ErrShardUnavailable, never a
// gradient computed from a partial read; a bulk read spanning the dead
// server's shards fails the same typed way; and once a server relistens
// on the same address, a from-scratch run is bit-identical to the local
// engine's again.
func TestTrainDeadClusterFailsLoudAndRestarts(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	w := buildWorldFromLogs(logs, 1)
	g, v, mp := w.res.Graph, logs.Vocab(), w.res.Mapping
	local := engine.New(g, engine.Config{Shards: 4, Strategy: partition.Hash, Locality: true})
	want := runTrainingTrace(w, "zoomer", core.EngineView{Engine: local, M: mp}, v, mp)

	servers, cluster := loopbackCluster(t, g, remoteLayout, true)
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	defer cluster.Close()
	remote := core.EngineView{Engine: cluster.Engine, M: mp}

	// Kill leg: server 1 dies just before the 10th bulk read.
	addr := servers[1].Addr().String()
	dying := &killAfterReads{GraphView: remote, n: 10, kill: func() { servers[1].Close() }}
	recovered := func() (p any) {
		defer func() { p = recover() }()
		runTrainingTrace(w, "zoomer", dying, v, mp)
		return nil
	}()
	if recovered == nil {
		t.Fatal("training survived a dead shard server")
	}
	if err, _ := recovered.(error); !errors.Is(err, engine.ErrShardUnavailable) {
		t.Fatalf("training panicked with %v (%T), want an error wrapping engine.ErrShardUnavailable", recovered, recovered)
	}
	var blk graph.NodeBlock
	err := cluster.Engine.TryReadNodes(mp.NodesOfType(graph.Item), graph.ReadNeighbors|graph.ReadContent, &blk)
	if !errors.Is(err, engine.ErrShardUnavailable) {
		t.Fatalf("bulk read over a dead server: got %v, want engine.ErrShardUnavailable", err)
	}

	// Restart leg: a fresh server on the same address re-serves the dead
	// one's shards; the client redials on demand.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten %s: %v", addr, err)
	}
	servers[1] = rpc.NewServer(g, rpc.ServerConfig{
		Shards: 4, Strategy: partition.Hash, Owned: remoteLayout[1], Locality: true,
	})
	servers[1].Start(ln)
	requireTraceEqual(t, "zoomer", "post-restart", want, runTrainingTrace(w, "zoomer", remote, v, mp))
}

// contentCounter is a decorator in the shape of the benchmark rig's: it
// embeds the view — so the bulk read reaches the engine through the
// promoted method — and counts how often each node's content is read.
type contentCounter struct {
	core.GraphView
	content map[graph.NodeID]int
}

func (v *contentCounter) Content(id graph.NodeID) tensor.Vec {
	v.content[id]++
	return v.GraphView.Content(id)
}

func (v *contentCounter) ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) {
	if fields&graph.ReadContent != 0 {
		for _, id := range ids {
			v.content[id]++
		}
	}
	v.GraphView.ReadNodes(ids, fields, into)
}

// TestRemoteStepReadBudget pins where the remote training step's saving
// sits, at the benchmark rig's configuration (large world, four hash
// shards on two servers, default model, 32-example batches): a step is
// served by at most 2 000 read requests of any kind — it used to take
// ~325 000 — the count is exactly repeatable, and no node's content
// crosses the wire twice within a step. Zoomer, a walk-sampler baseline
// (PinSage) and a session-tower baseline (HAN) are held to it: every
// model reads the graph through the one chassis.
func TestRemoteStepReadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the large world")
	}
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleLarge, 1))
	w := buildWorldFromLogs(logs, 1)
	servers, cluster := loopbackCluster(t, w.res.Graph, [][]int{{0, 1}, {2, 3}}, false)
	for _, srv := range servers {
		defer srv.Close()
	}
	defer cluster.Close()
	reads := func() (n int64) {
		for _, srv := range servers {
			n += srv.OpCount(rpc.OpReadNodes) // the only attribute read on the wire
		}
		return n
	}

	view := &contentCounter{GraphView: core.EngineView{Engine: cluster.Engine, M: w.res.Mapping}}
	v := logs.Vocab()
	for _, m := range []core.Model{
		core.NewZoomer(view, v, core.DefaultConfig(), 3),
		baselines.NewPinSage(view, v, core.DefaultConfig(), 3),
		baselines.NewHAN(view, v, core.DefaultConfig(), 3),
	} {
		var perStep []int64
		for rep := 0; rep < 2; rep++ {
			r := rng.New(9)
			for step := 0; step < 3; step++ {
				view.content = map[graph.NodeID]int{}
				before := reads()
				m.Logits(ad.NewTape(), w.train[step*32:(step+1)*32], r)
				d := reads() - before
				if d > 2000 {
					t.Fatalf("%s: step %d took %d read requests, budget 2000", m.Name(), step, d)
				}
				for id, n := range view.content {
					if n > 1 {
						t.Fatalf("%s: step %d: node %d's content was read %d times", m.Name(), step, id, n)
					}
				}
				if rep == 0 {
					perStep = append(perStep, d)
				} else if d != perStep[step] {
					t.Fatalf("%s: step %d took %d read requests, %d the first time", m.Name(), step, d, perStep[step])
				}
			}
		}
		t.Logf("%s: read requests per 32-example remote step: %v", m.Name(), perStep)
	}
}
