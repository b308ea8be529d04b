package core

import (
	"net"
	"testing"

	"zoomer/internal/graphbuild"
	"zoomer/internal/loggen"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
	"zoomer/internal/rpc"
)

// BenchmarkRegionPassRemote times one 32-example Zoomer region pass — the
// sampleBatch half of a training step: the focal points' reads, the
// two-hop regions and the feature read — at the benchmark rig's shape:
// the large world, four hash shards on two loopback servers. The
// pipelined step benches hide this pass behind the step's compute; here
// it is timed alone.
func BenchmarkRegionPassRemote(b *testing.B) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleLarge, 1))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	train := InstancesFromExamples(loggen.BuildExamples(logs, 1, 0.2, 2).Train, res.Mapping)
	var addrs []string
	for _, owned := range [][]int{{0, 1}, {2, 3}} {
		srv := rpc.NewServer(res.Graph, rpc.ServerConfig{Shards: 4, Strategy: partition.Hash, Owned: owned})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatalf("listen: %v", err)
		}
		srv.Start(ln)
		defer srv.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	cluster, err := rpc.DialClusterWith(rpc.ClientConfig{}, addrs...)
	if err != nil {
		b.Fatalf("dial cluster: %v", err)
	}
	defer cluster.Close()

	z := NewZoomer(EngineView{Engine: cluster.Engine, M: res.Mapping}, logs.Vocab(), DefaultConfig(), 3)
	buf, r := z.newRegions(), rng.New(9)
	const batch = 32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i * batch % (len(train) - batch)
		z.sampleBatch(buf, train[j:j+batch], r)
	}
}
