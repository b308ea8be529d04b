// A/B test: the Table IV scenario — train Zoomer and PinSage, put each
// behind a retrieval channel, replay the same traffic through both under
// a shared click/pricing model, and report CTR/PPC/RPM lifts.
package main

import (
	"fmt"

	"zoomer/internal/abtest"
	"zoomer/internal/baselines"
	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
)

func main() {
	res := core.BuildWorld(loggen.TaobaoConfig(loggen.ScaleTiny, 51))
	logs := res.Logs
	// Both models train through a sharded engine view of the graph.
	eng := engine.New(res.Graph, engine.DefaultConfig())
	g := core.EngineView{Engine: eng, M: res.Mapping}
	train, test := res.Instances(1, 52)

	cfg := core.DefaultConfig()
	cfg.EmbedDim, cfg.OutDim = 16, 16
	cfg.Hops, cfg.FanOut = 1, 5

	zoomer := core.NewZoomer(g, logs.Vocab(), cfg, 53)
	pinsage := baselines.NewPinSage(g, logs.Vocab(), cfg, 54)

	tc := core.DefaultTrainConfig()
	tc.Epochs = 2
	tc.MaxSteps = 250
	fmt.Println("training both channels...")
	zres := core.Train(zoomer, train, test, tc)
	pres := core.Train(pinsage, train, test, tc)
	fmt.Printf("zoomer AUC %.3f | pinsage AUC %.3f\n", zres.TestAUC, pres.TestAUC)

	items := res.Mapping.NodesOfType(graph.Item)
	control := abtest.NewModelChannel("pinsage", pinsage, items, 55)
	treatment := abtest.NewModelChannel("zoomer", zoomer, items, 56)
	traffic := abtest.TrafficFromLogs(logs, res.Mapping, 120)

	out := abtest.RunArms(g, traffic, control, treatment, abtest.DefaultConfig())
	fmt.Printf("control   (pinsage): CTR %.4f  PPC %.3f  RPM %.2f\n",
		out.Control.CTR(), out.Control.PPC(), out.Control.RPM())
	fmt.Printf("treatment (zoomer):  CTR %.4f  PPC %.3f  RPM %.2f\n",
		out.Treatment.CTR(), out.Treatment.PPC(), out.Treatment.RPM())
	fmt.Printf("lifts: CTR %+.2f%%  PPC %+.2f%%  RPM %+.2f%%\n",
		out.CTRLift, out.PPCLift, out.RPMLift)
}
