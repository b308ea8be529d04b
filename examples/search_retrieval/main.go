// Search retrieval: the full production path of Fig. 3/Fig. 7 — train
// Zoomer, export the trimmed serving weights, index item embeddings in
// the two-layer inverted index, and retrieve items for live search
// requests through the neighbor-cache serving stack.
package main

import (
	"fmt"

	"zoomer/internal/core"
	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
	"zoomer/internal/serve"
	"zoomer/internal/servestack"
)

func main() {
	res := core.BuildWorld(loggen.TaobaoConfig(loggen.ScaleTiny, 7))
	logs, g := res.Logs, res.Graph
	train, test := res.Instances(1, 8)

	cfg := core.DefaultConfig()
	cfg.EmbedDim, cfg.OutDim = 16, 16
	cfg.Hops, cfg.FanOut = 1, 5
	model := core.NewZoomer(g, logs.Vocab(), cfg, 9)
	tc := core.DefaultTrainConfig()
	tc.MaxSteps = 200
	out := core.Train(model, train, test, tc)
	fmt.Printf("trained: AUC %.3f\n", out.TestAUC)

	// Export for serving: static node embeddings + edge-attention-only
	// aggregation (§VII-E's trimmed online model).
	emb := serve.NewEmbedder(model.ExportServing())

	// Index all item embeddings in the IVF index (iGraph stand-in),
	// sized by the serving tier's rule.
	index := servestack.ItemIndex(g.NodesOfType(graph.Item), emb.Item, 10)
	fmt.Printf("indexed %d items into %d inverted lists\n", index.Len(), index.NumLists())

	// Serving stack: sharded graph engine + async neighbor cache.
	eng := engine.New(g, engine.DefaultConfig())
	cache := serve.NewNeighborCache(eng, 30, 11)
	defer cache.Close()

	// Retrieve for a few real requests from the logs.
	r := rng.New(12)
	esc, ssc := emb.NewScratch(), index.NewSearchScratch()
	traffic := 0
	for _, s := range logs.Sessions {
		for _, ev := range s.Events {
			u := res.Mapping.UserNode(s.User)
			q := res.Mapping.QueryNode(ev.Query)
			eu, eq2 := cache.Get(u, r), cache.Get(q, r)
			uq := emb.UserQuery(u, q, eu.Neighbors(), eq2.Neighbors(), esc)
			eu.Release()
			eq2.Release()
			top := index.SearchInto(uq, 5, 4, ssc)
			fmt.Printf("user %d query %d ->", s.User, ev.Query)
			for _, t := range top {
				fmt.Printf(" item%d(%.2f)", g.LocalIndex(graph.NodeID(t.ID)), t.Score)
			}
			fmt.Println()
			traffic++
			if traffic == 5 {
				hits, misses, _ := cache.Stats()
				fmt.Printf("cache: %d hits, %d misses\n", hits, misses)
				return
			}
		}
	}
}
