package serve

import (
	"testing"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/graphbuild"
	"zoomer/internal/ingest"
	"zoomer/internal/loggen"
	"zoomer/internal/rng"
)

// Invalidation is the delta-epoch hook: after edges are appended, the
// hinted nodes' cached samples must heal to the new adjacency through
// the ordinary asynchronous refresh path — no eviction, no synchronous
// refill, readers never blocked.
func TestInvalidateNodesHealsCacheAfterAppend(t *testing.T) {
	logs := loggen.MustGenerate(loggen.TaobaoConfig(loggen.ScaleTiny, 1))
	res := graphbuild.Build(logs, graphbuild.DefaultConfig())
	eng := engine.New(res.Graph, engine.DefaultConfig())
	cache := NewNeighborCache(eng, 8, 3)
	t.Cleanup(cache.Close)
	r := rng.New(9)

	id := graph.NodeID(0)
	if e := cache.Get(id, r); e != nil {
		e.Release() // warm the entry so there is something stale to heal
	}

	// An uncached id is a no-op hint: nothing stale exists.
	uncached := graph.NodeID(res.Graph.NumNodes() - 1)
	cache.InvalidateNodes(uncached)
	if e := cache.getCached(uncached); e != nil {
		e.Release()
		t.Fatal("invalidating an uncached id cached it")
	}

	// Append an edge whose weight dominates the node's base adjacency:
	// once the cache resamples, essentially every draw includes it.
	dst := graph.NodeID(5)
	if _, err := eng.Append([]ingest.Edge{{Src: id, Dst: dst, Type: graph.Click, Weight: 1e6}}); err != nil {
		t.Fatalf("append: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		cache.InvalidateNodes(id)
		if e := cache.getCached(id); e != nil {
			healed := false
			for _, nb := range e.Neighbors() {
				if nb == dst {
					healed = true
					break
				}
			}
			e.Release()
			if healed {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("cached entry never picked up the appended edge after invalidation")
}
