package engine

import "zoomer/internal/graph"

// ReadNodesInto serves one bulk-read visit from the in-process store:
// views of the partition's own arrays, no copies (a node with appended
// edges gets a combined adjacency copy, as Neighbors does). The visit is
// charged the group size.
func (s *Shard) ReadNodesInto(gids []graph.NodeID, pos []int32, fields graph.ReadFields, into *graph.NodeBlock) error {
	s.requests.Add(int64(len(gids)))
	for j, id := range gids {
		i := j
		if pos != nil {
			i = int(pos[j])
		}
		if fields&graph.ReadNeighbors != 0 {
			into.Neighbors[i] = s.neighbors(id)
		}
		if fields&graph.ReadFeatures != 0 {
			into.Features[i] = s.features(id)
		}
		if fields&graph.ReadContent != 0 {
			into.Content[i] = s.content(id)
		}
	}
	return nil
}

// ReadNodes implements sampling.GraphView's bulk read on the error-free
// surface: like Neighbors it panics when a remote backend fails for good.
func (e *Engine) ReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) {
	must(e.TryReadNodes(ids, fields, into))
}

// TryReadNodes fills into with the requested attributes of ids — entry i
// of each requested column belongs to ids[i] — and surfaces backend
// failures as typed errors.
//
// This is the scatter-gather of the attribute reads, one run of the
// engine's visit plan (scatter) like a sample batch: ids are grouped by
// owning shard (groups above 4096 ids cut), every remote visit is started
// before any is awaited so they overlap on the multiplexed connections,
// local visits fill the block with zero-copy views meanwhile, and
// responses are decoded into the block's arenas on this goroutine as they
// are collected. Failures are handled per visit — sibling replicas first,
// then one ownership refresh and a re-run of the failed visits alone. On
// error the block's contents are unspecified.
func (e *Engine) TryReadNodes(ids []graph.NodeID, fields graph.ReadFields, into *graph.NodeBlock) error {
	into.Resize(len(ids), fields)
	if len(ids) == 0 || fields == 0 {
		return nil
	}
	p := e.planPool.Get().(*visitPlan)
	defer e.planPool.Put(p)
	_, err := e.scatter(p, ids, &payload{fields: fields, into: into})
	return err
}
