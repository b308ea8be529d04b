package rpc

import (
	"fmt"
	"math"

	"zoomer/internal/graph"
	"zoomer/internal/tensor"
	"zoomer/internal/wire"
)

// The read-nodes op is the attribute read: any subset of neighbors,
// features and content for a list of nodes (one or many) of one
// partition, in one frame each way.
//
//	request : u8 fields | u32 count | count × u32 node id
//	response: u32 edges | u32 features | u32 floats      (column totals)
//	          then per node, in request order, each requested attribute:
//	            neighbors: u32 deg | deg × (u32 to | u8 type | u32 weight bits)
//	            features : u32 n   | n × u32
//	            content  : u32 n+1 | n × u32 float bits   (0: no content vector)
//
// fields is a graph.ReadFields mask. The totals let the client carve each
// column's storage once, and are themselves checked against the bytes the
// frame actually carries before anything is carved — as is the request's
// count, which the server additionally caps at maxReadNodes (the engine
// splits larger groups). All ids of a request must belong to one
// partition the server owns; otherwise it answers the usual wrong-epoch
// redirect or error frame.

// maxReadNodes caps the ids of one read-nodes request. It must stay at
// least the engine's visit size (engine.maxVisit), which
// TestReadNodesChunksLargeGroups pins from the outside.
const maxReadNodes = 4096

// wireEdgeSize is one encoded edge: u32 to, u8 type, u32 weight bits.
const wireEdgeSize = 9

func appendReadNodesRequest(req []byte, gids []graph.NodeID, fields graph.ReadFields) []byte {
	req = append(req, byte(fields))
	req = appendU32(req, uint32(len(gids)))
	for _, id := range gids {
		req = appendU32(req, uint32(id))
	}
	return req
}

// decodeReadNodesRequest decodes a request payload, reusing gids'
// storage for the id list.
func decodeReadNodesRequest(payload []byte, gids []graph.NodeID) (graph.ReadFields, []graph.NodeID, error) {
	cu := wire.Cursor{B: payload}
	fields := graph.ReadFields(cu.U8())
	count := cu.Count(4)
	if cu.Bad {
		return 0, nil, cu.Err(ErrMalformedFrame)
	}
	if fields == 0 || fields&^graph.ReadAll != 0 {
		return 0, nil, fmt.Errorf("%w: read-nodes fields %#x", ErrMalformedFrame, byte(fields))
	}
	if count == 0 || count > maxReadNodes {
		return 0, nil, fmt.Errorf("%w: read-nodes request for %d nodes (limit %d)", ErrMalformedFrame, count, maxReadNodes)
	}
	gids = gids[:0]
	for j := 0; j < count; j++ {
		gids = append(gids, graph.NodeID(cu.U32()))
	}
	if len(cu.Rest()) != 0 {
		return 0, nil, fmt.Errorf("%w: %d bytes after the read-nodes id list", ErrMalformedFrame, len(cu.Rest()))
	}
	return fields, gids, nil
}

// appendReadNodesResponse encodes the first n entries of blk's requested
// columns.
func appendReadNodesResponse(b []byte, blk *graph.NodeBlock, n int, fields graph.ReadFields) ([]byte, error) {
	var edges, feats, floats uint64
	for i := 0; i < n; i++ {
		if fields&graph.ReadNeighbors != 0 {
			edges += uint64(len(blk.Neighbors[i]))
		}
		if fields&graph.ReadFeatures != 0 {
			feats += uint64(len(blk.Features[i]))
		}
		if fields&graph.ReadContent != 0 {
			floats += uint64(len(blk.Content[i]))
		}
	}
	if size := 12 + 12*uint64(n) + wireEdgeSize*edges + 4*feats + 4*floats; size > maxFrame-16 {
		return nil, fmt.Errorf("rpc: read-nodes response of %d bytes exceeds the frame limit", size)
	}
	b = appendU32(b, uint32(edges))
	b = appendU32(b, uint32(feats))
	b = appendU32(b, uint32(floats))
	for i := 0; i < n; i++ {
		if fields&graph.ReadNeighbors != 0 {
			b = appendU32(b, uint32(len(blk.Neighbors[i])))
			for _, e := range blk.Neighbors[i] {
				b = appendU32(b, uint32(e.To))
				b = append(b, byte(e.Type))
				b = appendU32(b, math.Float32bits(e.Weight))
			}
		}
		if fields&graph.ReadFeatures != 0 {
			b = appendU32(b, uint32(len(blk.Features[i])))
			for _, f := range blk.Features[i] {
				b = appendU32(b, uint32(f))
			}
		}
		if fields&graph.ReadContent != 0 {
			c := blk.Content[i]
			if c == nil {
				b = appendU32(b, 0)
				continue
			}
			b = appendU32(b, uint32(len(c))+1)
			for _, v := range c {
				b = appendU32(b, math.Float32bits(v))
			}
		}
	}
	return b, nil
}

// decodeReadNodesResponse decodes a response for n nodes into blk: node
// j's attributes go to entry pos[j] of the requested columns (entry j
// when pos is nil), carved from blk's arenas. The columns must already be
// sized by the caller.
func decodeReadNodesResponse(body []byte, pos []int32, n int, fields graph.ReadFields, blk *graph.NodeBlock) error {
	cu := wire.Cursor{B: body}
	edges, feats, floats := uint64(cu.U32()), uint64(cu.U32()), uint64(cu.U32())
	if cu.Bad || wireEdgeSize*edges+4*feats+4*floats > uint64(len(cu.Rest())) {
		return fmt.Errorf("%w: read-nodes response totals exceed its %d bytes", ErrMalformedFrame, len(body))
	}
	edgeArena := blk.CarveEdges(int(edges))
	featArena := blk.CarveInts(int(feats))
	floatArena := blk.CarveFloats(int(floats))
	for j := 0; j < n && !cu.Bad; j++ {
		i := j
		if pos != nil {
			i = int(pos[j])
		}
		if fields&graph.ReadNeighbors != 0 {
			deg := int(cu.U32())
			if deg > len(edgeArena) || i >= len(blk.Neighbors) {
				cu.Bad = true
				break
			}
			nbrs := edgeArena[:deg:deg]
			edgeArena = edgeArena[deg:]
			for d := range nbrs {
				nbrs[d] = graph.Edge{
					To:     graph.NodeID(cu.U32()),
					Type:   graph.EdgeType(cu.U8()),
					Weight: cu.F32(),
				}
			}
			blk.Neighbors[i] = nbrs
		}
		if fields&graph.ReadFeatures != 0 {
			m := int(cu.U32())
			if m > len(featArena) || i >= len(blk.Features) {
				cu.Bad = true
				break
			}
			fs := featArena[:m:m]
			featArena = featArena[m:]
			for d := range fs {
				fs[d] = int32(cu.U32())
			}
			blk.Features[i] = fs
		}
		if fields&graph.ReadContent != 0 {
			m := int(cu.U32())
			if m-1 > len(floatArena) || i >= len(blk.Content) {
				cu.Bad = true
				break
			}
			if m == 0 {
				blk.Content[i] = nil
				continue
			}
			c := floatArena[: m-1 : m-1]
			floatArena = floatArena[m-1:]
			for d := range c {
				c[d] = cu.F32()
			}
			if c == nil {
				c = tensor.Vec{} // present but empty: distinct from no vector at all
			}
			blk.Content[i] = c
		}
	}
	if cu.Bad || len(cu.Rest()) != 0 || len(edgeArena)+len(featArena)+len(floatArena) != 0 {
		return fmt.Errorf("%w: read-nodes response (%d bytes for %d nodes)", ErrMalformedFrame, len(body), n)
	}
	return nil
}

// handleReadNodes serves one bulk read: the store fills the worker's
// block with views of its own arrays, and the response is encoded
// straight from them.
func (s *Server) handleReadNodes(o *ownership, payload []byte, sc *serverConn) ([]byte, error) {
	fields, gids, err := decodeReadNodesRequest(payload, sc.readIDs)
	if err != nil {
		return nil, err
	}
	sc.readIDs = gids
	sh, err := s.visitShard(o, OpReadNodes, gids)
	if err != nil {
		return nil, err
	}
	sc.blk.Resize(len(gids), fields)
	if err := sh.ReadNodesInto(gids, nil, fields, &sc.blk); err != nil {
		return nil, err
	}
	return appendReadNodesResponse(sc.begin(statusOK), &sc.blk, len(gids), fields)
}
