package rpc

import (
	"fmt"
	"sort"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/partition"
	"zoomer/internal/wire"
)

// opSpec declares one op: its name, the client's attempt budget and the
// server's handler, which answers one request against one ownership
// snapshot. A byte with no row — the retired 5–7, anything from numOps
// up — is an unknown op: answered with an error frame, counted against
// nothing. Reads and admin ops are idempotent (seeds travel in the
// request) and get two attempts; a graph-append gets one, as only the
// sequence cache in RemoteShard.AppendEdges can tell whether an attempt
// lost to a transport failure landed.
type opSpec struct {
	name  string
	tries int
	serve func(*Server, *ownership, []byte, *serverConn) ([]byte, error)
}

// ops is the one place an op is declared; its codecs follow in table
// order, each called by both ends. It is filled at init because the
// append handler reaches the client (replica fan-out), whose retry loop
// reads the table back.
var ops [numOps]opSpec

func init() {
	ops = [numOps]opSpec{
		opInfo:      {"info", 2, (*Server).handleInfo},
		opRouting:   {"routing", 2, (*Server).handleRouting},
		OpSample:    {"sample", 2, (*Server).handleSample},
		OpBatch:     {"batch", 2, (*Server).handleBatch},
		opReassign:  {"reassign", 2, (*Server).handleReassign},
		opEpoch:     {"routing-epoch", 2, (*Server).handleEpoch},
		opMembers:   {"members", 2, (*Server).handleMembers},
		opAppend:    {"graph-append", 1, (*Server).handleAppend},
		OpReadNodes: {"read-nodes", 2, (*Server).handleReadNodes},
	}
}

// spec returns o's row; the zero row for an unknown op.
func (o Op) spec() opSpec {
	if o < numOps {
		return ops[o]
	}
	return opSpec{}
}

// String returns the lowercase op name.
func (o Op) String() string {
	if name := o.spec().name; name != "" {
		return name
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// appendInfo encodes an info response (the request has no payload): u32
// nodes, content dim, shards and strategy, then the owned triples.
func appendInfo(b []byte, info Info) []byte {
	b = appendU32(b, uint32(info.NumNodes))
	b = appendU32(b, uint32(info.ContentDim))
	b = appendU32(b, uint32(info.NumShards))
	b = appendU32(b, uint32(info.Strategy))
	return appendOwned(b, info.Owned)
}

// decodeInfo decodes an info response, with nothing after it. A strategy
// that does not fit partition.Strategy is malformed.
func decodeInfo(body []byte) (Info, error) {
	cu := wire.Cursor{B: body}
	info := Info{NumNodes: int(cu.U32()), ContentDim: int(cu.U32()), NumShards: int(cu.U32())}
	strategy := cu.U32()
	info.Strategy = partition.Strategy(strategy)
	info.Owned = decodeOwned(&cu)
	if uint32(info.Strategy) != strategy {
		return Info{}, fmt.Errorf("%w: info strategy %d", ErrMalformedFrame, strategy)
	}
	return info, cu.Err(ErrMalformedFrame)
}

// appendOwned encodes the owned-partition section both the info and
// routing-epoch responses carry: u32 count, then (id, nodes, edges) each.
func appendOwned(b []byte, owned []ShardInfo) []byte {
	b = appendU32(b, uint32(len(owned)))
	for _, sh := range owned {
		b = appendU32(b, uint32(sh.ID))
		b = appendU32(b, uint32(sh.Nodes))
		b = appendU32(b, uint32(sh.Edges))
	}
	return b
}

// decodeOwned decodes the owned-partition section, sorted by shard id (a
// protocol-6 server before the sorted ownership snapshot sent map order).
// The count is checked against the bytes left in the frame before
// anything is sized for it; a bad list latches the cursor's bad flag.
func decodeOwned(cu *wire.Cursor) []ShardInfo {
	out := make([]ShardInfo, cu.Count(12))
	for i := range out {
		out[i] = ShardInfo{ID: int(cu.U32()), Nodes: int(cu.U32()), Edges: int(cu.U32())}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// routing: no request payload; the response is the routing blob
// (partition.Routing's MarshalBinary and partition.UnmarshalRouting).

// maxK bounds the draws per node a sample or batch request may ask for.
const maxK = 1 << 20

// appendSampleRequest encodes an OpSample payload: the node, k, and the
// caller's RNG state.
func appendSampleRequest(b []byte, id graph.NodeID, k int, st [4]uint64) []byte {
	b = appendU32(b, uint32(id))
	b = appendU32(b, uint32(k))
	for _, w := range st {
		b = appendU64(b, w)
	}
	return b
}

// decodeSampleRequest decodes an OpSample payload; a k outside (0, maxK]
// is malformed.
func decodeSampleRequest(payload []byte) (id graph.NodeID, k int, st [4]uint64, err error) {
	cu := wire.Cursor{B: payload}
	id, k = graph.NodeID(cu.U32()), int(cu.U32())
	for i := range st {
		st[i] = cu.U64()
	}
	if err := cu.Err(ErrMalformedFrame); err != nil {
		return 0, 0, st, err
	}
	if k <= 0 || k > maxK {
		return 0, 0, st, fmt.Errorf("%w: sample k=%d out of range", ErrMalformedFrame, k)
	}
	return id, k, st, nil
}

// appendSampleResponse encodes an OpSample response: the advanced RNG
// state, then the draws (appendDraws).
func appendSampleResponse(b []byte, st [4]uint64, draws []graph.NodeID) []byte {
	for _, w := range st {
		b = appendU64(b, w)
	}
	return appendDraws(b, draws)
}

// decodeSample decodes an OpSample response: the advanced RNG state, which
// goes to st, then n ≤ k draws, which go to out, and nothing after them.
// A malformed frame writes neither.
func decodeSample(body []byte, k int, out []graph.NodeID, st *[4]uint64) (int, error) {
	cu := wire.Cursor{B: body}
	var adv [4]uint64
	for i := range adv {
		adv[i] = cu.U64()
	}
	n := cu.Count(4)
	if cu.Bad || n > k || n > len(out) || len(cu.Rest()) != 4*n {
		return 0, fmt.Errorf("%w: sample response (%d bytes for k=%d)", ErrMalformedFrame, len(body), k)
	}
	for i := 0; i < n; i++ {
		out[i] = graph.NodeID(cu.U32())
	}
	*st = adv
	return n, nil
}

// appendBatch encodes an OpBatch payload.
func appendBatch(req []byte, gids []graph.NodeID, idx []int32, base uint64, k int) []byte {
	req = appendU64(req, base)
	req = appendU32(req, uint32(k))
	req = appendU32(req, uint32(len(gids)))
	for j := range gids {
		req = appendU32(req, uint32(idx[j]))
		req = appendU32(req, uint32(gids[j]))
	}
	return req
}

// batchRequest is a decoded OpBatch payload: entry j is node gids[j] at
// the client's batch index idx[j] (never negative).
type batchRequest struct {
	base uint64
	k    int
	gids []graph.NodeID
	idx  []int32
}

// decodeBatchRequest decodes an OpBatch payload into req, reusing its
// gids/idx storage. The entry count is checked against the bytes the
// frame actually carries before anything is sized for it, and the draws
// the response carries — count×k — against the frame budget.
func decodeBatchRequest(payload []byte, req *batchRequest) error {
	cu := wire.Cursor{B: payload}
	req.base = cu.U64()
	req.k = int(cu.U32())
	count := cu.Count(8)
	if cu.Bad || req.k <= 0 || req.k > maxK || count == 0 || int64(count)*int64(req.k) > maxFrame/4 {
		return fmt.Errorf("%w: batch header k=%d count=%d in %d bytes", ErrMalformedFrame, req.k, count, len(payload))
	}
	if cap(req.gids) < count {
		req.gids = make([]graph.NodeID, count)
		req.idx = make([]int32, count)
	}
	req.gids, req.idx = req.gids[:count], req.idx[:count]
	for j := 0; j < count; j++ {
		req.idx[j] = int32(cu.U32())
		req.gids[j] = graph.NodeID(cu.U32())
		if req.idx[j] < 0 {
			return fmt.Errorf("%w: negative batch index %d", ErrMalformedFrame, req.idx[j])
		}
	}
	if len(cu.Rest()) != 0 {
		return fmt.Errorf("%w: %d bytes after the batch entries", ErrMalformedFrame, len(cu.Rest()))
	}
	return nil
}

// appendDraws encodes one node's draws — u32 n, then the n draws — the
// tail of a sample response and one entry of a batch response. A batch
// response is u32 total, then one entry per request entry in request
// order; the server writes the total last.
func appendDraws(b []byte, draws []graph.NodeID) []byte {
	b = appendU32(b, uint32(len(draws)))
	for _, v := range draws {
		b = appendU32(b, uint32(v))
	}
	return b
}

// decodeBatch scatters an OpBatch response into out/ns. Nothing in the
// frame is trusted: every per-entry count is bounded by k and the
// caller's buffers, the header's total must equal their sum (it is what
// SampleNeighborsBatchInto reports, and must agree with ns), and no byte
// may follow the last entry.
func decodeBatch(body []byte, gids []graph.NodeID, idx []int32, k int, out []graph.NodeID, ns []int32) (int, error) {
	cu := wire.Cursor{B: body}
	total, sum := int(cu.U32()), 0
	good := true
	for j := range gids {
		n := int32(cu.U32())
		i := int(idx[j])
		if n < 0 || int(n) > k || (i+1)*k > len(out) || i >= len(ns) {
			good = false
			break
		}
		ns[i] = n
		sum += int(n)
		lo := i * k
		for d := 0; d < int(n); d++ {
			out[lo+d] = graph.NodeID(cu.U32())
		}
	}
	if !good || cu.Bad || total != sum || len(cu.Rest()) != 0 {
		return 0, fmt.Errorf("%w: batch response (%d bytes)", ErrMalformedFrame, len(body))
	}
	return total, nil
}

// appendReassignRequest encodes an opReassign payload: the action, then
// the partition.
func appendReassignRequest(b []byte, shard int, acquire bool) []byte {
	action := byte(reassignRelease)
	if acquire {
		action = reassignAcquire
	}
	return appendU32(append(b, action), uint32(shard))
}

// decodeReassignRequest decodes an opReassign payload; an action other
// than acquire or release is malformed.
func decodeReassignRequest(payload []byte) (shard int, acquire bool, err error) {
	cu := wire.Cursor{B: payload}
	action, shard := cu.U8(), int(cu.U32())
	if err := cu.Err(ErrMalformedFrame); err != nil {
		return 0, false, err
	}
	if action != reassignAcquire && action != reassignRelease {
		return 0, false, fmt.Errorf("%w: unknown reassign action %d", ErrMalformedFrame, action)
	}
	return shard, action == reassignAcquire, nil
}

// decodeReassignResponse decodes an opReassign response: the routing
// epoch after the change (appendU64), with nothing after it.
func decodeReassignResponse(body []byte) (epoch uint64, err error) {
	cu := wire.Cursor{B: body}
	epoch = cu.U64()
	return epoch, cu.Err(ErrMalformedFrame)
}

// appendEpoch encodes a routing-epoch response (the request has no
// payload); owned's ingest rows form the ingest section.
func appendEpoch(b []byte, epoch uint64, owned []ShardInfo, members []string) []byte {
	b = appendOwned(appendU64(b, epoch), owned)
	b = appendAddrList(b, members)
	return appendIngest(b, owned)
}

// decodeEpoch decodes a routing-epoch response: the epoch, the owned
// triples, the member view and one ingest row per owned shard, with
// nothing after them.
func decodeEpoch(body []byte) (epoch uint64, owned []ShardInfo, members []string, err error) {
	cu := wire.Cursor{B: body}
	epoch = cu.U64()
	owned = decodeOwned(&cu)
	members = decodeAddrList(&cu)
	decodeIngest(&cu, owned)
	if cu.Bad || len(cu.Rest()) != 0 {
		return 0, nil, nil, fmt.Errorf("%w: routing-epoch response (%d bytes)", ErrMalformedFrame, len(body))
	}
	return epoch, owned, members, nil
}

// ingestRowSize is the fixed part of one encoded ingest row: shard, seq,
// delta nodes/edges, run merges, WAL segments, fsync count and nanos,
// and the histogram's bucket count.
const ingestRowSize = 4 + 8 + 4 + 8 + 8 + 4 + 8 + 8 + 4

// appendIngest encodes the ingest section: u32 count, then each owned
// shard's row — sequence watermark, delta-layer shape, and WAL
// segment/fsync counters with the fsync latency histogram. Every entry of
// owned must carry its row.
func appendIngest(b []byte, owned []ShardInfo) []byte {
	b = appendU32(b, uint32(len(owned)))
	for _, sh := range owned {
		st := sh.Ingest
		b = appendU32(b, uint32(st.Shard))
		b = appendU64(b, st.Seq)
		b = appendU32(b, uint32(st.DeltaNodes))
		b = appendU64(b, st.DeltaEdges)
		b = appendU64(b, st.Compactions)
		b = appendU32(b, uint32(st.WALSegments))
		b = appendU64(b, st.Fsyncs)
		b = appendU64(b, st.FsyncNanos)
		b = appendU32(b, uint32(len(st.FsyncHist)))
		for _, c := range st.FsyncHist {
			b = appendU64(b, c)
		}
	}
	return b
}

// decodeIngest decodes the ingest section of an epoch response and
// attaches each row to its shard's entry in owned.
func decodeIngest(cu *wire.Cursor, owned []ShardInfo) {
	byID := make(map[int]int, len(owned))
	for i := range owned {
		byID[owned[i].ID] = i
	}
	count := cu.Count(ingestRowSize)
	for n := 0; n < count; n++ {
		var st engine.IngestStats
		st.Shard = int(cu.U32())
		st.Seq = cu.U64()
		st.DeltaNodes = int(cu.U32())
		st.DeltaEdges = cu.U64()
		st.Compactions = cu.U64()
		st.WALSegments = int(cu.U32())
		st.Fsyncs = cu.U64()
		st.FsyncNanos = cu.U64()
		hl := cu.Count(8)
		if cu.Bad || hl > 64 {
			cu.Bad = true
			return
		}
		if hl > 0 {
			st.FsyncHist = make([]uint64, hl)
			for i := range st.FsyncHist {
				st.FsyncHist[i] = cu.U64()
			}
		}
		if i, ok := byID[st.Shard]; ok {
			row := st
			owned[i].Ingest = &row
		}
	}
}

// maxMembers bounds a member address list on the wire; a list larger
// than any plausible cluster is a protocol error, not a membership view.
const maxMembers = 1024

// appendMembersRequest encodes an opMembers payload: the announced
// address, empty for a plain poll.
func appendMembersRequest(b []byte, announce string) []byte {
	return append(appendU32(b, uint32(len(announce))), announce...)
}

// decodeMembersRequest decodes an opMembers payload.
func decodeMembersRequest(payload []byte) (announce string, err error) {
	cu := wire.Cursor{B: payload}
	announce = cu.Str()
	return announce, cu.Err(ErrMalformedFrame)
}

// decodeMembersResponse decodes an opMembers response: one address list
// (appendAddrList), with nothing after it.
func decodeMembersResponse(body []byte) (members []string, err error) {
	cu := wire.Cursor{B: body}
	members = decodeAddrList(&cu)
	return members, cu.Err(ErrMalformedFrame)
}

// appendAddrList encodes a member address list: u32 count, then each
// address as u32 length + raw bytes.
func appendAddrList(b []byte, addrs []string) []byte {
	b = appendU32(b, uint32(len(addrs)))
	for _, a := range addrs {
		b = appendU32(b, uint32(len(a)))
		b = append(b, a...)
	}
	return b
}

// decodeAddrList decodes a member address list written by
// appendAddrList, latching the cursor's bad flag on implausible shapes.
func decodeAddrList(cu *wire.Cursor) []string {
	count := cu.Count(4) // every address carries at least its length
	if cu.Bad || count > maxMembers {
		cu.Bad = true
		return nil
	}
	if count == 0 {
		return nil
	}
	addrs := make([]string, 0, count)
	for i := 0; i < count; i++ {
		a := cu.Str()
		if cu.Bad || len(a) > 256 {
			cu.Bad = true
			return nil
		}
		addrs = append(addrs, a)
	}
	return addrs
}

// appendAppendRequest encodes an opAppend payload: u8 flags | u32 shard |
// the ingest record (the on-wire encoding is the on-disk one); fanout
// marks a replica fan-out copy.
func appendAppendRequest(b []byte, shard int, seq uint64, edges []ingest.Edge, fanout bool) []byte {
	var flags byte
	if fanout {
		flags = appendFlagFanout
	}
	b = appendU32(append(b, flags), uint32(shard))
	return ingest.AppendPayload(b, seq, edges)
}

// decodeAppendRequest decodes an opAppend payload into edges' storage;
// flag bits other than the fan-out bit are ignored.
func decodeAppendRequest(payload []byte, edges []ingest.Edge) (shard int, fanout bool, rec ingest.Record, err error) {
	cu := wire.Cursor{B: payload}
	flags, shard := cu.U8(), int(cu.U32())
	rec, err = ingest.DecodeRecord(cu.Rest(), edges) // nothing, and so corrupt, after a short header
	return shard, flags&appendFlagFanout != 0, rec, err
}

// appendAppendResult encodes an opAppend response: u8 result | u64
// lastSeq.
func appendAppendResult(b []byte, result byte, lastSeq uint64) []byte {
	return appendU64(append(b, result), lastSeq)
}

// decodeAppendResult decodes an opAppend response: the result code and
// the shard's sequence watermark.
func decodeAppendResult(body []byte) (result byte, lastSeq uint64, err error) {
	cu := wire.Cursor{B: body}
	result, lastSeq = cu.U8(), cu.U64()
	if cu.Bad || result > appendGap || len(cu.Rest()) != 0 {
		return 0, 0, fmt.Errorf("%w: append response (%d bytes)", ErrMalformedFrame, len(body))
	}
	return result, lastSeq, nil
}

// read-nodes: readnodes.go holds its four codecs.

// appendMoved encodes a wrong-epoch redirect's payload (statusMoved):
// u64 epoch | u32 shard.
func appendMoved(b []byte, epoch uint64, shard int) []byte {
	return appendU32(appendU64(b, epoch), uint32(shard))
}

// decodeMoved decodes a redirect payload, with nothing after it.
func decodeMoved(body []byte) (epoch uint64, shard int, err error) {
	cu := wire.Cursor{B: body}
	epoch, shard = cu.U64(), int(cu.U32())
	return epoch, shard, cu.Err(ErrMalformedFrame)
}
