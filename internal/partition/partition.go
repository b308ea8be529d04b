// Package partition splits a built graph.Graph into disjoint per-shard
// CSR slices plus a compact routing table — the data layout of the
// paper's distributed graph engine (§VI), where each server holds one
// partition of the web-scale graph and serves reads only for the nodes
// it owns.
//
// Two strategies are provided. Hash assigns node id to shard id%S, so
// routing is pure arithmetic and needs no per-node state at all.
// DegreeBalanced assigns nodes greedily to the shard with the smallest
// edge total (longest-processing-time scheduling over degrees), which
// evens out edge storage and sampling work when the degree distribution
// is skewed; its routing table is two int32 arrays indexed by node id.
// Either way, Owner and Local are O(1) branch-predictable lookups with
// no allocation — they sit on the serving hot path.
package partition

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"zoomer/internal/graph"
	"zoomer/internal/tensor"
	"zoomer/internal/wire"
)

// Strategy selects how nodes are assigned to shards.
type Strategy uint8

const (
	// Hash routes node id to shard id % S; local index is id / S.
	Hash Strategy = iota
	// DegreeBalanced greedily assigns nodes (heaviest degree first) to
	// the shard with the fewest edges so far.
	DegreeBalanced
)

// String returns the lowercase strategy name.
func (s Strategy) String() string {
	switch s {
	case Hash:
		return "hash"
	case DegreeBalanced:
		return "degree-balanced"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// ParseStrategy maps a flag value to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "hash":
		return Hash, nil
	case "degree", "degree-balanced":
		return DegreeBalanced, nil
	}
	return Hash, fmt.Errorf("partition: unknown strategy %q (want hash or degree-balanced)", s)
}

// Shard is one partition's store: the CSR slice of its owned nodes plus
// views of their feature and content rows. Local index i corresponds to
// global id Nodes[i]; its adjacency is Edges[Offsets[i]:Offsets[i+1]]
// with neighbor ids kept global (neighbors may live on other shards,
// exactly as in the distributed deployment).
type Shard struct {
	Nodes    []graph.NodeID
	Offsets  []int32
	Edges    []graph.Edge
	Features [][]int32
	Content  []tensor.Vec
}

// NumNodes returns the number of nodes this shard owns.
func (s *Shard) NumNodes() int { return len(s.Nodes) }

// NumEdges returns the number of edges this shard stores.
func (s *Shard) NumEdges() int { return len(s.Edges) }

// Routing is the node-to-shard lookup table — everything a client (local
// routing layer or remote stub pool) needs to direct a request to the
// owning shard. Under Hash it is pure arithmetic and carries no per-node
// state; under DegreeBalanced it is two int32 arrays indexed by node id.
// It serializes compactly (MarshalBinary/UnmarshalRouting) so shard
// servers can hand the table to connecting clients over the wire.
//
// The node-to-shard assignment itself is immutable for the lifetime of a
// partitioned graph; what moves in a live cluster is which server owns
// each shard. The Epoch versions that ownership: a server bumps its
// epoch whenever it acquires or drains a partition, and the epoch
// travels inside the serialized table so clients can tell a stale
// ownership view from a current one without re-reading the (possibly
// large) assignment arrays.
type Routing struct {
	strategy Strategy
	shards   int
	numNodes int
	epoch    uint64
	// nil under Hash where routing is arithmetic.
	owner []int32
	local []int32
}

// Partition is the result of splitting a graph: per-shard stores and the
// routing table mapping a global node id to (owner shard, local index).
type Partition struct {
	Routing
	// Per-shard stores.
	Shards []Shard
}

// RoutingTable returns the partition's routing table (shared, read-only).
func (p *Partition) RoutingTable() *Routing { return &p.Routing }

// Options tunes a split beyond the assignment strategy.
type Options struct {
	// Locality renumbers each shard's local indices in BFS order over the
	// shard-induced subgraph (seeds in decreasing-degree order, ties by
	// id) instead of ascending global id, so nodes that co-occur on
	// sampling frontiers land in adjacent CSR rows and the alias/edge
	// arrays stream instead of striding. External node ids, the
	// node-to-shard assignment and the routing wire format are untouched;
	// the cost is that both owner and local tables are materialized even
	// under Hash (8 bytes per node in the marshaled blob). The order is a
	// pure function of the graph, so every server splitting the same graph
	// computes identical local numbering.
	Locality bool
}

// SplitOpts partitions g into the given number of shards, laid out per
// opts. It panics on a non-positive shard count.
func SplitOpts(g *graph.Graph, shards int, strategy Strategy, opts Options) *Partition {
	if shards <= 0 {
		panic(fmt.Sprintf("partition: non-positive shard count %d", shards))
	}
	n := g.NumNodes()
	p := &Partition{
		Routing: Routing{strategy: strategy, shards: shards, numNodes: n},
		Shards:  make([]Shard, shards),
	}
	switch strategy {
	case Hash:
		// owner = id % shards, local = id / shards: no table needed —
		// unless locality reordering breaks the id/S arithmetic, in which
		// case both tables are materialized like DegreeBalanced's.
		if opts.Locality {
			p.owner = make([]int32, n)
			p.local = make([]int32, n)
			for id := 0; id < n; id++ {
				p.owner[id] = int32(uint32(id) % uint32(shards))
			}
		}
	case DegreeBalanced:
		p.owner = make([]int32, n)
		p.local = make([]int32, n)
		assignDegreeBalanced(g, shards, p.owner)
	default:
		panic(fmt.Sprintf("partition: unknown strategy %d", strategy))
	}

	// Count owned nodes and edges per shard.
	nodesPer := make([]int, shards)
	edgesPer := make([]int, shards)
	for id := 0; id < n; id++ {
		s := p.Owner(graph.NodeID(id))
		nodesPer[s]++
		edgesPer[s] += g.Degree(graph.NodeID(id))
	}
	for s := 0; s < shards; s++ {
		p.Shards[s] = Shard{
			Nodes:    make([]graph.NodeID, 0, nodesPer[s]),
			Offsets:  make([]int32, 1, nodesPer[s]+1),
			Edges:    make([]graph.Edge, 0, edgesPer[s]),
			Features: make([][]int32, 0, nodesPer[s]),
			Content:  make([]tensor.Vec, 0, nodesPer[s]),
		}
	}

	if opts.Locality {
		fillLocality(g, p)
		return p
	}

	// Fill per-shard CSR in ascending global id order, so local indices
	// are monotone in id within a shard (Hash's id/S arithmetic relies on
	// this ordering; DegreeBalanced records it in the table).
	for id := 0; id < n; id++ {
		nid := graph.NodeID(id)
		s := &p.Shards[p.Owner(nid)]
		if p.local != nil {
			p.local[id] = int32(len(s.Nodes))
		}
		s.Nodes = append(s.Nodes, nid)
		s.Edges = append(s.Edges, g.Neighbors(nid)...)
		s.Offsets = append(s.Offsets, int32(len(s.Edges)))
		s.Features = append(s.Features, g.Features(nid))
		s.Content = append(s.Content, g.Content(nid))
	}
	return p
}

// fillLocality fills every shard's CSR in BFS-discovery order over its
// induced subgraph and records the numbering in p.local. Seeds are tried
// in decreasing global degree (ties by ascending id), so each hub and
// the nodes reachable from it become one contiguous run of rows; the
// tail (nodes in components without an unvisited seed predecessor) is
// picked up by later seeds in the same deterministic scan.
func fillLocality(g *graph.Graph, p *Partition) {
	n := g.NumNodes()
	members := make([][]int32, p.shards)
	for id := 0; id < n; id++ {
		s := p.Owner(graph.NodeID(id))
		members[s] = append(members[s], int32(id))
	}
	visited := make([]bool, n) // shards are disjoint: one bitmap serves all
	for s := range p.Shards {
		order := localityOrder(g, p.owner, int32(s), members[s], visited)
		sh := &p.Shards[s]
		for pos, id32 := range order {
			nid := graph.NodeID(id32)
			p.local[id32] = int32(pos)
			sh.Nodes = append(sh.Nodes, nid)
			sh.Edges = append(sh.Edges, g.Neighbors(nid)...)
			sh.Offsets = append(sh.Offsets, int32(len(sh.Edges)))
			sh.Features = append(sh.Features, g.Features(nid))
			sh.Content = append(sh.Content, g.Content(nid))
		}
	}
}

// localityOrder returns shard s's members in BFS-discovery order:
// repeatedly take the highest-degree unvisited member as a seed and
// breadth-first expand along same-shard edges (adjacency order). The
// returned slice doubles as the BFS queue.
func localityOrder(g *graph.Graph, owner []int32, s int32, members []int32, visited []bool) []int32 {
	seeds := append([]int32(nil), members...)
	sort.Slice(seeds, func(i, j int) bool {
		di, dj := g.Degree(graph.NodeID(seeds[i])), g.Degree(graph.NodeID(seeds[j]))
		if di != dj {
			return di > dj
		}
		return seeds[i] < seeds[j]
	})
	order := make([]int32, 0, len(members))
	for _, seed := range seeds {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		order = append(order, seed)
		for qi := len(order) - 1; qi < len(order); qi++ {
			for _, e := range g.Neighbors(graph.NodeID(order[qi])) {
				if v := int32(e.To); owner[v] == s && !visited[v] {
					visited[v] = true
					order = append(order, v)
				}
			}
		}
	}
	return order
}

// assignDegreeBalanced fills owner with a greedy LPT assignment: nodes in
// decreasing degree order (ties by id) each go to the shard with the
// smallest edge total so far.
func assignDegreeBalanced(g *graph.Graph, shards int, owner []int32) {
	n := g.NumNodes()
	// Counting sort node ids by degree, descending.
	maxDeg := 0
	for id := 0; id < n; id++ {
		if d := g.Degree(graph.NodeID(id)); d > maxDeg {
			maxDeg = d
		}
	}
	buckets := make([]int32, maxDeg+2)
	for id := 0; id < n; id++ {
		buckets[maxDeg-g.Degree(graph.NodeID(id))+1]++
	}
	for i := 1; i < len(buckets); i++ {
		buckets[i] += buckets[i-1]
	}
	order := make([]int32, n)
	for id := 0; id < n; id++ {
		slot := maxDeg - g.Degree(graph.NodeID(id))
		order[buckets[slot]] = int32(id)
		buckets[slot]++
	}

	load := make([]int64, shards)
	for _, id := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		owner[id] = int32(best)
		load[best] += int64(g.Degree(id))
	}
}

// NumShards returns the shard count.
func (r *Routing) NumShards() int { return r.shards }

// NumNodes returns the node count of the partitioned graph.
func (r *Routing) NumNodes() int { return r.numNodes }

// Strategy returns the assignment strategy used.
func (r *Routing) Strategy() Strategy { return r.strategy }

// Epoch returns the shard-ownership epoch this table was serialized
// under (0 for a freshly split partition that has never moved a shard).
func (r *Routing) Epoch() uint64 { return r.epoch }

// SetEpoch stamps the table with a new ownership epoch. The node-to-shard
// assignment is untouched — only the version the next MarshalBinary
// carries changes.
func (r *Routing) SetEpoch(e uint64) { r.epoch = e }

// Owner returns the shard owning id: modular arithmetic under Hash, one
// array read under DegreeBalanced. It performs no allocation.
func (r *Routing) Owner(id graph.NodeID) int {
	if r.owner == nil {
		return int(uint32(id)) % r.shards
	}
	return int(r.owner[id])
}

// Local returns id's index within its owner shard's store.
func (r *Routing) Local(id graph.NodeID) int32 {
	if r.local == nil {
		return int32(uint32(id) / uint32(r.shards))
	}
	return r.local[id]
}

// The routing-table wire format: a magic header, then strategy, shard
// count, node count, the ownership epoch (u64, format version 2 onward)
// and a table-presence flag, then (when present) the owner and local
// arrays. All integers little-endian; u32 unless noted.
const (
	routingMagic = 0x5a4d5252 // "ZMRR"
	// v1 lacked the epoch; v3 appended a replica-placement section that
	// v4 dropped (clients learn server addresses from the epoch poll).
	routingVersion = 4
)

// ErrRoutingVersion is returned by UnmarshalRouting for a blob whose
// format version this build does not speak — in particular a version-1
// blob from a pre-epoch build, whose fixed header is shorter and would
// otherwise misparse as table data. Version skew between a shard server
// and the serving tier is a deployment error and is surfaced loudly, not
// papered over.
var ErrRoutingVersion = errors.New("partition: unsupported routing table version")

// ErrCorruptRouting is UnmarshalRouting's typed failure for everything
// that is not version skew: wrong magic, truncated, a count the blob is
// too short for, an owner out of range, or bytes after the last field.
var ErrCorruptRouting = errors.New("partition: corrupt routing table")

// MarshalBinary serializes the routing table (format version 4). Hash
// tables are 32 bytes regardless of graph size; DegreeBalanced tables
// carry 8 bytes per node on top.
func (r *Routing) MarshalBinary() ([]byte, error) {
	size := 6*4 + 8
	if r.owner != nil {
		size += 8 * r.numNodes
	}
	buf := make([]byte, 0, size)
	put := func(v uint32) { buf = binary.LittleEndian.AppendUint32(buf, v) }
	put(routingMagic)
	put(routingVersion)
	put(uint32(r.strategy))
	put(uint32(r.shards))
	put(uint32(r.numNodes))
	buf = binary.LittleEndian.AppendUint64(buf, r.epoch)
	if r.owner == nil {
		put(0)
	} else {
		put(1)
		for _, v := range r.owner {
			put(uint32(v))
		}
		for _, v := range r.local {
			put(uint32(v))
		}
	}
	return buf, nil
}

// UnmarshalRouting deserializes a table written by MarshalBinary. A blob
// of a different format version — e.g. from a pre-epoch build — fails
// with ErrRoutingVersion (wrapped with the versions involved) rather
// than misparsing; every other failure is ErrCorruptRouting.
func UnmarshalRouting(data []byte) (*Routing, error) {
	cu := wire.Cursor{B: data}
	if magic := cu.U32(); magic != routingMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorruptRouting, magic)
	}
	if version := cu.U32(); !cu.Bad && version != routingVersion {
		return nil, fmt.Errorf("%w: blob is version %d, this build reads version %d",
			ErrRoutingVersion, version, routingVersion)
	}
	strat, shards, numNodes, epoch := cu.U32(), cu.U32(), cu.U32(), cu.U64()
	cu.Bad = cu.Bad || strat > uint32(DegreeBalanced) || shards == 0
	r := &Routing{strategy: Strategy(strat), shards: int(shards), numNodes: int(numNodes), epoch: epoch}
	switch hasTable := cu.U32(); {
	case hasTable == 1 && cu.Fits(r.numNodes, 8):
		r.owner = make([]int32, r.numNodes)
		r.local = make([]int32, r.numNodes)
		for i := range r.owner {
			r.owner[i] = int32(cu.U32())
			cu.Bad = cu.Bad || uint32(r.owner[i]) >= shards
		}
		for i := range r.local {
			r.local[i] = int32(cu.U32())
		}
	case hasTable != 0:
		cu.Bad = true
	}
	if err := cu.Err(ErrCorruptRouting); err != nil {
		return nil, err
	}
	return r, nil
}
