package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zoomer/internal/engine"
	"zoomer/internal/graph"
	"zoomer/internal/ingest"
	"zoomer/internal/partition"
	"zoomer/internal/rng"
)

// ServerConfig sizes a shard server.
type ServerConfig struct {
	Shards   int                // total partitions of the graph
	Strategy partition.Strategy // node-to-shard assignment
	Owned    []int              // shard ids served at start (nil = all); handoffs move them later
	// Replicas is ignored: it was the in-shard replica count, kept only
	// because benchmark/ sets it — drop it in the next benchmark-only PR.
	// Replication is servers claiming the same partition (replica groups).
	Replicas int
	// Locality enables BFS row renumbering within each shard
	// (partition.Options.Locality). Every server of one cluster must
	// agree on it — local indices travel in the routing blob, and the
	// reorder is deterministic, so same graph + same flag = same layout.
	Locality bool

	// Advertise is the address other cluster members and serving-tier
	// clients should reach this server at. When set, the server joins the
	// membership registry (its routing-epoch replies carry the member
	// list) and fans appends out to its replica siblings; when empty the
	// server is invisible to dynamic discovery.
	Advertise string

	// WALDir enables durable ingestion: each owned shard logs appends to
	// a write-ahead log under <WALDir>/shard-<id> before applying them,
	// and replays the log into the freshly built store on startup and on
	// partition acquisition — a kill -9 mid-append recovers to the exact
	// pre-crash ingest epoch. Empty disables durability: appends apply
	// in memory only and die with the process.
	WALDir string
	// Fsync makes every append group-commit to disk before it is
	// acknowledged (see ingest.Options.Fsync). Meaningless without WALDir.
	Fsync bool

	// connWorkers and connWindow override the dispatch constants (zero:
	// the constant); tests shrink them.
	connWorkers, connWindow int
}

// Each connection's requests are served by dispatchWorkers concurrent
// workers, with at most dispatchWindow decoded requests buffered behind
// them; the read loop blocks once they are full — backpressure against a
// client whose window outruns the server.
const (
	dispatchWorkers  = 4
	dispatchWindow   = 64
	handshakeTimeout = 5 * time.Second
)

// Server owns the in-process stores for some partitions of a graph and
// serves them over TCP. Construction does the heavy lifting of the
// paper's deployment shard-side — partitioning and alias-table builds —
// so a connecting client needs only the routing table. Every connection
// runs a preface handshake (loud protocol-version mismatch), then a read
// loop feeding a bounded per-connection worker group: pipelined requests
// dispatch concurrently and responses return tagged by request id, in
// completion order. The shard stores themselves are immutable and read
// lock-free, so dispatch concurrency scales with the worker count.
//
// Ownership is dynamic: acquirePartition and releasePartition (driven by
// the reassign op, i.e. zoomer-shard's admin mode) move partitions in
// and out of the served set at runtime without restarting the server.
// Each change installs a new immutable ownership snapshot behind an
// atomic pointer and bumps the routing epoch; requests already
// dispatched keep the store they resolved and complete normally, while
// requests for a partition this snapshot does not own are answered with
// the wrong-epoch redirect that tells clients to re-resolve ownership.
type Server struct {
	part       *partition.Partition
	own        atomic.Pointer[ownership] // current epoch + served stores
	numNodes   int
	contentDim int
	workers    int
	window     int
	advertise  string
	ownMu      sync.Mutex // serializes ownership transitions

	memMu   sync.Mutex // membership registry: advertised addresses of known servers
	members map[string]struct{}

	// write path: per-shard ingest state (WAL + apply ordering), the
	// cached clients appends fan out to replica siblings over, and the
	// count of fan-out copies that could not be delivered (replica lag).
	walDir     string
	fsync      bool
	ingMu      sync.Mutex
	ingests    map[int]*shardIngest
	fanMu      sync.Mutex
	fanPeers   map[string]*fanPeer
	replicaLag atomic.Int64

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	opCounts [numOps]atomic.Int64
}

// shardIngest is one owned shard's write-path state. mu orders the
// dup/gap check, WAL write and delta apply of one append as a unit; the
// fan-out stage chains to fanMu (acquired before mu is released, so
// copies leave in sequence order) because mu must never be held across a
// network call — two replicas fanning out to each other would deadlock
// on each other's apply mutex. The fsync group-commit wait happens after
// both so concurrent appends coalesce into one sync. wal is nil when the
// server runs without durability (no WALDir).
type shardIngest struct {
	mu    sync.Mutex
	fanMu sync.Mutex
	wal   *ingest.WAL
}

// ownership is one immutable view of the partitions this server serves:
// the stores, the epoch that versions them, and the routing blob
// (stamped with that epoch, so connecting clients see the current one).
// Handlers load it once per request, so a request resolves its store and
// completes against it even while a reassignment installs a successor.
// ids lists the owned partitions in id order, so every reply that
// enumerates them is deterministic.
type ownership struct {
	epoch   uint64
	shards  map[int]*engine.Shard
	ids     []int
	routing []byte
}

// NewServer partitions g and builds the owned shards' stores and alias
// tables. It panics on an invalid config (mirroring engine.New).
func NewServer(g *graph.Graph, cfg ServerConfig) *Server {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.connWorkers <= 0 {
		cfg.connWorkers = dispatchWorkers
	}
	if cfg.connWindow <= 0 {
		cfg.connWindow = dispatchWindow
	}
	part := partition.SplitOpts(g, cfg.Shards, cfg.Strategy, partition.Options{Locality: cfg.Locality})
	owned := cfg.Owned
	if owned == nil {
		owned = make([]int, cfg.Shards)
		for i := range owned {
			owned[i] = i
		}
	}
	s := &Server{
		part:       part,
		numNodes:   g.NumNodes(),
		contentDim: g.ContentDim(),
		workers:    cfg.connWorkers,
		window:     cfg.connWindow,
		advertise:  cfg.Advertise,
		walDir:     cfg.WALDir,
		fsync:      cfg.Fsync,
		ingests:    make(map[int]*shardIngest),
		conns:      make(map[net.Conn]struct{}),
		members:    make(map[string]struct{}),
	}
	if cfg.Advertise != "" {
		s.members[cfg.Advertise] = struct{}{}
	}
	shards := make(map[int]*engine.Shard, len(owned))
	for _, id := range owned {
		if id < 0 || id >= cfg.Shards {
			panic(fmt.Sprintf("rpc: owned shard %d of %d", id, cfg.Shards))
		}
		shards[id] = engine.BuildShard(part, id, 0)
		if err := s.openIngest(id, shards[id]); err != nil {
			// An unreadable WAL directory at boot is a deployment fault on
			// par with an invalid config; refusing to start beats serving a
			// shard whose durable history cannot be honored.
			panic(err.Error())
		}
	}
	s.own.Store(s.newOwnership(0, shards))
	return s
}

// openIngest creates shard id's write-path state, replaying its WAL into
// the freshly built store when durability is configured — the recovery
// half of crash consistency: the store's ingest epoch after replay equals
// the WAL's last durable sequence number.
func (s *Server) openIngest(id int, sh *engine.Shard) error {
	ing := &shardIngest{}
	if s.walDir != "" {
		dir := filepath.Join(s.walDir, fmt.Sprintf("shard-%d", id))
		w, recovered, err := ingest.Open(dir, ingest.Options{Fsync: s.fsync})
		if err != nil {
			return fmt.Errorf("rpc: open WAL for shard %d: %w", id, err)
		}
		for _, rec := range recovered {
			if _, _, aerr := sh.ApplyAppend(rec.Seq, rec.Edges); aerr != nil {
				w.Close()
				return fmt.Errorf("rpc: replay WAL record %d for shard %d: %w", rec.Seq, id, aerr)
			}
		}
		ing.wal = w
	}
	s.ingMu.Lock()
	s.ingests[id] = ing
	s.ingMu.Unlock()
	return nil
}

// ingestFor returns shard id's write-path state, nil once the shard has
// been released.
func (s *Server) ingestFor(id int) *shardIngest {
	s.ingMu.Lock()
	defer s.ingMu.Unlock()
	return s.ingests[id]
}

// closeIngest drops shard id's write-path state and closes its WAL.
func (s *Server) closeIngest(id int) {
	s.ingMu.Lock()
	ing := s.ingests[id]
	delete(s.ingests, id)
	s.ingMu.Unlock()
	if ing != nil && ing.wal != nil {
		ing.mu.Lock()
		ing.wal.Close()
		ing.mu.Unlock()
	}
}

// newOwnership stamps a served-store set with its epoch and the matching
// routing blob: the partition's table marshaled with the epoch set. The
// table is the same at every epoch, so the blob changes only in its epoch
// field; transitions are rare, and the copy leaves the shared table as is.
func (s *Server) newOwnership(epoch uint64, shards map[int]*engine.Shard) *ownership {
	ids := make([]int, 0, len(shards))
	for id := 0; id < s.part.NumShards(); id++ {
		if shards[id] != nil {
			ids = append(ids, id)
		}
	}
	rt := *s.part.RoutingTable()
	rt.SetEpoch(epoch)
	blob, err := rt.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("rpc: marshal routing: %v", err))
	}
	return &ownership{epoch: epoch, shards: shards, ids: ids, routing: blob}
}

// acquirePartition loads partition id's CSR slice and alias tables and
// adds it to the served set, bumping the routing epoch — the destination
// half of a live shard handoff (reassign/acquire over the wire; run it
// on the destination before draining the source so the partition never
// goes unowned). The build happens outside any lock; requests keep being
// served throughout. Acquiring an already-owned partition is a no-op
// returning the current epoch.
func (s *Server) acquirePartition(id int) (uint64, error) {
	if id < 0 || id >= s.part.NumShards() {
		return 0, fmt.Errorf("rpc: partition %d out of range [0,%d)", id, s.part.NumShards())
	}
	if o := s.own.Load(); o.shards[id] != nil {
		return o.epoch, nil
	}
	sh := engine.BuildShard(s.part, id, 0)
	s.ownMu.Lock()
	defer s.ownMu.Unlock()
	o := s.own.Load()
	if o.shards[id] != nil {
		return o.epoch, nil // lost a race to a concurrent acquire; drop our build
	}
	// Replay the shard's durable history (if any) before the partition
	// becomes visible: the first append it serves must continue the WAL's
	// sequence, not restart it.
	if err := s.openIngest(id, sh); err != nil {
		return 0, err
	}
	shards := maps.Clone(o.shards)
	shards[id] = sh
	next := s.newOwnership(o.epoch+1, shards)
	s.own.Store(next)
	return next.epoch, nil
}

// releasePartition drains partition id: it leaves the served set and the
// routing epoch bumps, so requests decoded from now on are answered with
// the wrong-epoch redirect while requests already dispatched complete
// against the store they resolved. The source half of a live handoff;
// releasing a partition this server does not own is a no-op returning
// the current epoch.
func (s *Server) releasePartition(id int) (uint64, error) {
	if id < 0 || id >= s.part.NumShards() {
		return 0, fmt.Errorf("rpc: partition %d out of range [0,%d)", id, s.part.NumShards())
	}
	s.ownMu.Lock()
	defer s.ownMu.Unlock()
	o := s.own.Load()
	if o.shards[id] == nil {
		return o.epoch, nil
	}
	shards := maps.Clone(o.shards)
	delete(shards, id)
	next := s.newOwnership(o.epoch+1, shards)
	s.own.Store(next)
	// Appends decoded from now on answer with the redirect (their
	// ingestFor lookup finds nothing); the WAL closes once the state is
	// unpublished so a re-acquire reopens a consistent log.
	s.closeIngest(id)
	return next.epoch, nil
}

// Start begins accepting connections on ln (ownership transfers to the
// server; Close closes it). It returns immediately.
func (s *Server) Start(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				c.Close()
				return
			}
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go s.handle(c)
		}
	}()
}

// ListenAndServe listens on addr and starts serving.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.Start(ln)
	return nil
}

// Addr returns the listening address (nil before Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener, severs every open connection (in-flight
// requests observe a closed socket — how the fault-injection tests kill a
// shard mid-batch) and waits for the handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.ln = nil
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	// Handlers have drained: close the WALs (syncing their tails) and the
	// fan-out clients.
	s.ingMu.Lock()
	ings := s.ingests
	s.ingests = make(map[int]*shardIngest)
	s.ingMu.Unlock()
	for _, ing := range ings {
		if ing.wal != nil {
			ing.wal.Close()
		}
	}
	s.fanMu.Lock()
	fans := s.fanPeers
	s.fanPeers = nil
	s.fanMu.Unlock()
	for _, fp := range fans {
		fp.Close()
	}
	return nil
}

// ReplicaLag reports how many append fan-out copies were not delivered
// to a replica sibling, failed or skipped while its circuit was open —
// each one is a record a sibling will only regain by replaying its own
// WAL or being re-acquired.
func (s *Server) ReplicaLag() int64 { return s.replicaLag.Load() }

// OpCount reports how many requests of one op this server has served —
// the request accounting the round-trip budget tests assert against
// (one OpBatch per owning shard per scatter-gather hop).
func (s *Server) OpCount(op Op) int64 {
	if op >= numOps {
		return 0
	}
	return s.opCounts[op].Load()
}

// memberList returns the advertised addresses of every server this one
// knows — itself included when it advertises — sorted for deterministic
// wire encoding.
func (s *Server) memberList() []string {
	s.memMu.Lock()
	out := make([]string, 0, len(s.members))
	for a := range s.members {
		out = append(out, a)
	}
	s.memMu.Unlock()
	sort.Strings(out)
	return out
}

// addMembers merges advertised addresses into the membership registry.
// Empty and over-long addresses are dropped; the registry is bounded at
// maxMembers, beyond which new addresses are ignored (a registry that
// large signals an announce storm, not a cluster).
func (s *Server) addMembers(addrs ...string) {
	s.memMu.Lock()
	defer s.memMu.Unlock()
	for _, a := range addrs {
		if a == "" || len(a) > 256 || len(s.members) >= maxMembers {
			continue
		}
		s.members[a] = struct{}{}
	}
}

// AnnounceTo registers this server with a peer over the members op and
// merges the peer's member view back — how a server joining a running
// cluster becomes discoverable: announce to any live member, and every
// client refreshing from that member learns the new address. timeout
// bounds the exchange; 0 means defaultTimeout.
func (s *Server) AnnounceTo(peer string, timeout time.Duration) error {
	if s.advertise == "" {
		return errors.New("rpc: AnnounceTo on a server without an advertise address")
	}
	cl := newClient(peer, ClientConfig{conns: 1, Timeout: timeout})
	defer cl.Close()
	theirs, err := cl.members(s.advertise)
	if err != nil {
		return fmt.Errorf("rpc: announce to %s: %w", peer, err)
	}
	s.addMembers(peer)
	s.addMembers(theirs...)
	return nil
}

// OwnedShards returns the ids of the partitions served now, in id order.
func (s *Server) OwnedShards() []int { return slices.Clone(s.own.Load().ids) }

// serverConn is one dispatch worker's scratch: framing buffers plus the
// decode/sample staging reused across requests, so a healthy
// sample/batch request cycle allocates nothing server-side.
type serverConn struct {
	frameScratch
	batch batchRequest
	out   []graph.NodeID
	edges []ingest.Edge
	r     rng.RNG

	// read-nodes staging: the request's ids and the block the store's
	// views land in before encoding.
	readIDs []graph.NodeID
	blk     graph.NodeBlock
}

// reqSlot is one buffered request: its id and a copy of [op | payload]
// (the read loop's frame buffer is reused for the next frame before the
// dispatch worker runs). Slot buffers are reused across requests.
type reqSlot struct {
	id  uint64
	buf []byte
}

// handshake runs the server side of the preface exchange. A prefaced
// peer always gets this server's preface back, so a client on another
// version reads the server's version and names both in its dial error;
// the connection then closes on a mismatch. A peer that does not speak
// the preface — a protocol-1 client whose first bytes are a bare frame —
// is answered with an old-style error frame naming the mismatch (which a
// v1 client surfaces as a remote error) and dropped.
func (s *Server) handshake(c net.Conn) bool {
	var pre [prefaceLen]byte
	c.SetDeadline(time.Now().Add(handshakeTimeout))
	defer c.SetDeadline(time.Time{})
	// Read the 4-byte magic alone first: a protocol-1 client's first
	// bytes are a bare frame header, possibly of a request shorter than
	// the full preface, and it must not be left hanging for more bytes.
	if _, err := io.ReadFull(c, pre[:4]); err != nil {
		return false
	}
	if [4]byte{pre[0], pre[1], pre[2], pre[3]} != prefaceMagic {
		// Old-style frame: u32 length, status byte, error text — the one
		// shape a pre-multiplexing client can decode.
		msg := fmt.Sprintf("protocol version mismatch: server speaks v%d, client v1; upgrade the older side", ProtocolVersion)
		reply := make([]byte, 4, 5+len(msg))
		reply = append(reply, statusErr)
		reply = append(reply, msg...)
		binary.LittleEndian.PutUint32(reply[:4], uint32(len(reply)-4))
		c.Write(reply)
		return false
	}
	if _, err := io.ReadFull(c, pre[4:]); err != nil {
		return false
	}
	version := binary.LittleEndian.Uint32(pre[4:8])
	_, err := c.Write(appendPreface(pre[:0], ProtocolVersion))
	return err == nil && version == ProtocolVersion
}

func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	if !s.handshake(c) {
		return
	}

	// Bounded per-connection dispatch: the read loop decodes frames into
	// pooled request slots (a LIFO free list keeps the warm-buffer set
	// small) and the workers serve them concurrently, writing responses
	// under a shared write lock. Workers start lazily: while the
	// connection has exactly one request outstanding and no more input
	// buffered — the request-at-a-time steady state — the read loop
	// serves inline, skipping the handoff entirely; a pipelined burst
	// spills to the worker group and overlaps.
	slots := make([]reqSlot, s.window)
	free := newSlotStack(s.window)
	var reqs chan int32
	var inflight atomic.Int32
	var wmu sync.Mutex
	var cwg sync.WaitGroup
	startWorkers := func() {
		reqs = make(chan int32, s.window)
		for w := 0; w < s.workers; w++ {
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				sc := &serverConn{}
				for idx := range reqs {
					s.serve(c, &slots[idx], sc, &wmu)
					inflight.Add(-1)
					free.push(idx)
				}
			}()
		}
	}

	var fs frameScratch
	inline := &serverConn{}
	var inlineSlot reqSlot
	br := bufio.NewReaderSize(c, readBufSize)
	for {
		body, err := fs.readFrame(br)
		if err != nil || len(body) < 9 {
			break // peer gone or corrupt framing; drop the connection
		}
		if inflight.Load() == 0 && br.Buffered() == 0 {
			// Borrowing the frame buffer is safe: the inline serve
			// completes before the next readFrame reuses it.
			inlineSlot.id = binary.LittleEndian.Uint64(body[:8])
			inlineSlot.buf = body[8:]
			s.serve(c, &inlineSlot, inline, &wmu)
			continue
		}
		idx, _ := free.pop(nil)
		sl := &slots[idx]
		sl.id = binary.LittleEndian.Uint64(body[:8])
		sl.buf = append(sl.buf[:0], body[8:]...)
		inflight.Add(1)
		if reqs == nil {
			startWorkers()
		}
		reqs <- idx
	}
	if reqs != nil {
		close(reqs)
	}
	cwg.Wait()
}

// serve runs one request through its op's handler — counting it exactly
// when the op has one — and writes the response frame. A wrong-epoch
// outcome (the request targeted a partition outside the ownership
// snapshot) is answered with a statusMoved redirect frame; any other
// error, an unknown op included, with a statusErr frame.
func (s *Server) serve(c net.Conn, sl *reqSlot, sc *serverConn, wmu *sync.Mutex) {
	op := Op(sl.buf[0])
	var resp []byte
	var err error
	if handle := op.spec().serve; handle != nil {
		s.opCounts[op].Add(1)
		// One ownership snapshot per request: the store it resolves stays
		// valid for the whole dispatch even if a reassignment lands meanwhile.
		resp, err = handle(s, s.own.Load(), sl.buf[1:], sc)
	} else {
		err = fmt.Errorf("rpc: unknown op %d", byte(op))
	}
	if err != nil {
		var mv *movedError
		if errors.As(err, &mv) {
			resp = appendMoved(sc.begin(statusMoved), mv.epoch, mv.shard)
		} else {
			resp = append(sc.begin(statusErr), err.Error()...)
		}
	}
	wmu.Lock()
	c.SetWriteDeadline(time.Now().Add(defaultTimeout))
	werr := sc.writeFrame(c, resp, sl.id)
	wmu.Unlock()
	if werr != nil {
		c.Close() // unblocks the read loop; the connection is done
	}
}

// shardFor routes id to its owning store within one ownership snapshot.
// A partition outside the snapshot — drained by a handoff, or a stale
// client routing view — yields the redirect error; an out-of-range node
// id a plain one.
func (s *Server) shardFor(o *ownership, id graph.NodeID) (*engine.Shard, error) {
	if id < 0 || int(id) >= s.numNodes {
		return nil, fmt.Errorf("rpc: node %d out of range [0,%d)", id, s.numNodes)
	}
	owner := s.part.Owner(id)
	sh, ok := o.shards[owner]
	if !ok {
		return nil, &movedError{shard: owner, epoch: o.epoch}
	}
	return sh, nil
}

// visitShard resolves the store of a scatter-gather request — a batch or
// a bulk read. One request is one shard visit: every id must live on the
// same owned shard (the client stub groups per shard before calling).
func (s *Server) visitShard(o *ownership, op Op, gids []graph.NodeID) (*engine.Shard, error) {
	sh, err := s.shardFor(o, gids[0])
	if err != nil {
		return nil, err
	}
	owner := s.part.Owner(gids[0])
	for _, id := range gids[1:] {
		if id < 0 || int(id) >= s.numNodes || s.part.Owner(id) != owner {
			return nil, fmt.Errorf("rpc: %v mixes shards (%d and node %d)", op, owner, id)
		}
	}
	return sh, nil
}

// owned lists the snapshot's partitions in id order, each with its size
// and its write-path row: delta-layer shape from the store, WAL counters
// from the log.
func (s *Server) owned(o *ownership) []ShardInfo {
	out := make([]ShardInfo, len(o.ids))
	for i, id := range o.ids {
		st := o.shards[id].IngestStats()
		if ing := s.ingestFor(id); ing != nil && ing.wal != nil {
			ws := ing.wal.Stats()
			st.WALSegments, st.Fsyncs, st.FsyncNanos, st.FsyncHist = ws.Segments, ws.Fsyncs, ws.FsyncNanos, ws.FsyncHist
		}
		out[i] = ShardInfo{ID: id, Nodes: s.part.Shards[id].NumNodes(), Edges: s.part.Shards[id].NumEdges(), Ingest: &st}
	}
	return out
}

// IngestStats reports every owned shard's write-path state in shard order.
func (s *Server) IngestStats() []engine.IngestStats {
	owned := s.owned(s.own.Load())
	out := make([]engine.IngestStats, len(owned))
	for i, sh := range owned {
		out[i] = *sh.Ingest
	}
	return out
}

// The op handlers, one per row of the ops table.

// handleInfo answers the handshake: the graph's shape and the owned
// partitions.
func (s *Server) handleInfo(o *ownership, _ []byte, sc *serverConn) ([]byte, error) {
	return appendInfo(sc.begin(statusOK), Info{NumNodes: s.numNodes, ContentDim: s.contentDim,
		NumShards: s.part.NumShards(), Strategy: s.part.Strategy(), Owned: s.owned(o)}), nil
}

// handleRouting answers with the snapshot's routing blob.
func (s *Server) handleRouting(o *ownership, _ []byte, sc *serverConn) ([]byte, error) {
	return append(sc.begin(statusOK), o.routing...), nil
}

// handleReassign executes an admin acquire/release command and answers
// with the resulting epoch.
func (s *Server) handleReassign(_ *ownership, payload []byte, sc *serverConn) ([]byte, error) {
	shard, acquire, err := decodeReassignRequest(payload)
	if err != nil {
		return nil, err
	}
	move := s.releasePartition
	if acquire {
		move = s.acquirePartition
	}
	epoch, err := move(shard)
	if err != nil {
		return nil, err
	}
	return appendU64(sc.begin(statusOK), epoch), nil
}

// handleEpoch answers the ownership poll: current epoch plus the served
// partitions — enough for a client to rebind moved shards without
// re-fetching the routing blob — the member view, so every poll doubles
// as membership discovery, and the per-shard ingest rows, so every poll
// doubles as write-path observability.
func (s *Server) handleEpoch(o *ownership, _ []byte, sc *serverConn) ([]byte, error) {
	return appendEpoch(sc.begin(statusOK), o.epoch, s.owned(o), s.memberList()), nil
}

// handleMembers runs the membership exchange: a non-empty announce joins
// the registry, and the response is the current member view.
func (s *Server) handleMembers(_ *ownership, payload []byte, sc *serverConn) ([]byte, error) {
	announce, err := decodeMembersRequest(payload)
	if err != nil {
		return nil, err
	}
	if announce != "" {
		s.addMembers(announce)
	}
	return appendAddrList(sc.begin(statusOK), s.memberList()), nil
}

func (s *Server) handleSample(o *ownership, payload []byte, sc *serverConn) ([]byte, error) {
	id, k, st, err := decodeSampleRequest(payload)
	if err != nil {
		return nil, err
	}
	sh, err := s.shardFor(o, id)
	if err != nil {
		return nil, err
	}
	if cap(sc.out) < k {
		sc.out = make([]graph.NodeID, k)
	}
	// The caller's stream continues here: restore its state, draw
	// shard-side exactly as an in-process call would, hand the advanced
	// state back.
	sc.r.SetState(st)
	n := sh.SampleNeighborsInto(id, sc.out[:k], &sc.r)
	return appendSampleResponse(sc.begin(statusOK), sc.r.State(), sc.out[:n]), nil
}

func (s *Server) handleBatch(o *ownership, payload []byte, sc *serverConn) ([]byte, error) {
	req := &sc.batch
	if err := decodeBatchRequest(payload, req); err != nil {
		return nil, err
	}
	k, gids, idx := req.k, req.gids, req.idx
	sh, err := s.visitShard(o, OpBatch, gids)
	if err != nil {
		return nil, err
	}
	// Each entry is drawn from its own (base, idx[j]) sub-stream — so the
	// draws are bit-identical to an in-process visit's — and encoded at
	// once: staging is one entry's k draws, whatever batch indices the
	// client sends.
	if cap(sc.out) < k {
		sc.out = make([]graph.NodeID, k)
	}
	draws := sc.out[:k]
	b := sc.begin(statusOK)
	at, total := len(b), 0
	b = appendU32(b, 0) // the total, known once every entry is drawn
	for j, id := range gids {
		n := sh.SampleEntryInto(id, req.base, idx[j], draws, &sc.r)
		total += n
		b = appendDraws(b, draws[:n])
	}
	binary.LittleEndian.PutUint32(b[at:], uint32(total))
	return b, nil
}

// handleAppend serves the idempotent durable write: validate, WAL-log,
// apply to the delta layer, fan out to replica siblings, then
// group-commit — acknowledging only once the record is as durable as the
// configuration promises. The dup/gap check and the
// WAL+apply run as a unit under the shard's ingest mutex, so concurrent
// writers serialize into one strictly sequenced history; fan-out chains
// to its own mutex and the fsync wait happens last so syncs coalesce.
func (s *Server) handleAppend(o *ownership, payload []byte, sc *serverConn) ([]byte, error) {
	shard, fanout, rec, err := decodeAppendRequest(payload, sc.edges)
	if err != nil {
		return nil, err
	}
	seq, edges := rec.Seq, rec.Edges
	sc.edges = edges
	if len(edges) == 0 {
		return nil, fmt.Errorf("rpc: append of zero edges")
	}
	if shard < 0 || shard >= s.part.NumShards() {
		return nil, fmt.Errorf("rpc: append shard %d out of range [0,%d)", shard, s.part.NumShards())
	}
	if seq == 0 {
		return nil, fmt.Errorf("rpc: append sequence numbers start at 1")
	}
	sh, ok := o.shards[shard]
	if !ok {
		return nil, &movedError{shard: shard, epoch: o.epoch}
	}
	// Validate before the WAL write: the log must never hold a record
	// replay would refuse.
	if err := sh.ValidateAppend(edges); err != nil {
		return nil, err
	}
	ing := s.ingestFor(shard)
	if ing == nil {
		// Released between the snapshot load and here; the current epoch
		// tells the client its view is stale.
		return nil, &movedError{shard: shard, epoch: s.own.Load().epoch}
	}

	ing.mu.Lock()
	cur := sh.LastAppliedSeq()
	if seq <= cur {
		ing.mu.Unlock()
		return appendAppendResult(sc.begin(statusOK), appendDup, cur), nil
	}
	if seq != cur+1 {
		ing.mu.Unlock()
		return appendAppendResult(sc.begin(statusOK), appendGap, cur), nil
	}
	var commit int64
	if ing.wal != nil {
		var werr error
		commit, werr = ing.wal.Write(seq, edges)
		if werr != nil {
			ing.mu.Unlock()
			return nil, werr
		}
	}
	if _, _, aerr := sh.ApplyAppend(seq, edges); aerr != nil {
		// Unreachable short of a bug: validation ran pre-WAL and the
		// sequence was checked under this mutex. Surface loudly — the WAL
		// now holds a record the store refused.
		ing.mu.Unlock()
		return nil, fmt.Errorf("rpc: apply after WAL write: %w", aerr)
	}
	if !fanout {
		// Chain into the fan-out stage before releasing the apply mutex:
		// copies leave in sequence order, so a healthy sibling never sees
		// a gap, yet no mutex a fan-out copy needs at the receiver is held
		// across the network call. The cost — replica RTTs serialize this
		// shard's writers — is the price of not needing a per-sibling
		// reorder buffer; lagging siblings are counted, logged and left to
		// WAL replay rather than retried forever.
		ing.fanMu.Lock()
		ing.mu.Unlock()
		s.fanoutAppend(shard, seq, edges)
		ing.fanMu.Unlock()
	} else {
		ing.mu.Unlock()
	}
	if ing.wal != nil {
		if err := ing.wal.Sync(commit); err != nil {
			// The record is applied in memory but its durability is void;
			// the sticky WAL failure makes every later append fail typed.
			return nil, err
		}
	}
	return appendAppendResult(sc.begin(statusOK), appendApplied, seq), nil
}

// fanoutTimeout bounds each fan-out copy, dial included: the primary
// acks only after its fan-out, so a silent sibling must cost an append
// no more than this.
const fanoutTimeout = 500 * time.Millisecond

// fanPeer is the cached fan-out client for one sibling; down marks an
// outage that has been logged and has not ended.
type fanPeer struct {
	*client
	down atomic.Bool
}

// fanPeer returns (creating on first use) the fan-out client for peer.
func (s *Server) fanPeer(peer string) *fanPeer {
	s.fanMu.Lock()
	defer s.fanMu.Unlock()
	if s.fanPeers == nil {
		s.fanPeers = make(map[string]*fanPeer)
	}
	fp := s.fanPeers[peer]
	if fp == nil {
		fp = &fanPeer{client: newClient(peer, ClientConfig{conns: 1, Timeout: fanoutTimeout})}
		s.fanPeers[peer] = fp
	}
	return fp
}

// fanoutAppend forwards one applied record to every known sibling, one
// attempt each. A sibling that redirects (does not serve the shard) is
// not a replica and is skipped; one that answers gap is lagging (it
// missed earlier records) and will catch up from its own WAL or a
// re-acquire; one whose circuit is open is not called at all, so a dead
// or silent sibling costs an append nothing once its circuit opens.
// Every copy not delivered counts in replicaLag, and each sibling's
// outage is logged once, when it starts — durability of the primary's
// ack never depends on sibling delivery.
func (s *Server) fanoutAppend(shard int, seq uint64, edges []ingest.Edge) {
	if s.advertise == "" {
		return
	}
	for _, peer := range s.memberList() {
		if peer == s.advertise {
			continue
		}
		fp := s.fanPeer(peer)
		if !fp.Healthy() {
			s.replicaLag.Add(1)
			continue
		}
		res, peerSeq, err := fp.appendOnce(shard, seq, edges, true)
		switch {
		case err == nil && res == appendGap:
			err = fmt.Errorf("replica behind at seq %d", peerSeq)
		case errors.Is(err, engine.ErrWrongEpoch):
			err = nil // not a replica of this shard; nothing to forward
		}
		if err == nil {
			fp.down.Store(false)
			continue
		}
		s.replicaLag.Add(1)
		if !fp.down.Swap(true) {
			logf("rpc: append fan-out to %s (shard %d, seq %d) failed; its missed copies count as replica lag until one lands: %v",
				peer, shard, seq, err)
		}
	}
}
