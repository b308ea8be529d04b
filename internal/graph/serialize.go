package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"zoomer/internal/tensor"
	"zoomer/internal/wire"
)

// The on-disk format of §VI ("the graphs are stored using compact
// binary-format files"): a magic header, node section (types, features,
// content vectors), then the CSR arrays. All integers are little-endian;
// content vectors are float32.
const (
	serialMagic   = 0x5a4d5247 // "ZMRG"
	serialVersion = 1
)

// WriteTo serializes the graph. It returns the number of bytes written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put := func(vs ...uint32) error {
		for _, v := range vs {
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], v)
			m, err := bw.Write(buf[:])
			n += int64(m)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := put(serialMagic, serialVersion, uint32(g.NumNodes()), uint32(len(g.edges)), uint32(g.contentDim)); err != nil {
		return n, err
	}
	// Node types.
	for _, t := range g.types {
		if err := put(uint32(t)); err != nil {
			return n, err
		}
	}
	// Features: length-prefixed id lists.
	for _, f := range g.features {
		if err := put(uint32(len(f))); err != nil {
			return n, err
		}
		for _, id := range f {
			if err := put(uint32(id)); err != nil {
				return n, err
			}
		}
	}
	// Content: presence flag + values.
	for _, c := range g.content {
		if c == nil {
			if err := put(0); err != nil {
				return n, err
			}
			continue
		}
		if err := put(1); err != nil {
			return n, err
		}
		for _, v := range c {
			if err := put(math.Float32bits(v)); err != nil {
				return n, err
			}
		}
	}
	// CSR offsets and edges.
	for _, off := range g.offsets {
		if err := put(uint32(off)); err != nil {
			return n, err
		}
	}
	for _, e := range g.edges {
		if err := put(uint32(e.To), uint32(e.Type), math.Float32bits(e.Weight)); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ErrCorruptFile is the typed failure of Read: the bytes are not a graph
// file this build's WriteTo wrote — wrong magic or version, truncated, a
// count the file is too short for, an id or type out of range, or bytes
// after the last edge.
var ErrCorruptFile = errors.New("graph: corrupt graph file")

// Read deserializes a graph written by WriteTo, straight into the CSR
// arrays the file already is. It accepts exactly what WriteTo writes —
// WriteTo of the result reproduces the input byte for byte — and sizes
// everything from the bytes it was given, never from the header alone.
func Read(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading graph file: %w", err)
	}
	cu := wire.Cursor{B: data}
	if magic := cu.U32(); magic != serialMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorruptFile, magic)
	}
	if version := cu.U32(); !cu.Bad && version != serialVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptFile, version)
	}
	// A node costs at least its type, feature count, content flag and
	// offset; an edge is three words.
	numNodes, numEdges, contentDim := cu.Count(16), cu.Count(12), int(cu.U32())
	g := &Graph{
		types:      make([]NodeType, numNodes),
		features:   make([][]int32, numNodes),
		content:    make([]tensor.Vec, numNodes),
		offsets:    make([]int32, numNodes+1),
		edges:      make([]Edge, numEdges),
		contentDim: contentDim,
	}
	for i := range g.types {
		t := cu.U32()
		cu.Bad = cu.Bad || t >= uint32(numNodeTypes)
		g.types[i] = NodeType(t)
	}
	for i := range g.features {
		if n := cu.Count(4); n > 0 {
			f := make([]int32, n)
			for j := range f {
				f[j] = int32(cu.U32())
			}
			g.features[i] = f
		}
	}
	// WriteTo declares the dimension of the rows it wrote: with no row
	// present it writes 0.
	dimUnused := contentDim != 0
	for i := range g.content {
		switch present := cu.U32(); {
		case present == 1 && cu.Fits(contentDim, 4):
			c := make(tensor.Vec, contentDim)
			for j := range c {
				c[j] = cu.F32()
			}
			g.content[i], dimUnused = c, false
		case present != 0:
			cu.Bad = true
		}
	}
	for i := range g.offsets {
		g.offsets[i] = int32(cu.U32())
		cu.Bad = cu.Bad || g.offsets[i] < 0 || (i > 0 && g.offsets[i] < g.offsets[i-1])
	}
	// The offsets index the edge array below, so they are settled first.
	if cu.Bad || dimUnused || g.offsets[0] != 0 || int(g.offsets[numNodes]) != numEdges {
		cu.Bad = true
		return nil, cu.Err(ErrCorruptFile)
	}
	for node := range g.types {
		run := g.edges[g.offsets[node]:g.offsets[node+1]]
		for j := range run {
			to, et, w := cu.U32(), cu.U32(), cu.F32()
			cu.Bad = cu.Bad || to >= uint32(numNodes) || et >= uint32(numEdgeTypes) || w < 0
			e := Edge{To: NodeID(to), Type: EdgeType(et), Weight: w}
			if j > 0 { // Build leaves a run sorted by (To, Type), duplicates merged
				p := run[j-1]
				cu.Bad = cu.Bad || p.To > e.To || (p.To == e.To && p.Type >= e.Type)
			}
			run[j] = e
		}
	}
	if err := cu.Err(ErrCorruptFile); err != nil {
		return nil, err
	}
	g.index()
	return g, nil
}
