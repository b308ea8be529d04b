package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"zoomer/internal/wire"
)

// Checkpoint format: magic, version, then each dense parameter and each
// embedding table with its name and shape. Loading validates names and
// shapes against the live model, so a checkpoint can only be restored
// into the architecture that produced it — the contract a production
// trainer/server pair needs.
const (
	ckptMagic   = 0x5a4d434b // "ZMCK"
	ckptVersion = 1
)

type ckptWriter struct {
	w   *bufio.Writer
	err error
}

func (cw *ckptWriter) u32(v uint32) {
	if cw.err != nil {
		return
	}
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, cw.err = cw.w.Write(buf[:])
}

func (cw *ckptWriter) f32s(vs []float32) {
	for _, v := range vs {
		cw.u32(math.Float32bits(v))
	}
}

func (cw *ckptWriter) str(s string) {
	cw.u32(uint32(len(s)))
	if cw.err == nil {
		_, cw.err = cw.w.WriteString(s)
	}
}

// SaveCheckpoint writes params and tables to w.
func SaveCheckpoint(w io.Writer, params []*Param, tables []*EmbeddingTable) error {
	cw := &ckptWriter{w: bufio.NewWriter(w)}
	cw.u32(ckptMagic)
	cw.u32(ckptVersion)
	cw.u32(uint32(len(params)))
	cw.u32(uint32(len(tables)))
	for _, p := range params {
		cw.str(p.Name)
		cw.u32(uint32(p.Val.Rows))
		cw.u32(uint32(p.Val.Cols))
		cw.f32s(p.Val.Data)
	}
	for _, t := range tables {
		cw.str(t.Name)
		cw.u32(uint32(t.Vocab()))
		cw.u32(uint32(t.Dim))
		cw.f32s(t.rows.Data)
	}
	if cw.err != nil {
		return cw.err
	}
	return cw.w.Flush()
}

// LoadCheckpoint restores params and tables from r. The checkpoint's
// names, shapes, and ordering must match the live model exactly, and
// nothing may follow the last table; every failure is wire.ErrMalformed.
// Optimizer state (Adam moments) is not checkpointed; training resumes
// with fresh moments, as XDL's sparse path does after failover.
func LoadCheckpoint(r io.Reader, params []*Param, tables []*EmbeddingTable) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("nn: reading checkpoint: %w", err)
	}
	cu := &wire.Cursor{B: data}
	if m := cu.U32(); m != ckptMagic {
		return ckptMismatch(cu, "bad magic %#x", m)
	}
	if v := cu.U32(); v != ckptVersion {
		return ckptMismatch(cu, "unsupported version %d", v)
	}
	if np, nt := cu.U32(), cu.U32(); int(np) != len(params) || int(nt) != len(tables) {
		return ckptMismatch(cu, "%d params and %d tables, model has %d and %d", np, nt, len(params), len(tables))
	}
	for _, p := range params {
		if err := loadSection(cu, "param", p.Name, p.Val.Rows, p.Val.Cols, p.Val.Data); err != nil {
			return err
		}
	}
	for _, t := range tables {
		if err := loadSection(cu, "table", t.Name, t.Vocab(), t.Dim, t.rows.Data); err != nil {
			return err
		}
	}
	return cu.Err(wire.ErrMalformed)
}

// loadSection restores one named rows×cols block into dst.
func loadSection(cu *wire.Cursor, kind, name string, rows, cols int, dst []float32) error {
	gotName, gotRows, gotCols := cu.Str(), cu.U32(), cu.U32()
	if gotName != name || int(gotRows) != rows || int(gotCols) != cols {
		return ckptMismatch(cu, "%s %q %dx%d, model expects %q %dx%d", kind, gotName, gotRows, gotCols, name, rows, cols)
	}
	for i := range dst {
		dst[i] = cu.F32()
	}
	return nil
}

// ckptMismatch types a checkpoint field that disagrees with the live
// model — unless the field was read past the end of the input, which is
// reported as the truncation it is.
func ckptMismatch(cu *wire.Cursor, format string, args ...any) error {
	if cu.Bad {
		return cu.Err(wire.ErrMalformed)
	}
	return fmt.Errorf("%w: checkpoint: %s", wire.ErrMalformed, fmt.Sprintf(format, args...))
}
