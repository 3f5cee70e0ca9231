// Package col provides the columnar chunk layout of the vectorized
// execution path: a Chunk re-encodes a batch of tuples column-wise, one
// contiguous value slice per attribute, so operator kernels
// (internal/plan) run as tight per-column loops instead of per-row
// closure calls.
//
// A Chunk carries a per-column "all constants" sidecar (Const): column j
// is marked true while no null has been appended to it.  Kernels use the
// sidecar to skip null handling wholesale — certain-answer
// materialization skips the per-row completeness scan over all-constant
// columns, and the hash-join probe takes its all-constant fast path when
// both the probe columns and the build side are null-free.
//
// Chunks convert to and from []table.Tuple at operator boundaries that
// still need rows (FromTuples, AppendTuples): values are copied in both
// directions, so a tuple gathered out of a chunk never aliases chunk
// storage and stays valid after the chunk is reset or recycled.
package col

import (
	"incdata/internal/table"
	"incdata/internal/value"
)

// Chunk is a column-major batch of tuples: Cols[j][i] is attribute j of
// row i.  All columns have length Rows.  The zero Chunk is empty and
// ready for Reset.
type Chunk struct {
	// Cols holds one value vector per attribute.
	Cols [][]value.Value
	// Const is the null sidecar: Const[j] is true while column j contains
	// no null (every value is a constant).
	Const []bool
	// Rows is the number of rows in the chunk.
	Rows int
}

// New returns a chunk with the given arity, each column pre-allocated to
// the given capacity.
func New(arity, capacity int) *Chunk {
	c := &Chunk{}
	c.Reset(arity)
	for j := range c.Cols {
		c.Cols[j] = make([]value.Value, 0, capacity)
	}
	return c
}

// Reset truncates the chunk to zero rows with the given arity, keeping
// column capacity for reuse.  The sidecar resets to all-constant.  Both
// backing arrays are checked independently: Cols and Const are always
// allocated together, but guarding each keeps a pooled chunk whose
// slices ever diverge (e.g. a manually assembled Chunk) from slicing
// Const out of range when the arity grows back.
func (c *Chunk) Reset(arity int) {
	if cap(c.Cols) < arity || cap(c.Const) < arity {
		c.Cols = make([][]value.Value, arity)
		c.Const = make([]bool, arity)
	}
	c.Cols = c.Cols[:arity]
	c.Const = c.Const[:arity]
	for j := range c.Cols {
		c.Cols[j] = c.Cols[j][:0]
		c.Const[j] = true
	}
	c.Rows = 0
}

// Arity returns the number of columns.
func (c *Chunk) Arity() int { return len(c.Cols) }

// AppendTuple appends one row, maintaining the sidecar.
func (c *Chunk) AppendTuple(t table.Tuple) {
	for j, v := range t {
		c.Cols[j] = append(c.Cols[j], v)
		if c.Const[j] && v.IsNull() {
			c.Const[j] = false
		}
	}
	c.Rows++
}

// FromTuples resets the chunk and fills it with the given rows — the row
// bridge used by operators without a native columnar form.
func (c *Chunk) FromTuples(ts []table.Tuple, arity int) {
	c.Reset(arity)
	for _, t := range ts {
		c.AppendTuple(t)
	}
}

// Tuple materializes row i as a freshly allocated tuple; it never aliases
// chunk storage.
func (c *Chunk) Tuple(i int) table.Tuple {
	t := make(table.Tuple, len(c.Cols))
	for j, col := range c.Cols {
		t[j] = col[i]
	}
	return t
}

// AppendTuples gathers the selected rows (all rows when sel is nil) into
// dst as freshly allocated tuples and returns the extended slice.
func (c *Chunk) AppendTuples(dst []table.Tuple, sel []int32) []table.Tuple {
	if sel == nil {
		for i := 0; i < c.Rows; i++ {
			dst = append(dst, c.Tuple(i))
		}
		return dst
	}
	for _, i := range sel {
		dst = append(dst, c.Tuple(int(i)))
	}
	return dst
}

// AppendRow appends the values of row i at the given column positions
// (every column, in order, when positions is nil) to dst: the row gathered
// into a caller's scratch tuple, for a probe by value.
func (c *Chunk) AppendRow(dst table.Tuple, positions []int, i int) table.Tuple {
	if positions == nil {
		for _, col := range c.Cols {
			dst = append(dst, col[i])
		}
		return dst
	}
	for _, p := range positions {
		dst = append(dst, c.Cols[p][i])
	}
	return dst
}

// AppendPosKey appends the binary key of row i restricted to the given
// column positions — the columnar counterpart of the probe-side key
// encoding of hash joins.
func (c *Chunk) AppendPosKey(dst []byte, positions []int, i int) []byte {
	for _, p := range positions {
		dst = c.Cols[p][i].AppendKey(dst)
	}
	return dst
}

// AllConst reports whether every column of the chunk is all-constant.
func (c *Chunk) AllConst() bool {
	for _, cc := range c.Const {
		if !cc {
			return false
		}
	}
	return true
}

// ConstAt reports whether every column at the given positions is
// all-constant (nil positions means all columns, like AllConst).
func (c *Chunk) ConstAt(positions []int) bool {
	if positions == nil {
		return c.AllConst()
	}
	for _, p := range positions {
		if !c.Const[p] {
			return false
		}
	}
	return true
}

// CompleteSel narrows sel (nil = all rows) to the rows with no null in
// any column, appending the surviving row indexes to dst — the vectorized
// form of the per-tuple IsComplete scan of certain-answer extraction.
// All-constant columns are skipped entirely via the sidecar; when every
// column is all-constant the input selection is returned unchanged
// without touching dst.
func (c *Chunk) CompleteSel(sel []int32, dst []int32) ([]int32, bool) {
	if c.AllConst() {
		return sel, false
	}
	dst = dst[:0]
	if sel == nil {
		for i := 0; i < c.Rows; i++ {
			if c.rowComplete(i) {
				dst = append(dst, int32(i))
			}
		}
		return dst, true
	}
	for _, i := range sel {
		if c.rowComplete(int(i)) {
			dst = append(dst, i)
		}
	}
	return dst, true
}

// rowComplete reports whether row i has no null, skipping all-constant
// columns.
func (c *Chunk) rowComplete(i int) bool {
	for j, col := range c.Cols {
		if c.Const[j] {
			continue
		}
		if col[i].IsNull() {
			return false
		}
	}
	return true
}
