package plan

import (
	"sync"

	"incdata/internal/col"
	"incdata/internal/table"
	"incdata/internal/value"
)

// Columnar (vectorized) execution.  Operators that implement colStreamer
// move data as col.Chunk column vectors plus a selection vector instead
// of per-tuple rows: scans fill column vectors directly from relation
// storage, compiled predicates narrow selection vectors with per-column
// loops (colpred.go), projections re-point column slices without moving
// data, the hash-join probe appends matches column-wise into a reused
// output chunk (no per-match tuple allocation), and diff/intersect
// compute membership keys column-wise.  Tuples materialize exactly once,
// at the gather in materializeIntoCol, where the precomputed row key
// also skips the allocation for duplicate rows.
//
// Operators without a native columnar form (product, division, Δ) adapt
// through the row bridge (bridgeCols): their per-tuple stream is
// transposed into chunks, so the three execution models — per-tuple, row
// chunks, column chunks — compose freely within one plan.
//
// Chunk contract: the chunk and selection vector passed to emit are
// producer-owned scratch, reused for the next batch as soon as emit
// returns — consumers must not retain either.  Values gathered out of a
// chunk are copies, so adopted tuples never alias chunk storage (the
// same "producer-owned scratch, adoptable tuples" contract as the row
// chunk path; pinned by TestColumnarScratchLifetime).
//
// The row path (chunk.go) is kept fully intact as the differential
// oracle — plan.EvalConfig.Columnar selects between the two, and the
// fuzz tests pin them bit-identical across planners and worker counts.

// colEmit consumes one columnar chunk restricted to the selected rows
// (nil sel = all rows).
type colEmit func(ch *col.Chunk, sel []int32) bool

// colStreamer is the columnar counterpart of chunkStreamer, implemented
// by operators with a native vectorized form.
type colStreamer interface {
	streamCols(c *pctx, emit colEmit) error
}

// colChunkPool recycles columnar chunks (and their column capacity)
// across operators and evaluations, like chunkPool does for row chunks.
var colChunkPool = sync.Pool{
	New: func() any { return &col.Chunk{} },
}

func getColChunk(arity int) *col.Chunk {
	ch := colChunkPool.Get().(*col.Chunk)
	ch.Reset(arity)
	return ch
}

func putColChunk(ch *col.Chunk) { colChunkPool.Put(ch) }

// streamCols drives n's output column-wise, using the operator's native
// vectorized implementation when it has one and the row bridge
// otherwise.
func streamCols(n pnode, c *pctx, emit colEmit) error {
	if cs, ok := n.(colStreamer); ok {
		return cs.streamCols(c, emit)
	}
	return bridgeCols(n, c, emit)
}

// bridgeCols adapts an operator's row-chunk stream into columnar chunks:
// each row batch is transposed into a pooled chunk.  It is also the
// fallback for vectorizable operators whose predicate did not compile to
// a vectorized form.
func bridgeCols(n pnode, c *pctx, emit colEmit) error {
	arity := n.out().Arity()
	ch := getColChunk(arity)
	defer putColChunk(ch)
	return streamChunks(n, c, func(ts []table.Tuple) bool {
		ch.FromTuples(ts, arity)
		return emit(ch, nil)
	})
}

// streamCols on a scan fills column vectors directly from the relation
// (or, under a morsel assignment, from the scan's morsel slice),
// tracking the all-constant sidecar during the fill.
func (n *pscan) streamCols(c *pctx, emit colEmit) error {
	arity := n.rs.Arity()
	ch := getColChunk(arity)
	defer putColChunk(ch)
	if c.morselFor == n {
		for _, t := range c.morsel {
			ch.AppendTuple(t)
			if ch.Rows == chunkSize {
				if !emit(ch, nil) {
					return nil
				}
				ch.Reset(arity)
			}
		}
		if ch.Rows > 0 {
			emit(ch, nil)
		}
		return nil
	}
	rel := c.db.Relation(n.name)
	if rel == nil {
		return relationErr(n.name)
	}
	stopped := false
	n.each(c, rel, func(t table.Tuple) bool {
		ch.AppendTuple(t)
		if ch.Rows == chunkSize {
			if !emit(ch, nil) {
				stopped = true
				return false
			}
			ch.Reset(arity)
		}
		return true
	})
	if !stopped && ch.Rows > 0 {
		emit(ch, nil)
	}
	return nil
}

// streamCols on a filter narrows the selection vector with the
// vectorized predicate — no data moves at all.
func (n *pfilter) streamCols(c *pctx, emit colEmit) error {
	if n.vpred == nil {
		return bridgeCols(n, c, emit)
	}
	return streamCols(n.in, c, func(ch *col.Chunk, sel []int32) bool {
		out := n.vpred(c, ch, sel)
		ok := true
		if len(out) > 0 {
			ok = emit(ch, out)
		}
		c.putSel(out)
		return ok
	})
}

// streamCols on a projection applies the fused vectorized pre-filter and
// re-points the view's column slices — a projection moves no values.
func (n *pproject) streamCols(c *pctx, emit colEmit) error {
	if n.pred != nil && n.vpred == nil {
		return bridgeCols(n, c, emit)
	}
	view := col.Chunk{
		Cols:  make([][]value.Value, len(n.idx)),
		Const: make([]bool, len(n.idx)),
	}
	return streamCols(n.in, c, func(ch *col.Chunk, sel []int32) bool {
		owned := false
		if n.vpred != nil {
			sel = n.vpred(c, ch, sel)
			owned = true
			if len(sel) == 0 {
				c.putSel(sel)
				return true
			}
		}
		for k, p := range n.idx {
			view.Cols[k] = ch.Cols[p]
			view.Const[k] = ch.Const[p]
		}
		view.Rows = ch.Rows
		ok := emit(&view, sel)
		if owned {
			c.putSel(sel)
		}
		return ok
	})
}

// streamCols on a rename passes chunks through untouched.
func (n *pschema) streamCols(c *pctx, emit colEmit) error {
	return streamCols(n.in, c, emit)
}

// streamCols on a union streams both sides' chunks.
func (n *punion) streamCols(c *pctx, emit colEmit) error {
	stopped := false
	err := streamCols(n.l, c, func(ch *col.Chunk, sel []int32) bool {
		if !emit(ch, sel) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	return streamCols(n.r, c, emit)
}

// streamCols on a hash join probes the build index with column-wise
// probe keys and appends matches column-wise into a reused output chunk
// — no tuple is allocated per match.  When the probe-key columns carry
// the all-constant sidecar and the build side indexed only null-free
// tuples (Index.AllComplete), the all-constant fast path appends with no
// null bookkeeping at all and the output chunk stays marked all-constant
// for free.
func (n *pjoin) streamCols(c *pctx, emit colEmit) error {
	ix, err := n.buildIndex(c)
	if err != nil {
		return err
	}
	outArity := n.rs.Arity()
	out := getColChunk(outArity)
	defer putColChunk(out)
	stopped := false
	err = streamCols(n.l, c, func(ch *col.Chunk, sel []int32) bool {
		lar := len(ch.Cols)
		fast := ix.AllComplete() && ch.AllConst()
		probe := func(i int32) bool {
			key := ch.AppendPosKey(c.keyBuf[:0], n.lpos, int(i))
			c.keyBuf = key
			for sh, e := ix.Lookup(key); e != 0; {
				var rt table.Tuple
				rt, e = sh.At(e)
				if fast {
					for j := 0; j < lar; j++ {
						out.Cols[j] = append(out.Cols[j], ch.Cols[j][i])
					}
					for k, ri := range n.extraIdx {
						out.Cols[lar+k] = append(out.Cols[lar+k], rt[ri])
					}
				} else {
					for j := 0; j < lar; j++ {
						v := ch.Cols[j][i]
						out.Cols[j] = append(out.Cols[j], v)
						if out.Const[j] && v.IsNull() {
							out.Const[j] = false
						}
					}
					for k, ri := range n.extraIdx {
						v := rt[ri]
						out.Cols[lar+k] = append(out.Cols[lar+k], v)
						if out.Const[lar+k] && v.IsNull() {
							out.Const[lar+k] = false
						}
					}
				}
				out.Rows++
				if out.Rows == chunkSize {
					if !emit(out, nil) {
						return false
					}
					out.Reset(outArity)
				}
			}
			return true
		}
		if sel == nil {
			for i := int32(0); int(i) < ch.Rows; i++ {
				if !probe(i) {
					stopped = true
					return false
				}
			}
			return true
		}
		for _, i := range sel {
			if !probe(i) {
				stopped = true
				return false
			}
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	if out.Rows > 0 {
		emit(out, nil)
	}
	return nil
}

// streamCols on a diff/intersect narrows the selection with the fused
// vectorized pre-filter, gathers the comparison row of each surviving row
// into the context's scratch tuple, and emits the survivors — through a
// projection view when a projection was fused, so projected tuples never
// materialize inside the operator.
func (n *pdiff) streamCols(c *pctx, emit colEmit) error {
	if n.lpred != nil && n.lvpred == nil {
		return bridgeCols(n, c, emit)
	}
	contains, err := n.containsFn(c)
	if err != nil {
		return err
	}
	var view col.Chunk
	if n.lproj != nil {
		view.Cols = make([][]value.Value, len(n.lproj))
		view.Const = make([]bool, len(n.lproj))
	}
	return streamCols(n.l, c, func(ch *col.Chunk, sel []int32) bool {
		owned := false
		if n.lvpred != nil {
			sel = n.lvpred(c, ch, sel)
			owned = true
		}
		out := c.getSel()[:0]
		keep := func(i int32) {
			c.row = ch.AppendRow(c.row[:0], n.lproj, int(i))
			if contains(c.row) != n.negate {
				out = append(out, i)
			}
		}
		if sel == nil {
			for i := int32(0); int(i) < ch.Rows; i++ {
				keep(i)
			}
		} else {
			for _, i := range sel {
				keep(i)
			}
		}
		if owned {
			c.putSel(sel)
		}
		ok := true
		if len(out) > 0 {
			if n.lproj == nil {
				ok = emit(ch, out)
			} else {
				for k, p := range n.lproj {
					view.Cols[k] = ch.Cols[p]
					view.Const[k] = ch.Const[p]
				}
				view.Rows = ch.Rows
				ok = emit(&view, out)
			}
		}
		c.putSel(out)
		return ok
	})
}

// colEligible reports whether the columnar path should evaluate this
// subtree: some operator on the stream builds fresh output tuples per
// row (π, ⋈, or a diff with a fused projection), which the columnar
// gather defers to a single final materialization.  Plans that only
// adopt existing tuples (bare scans, filters, whole-tuple diffs) stay on
// the row path, where adoption is free.
func colEligible(n pnode) bool {
	switch x := n.(type) {
	case *pjoin:
		return true
	case *pproject:
		return true
	case *pdiff:
		if x.lproj != nil {
			return true
		}
		return colEligible(x.l)
	case *pfilter:
		return colEligible(x.in)
	case *pschema:
		return colEligible(x.in)
	case *punion:
		return colEligible(x.l) || colEligible(x.r)
	default:
		return false
	}
}

// materializeIntoCol streams n column-wise into out.  Certain-only
// extraction narrows the selection with the sidecar-aware CompleteSel
// (all-constant chunks skip the null scan entirely), and each surviving
// row is probed from the context's scratch tuple before it is gathered, so
// duplicate rows are dropped without allocating a tuple.
func materializeIntoCol(n pnode, c *pctx, certainOnly bool, out *table.Relation) error {
	ins := out.BeginInsert()
	return streamCols(n, c, func(ch *col.Chunk, sel []int32) bool {
		if certainOnly {
			dst := c.getSel()
			narrowed, used := ch.CompleteSel(sel, dst)
			if used {
				sel = narrowed
				defer c.putSel(narrowed)
			} else {
				c.putSel(dst)
			}
		}
		gather := func(i int32) {
			c.row = ch.AppendRow(c.row[:0], nil, int(i))
			if !out.Contains(c.row) {
				ins.AddNew(ch.Tuple(int(i)))
			}
		}
		if sel == nil {
			for i := int32(0); int(i) < ch.Rows; i++ {
				gather(i)
			}
		} else {
			for _, i := range sel {
				gather(i)
			}
		}
		return true
	})
}
