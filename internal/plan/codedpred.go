package plan

import (
	"fmt"

	"incdata/internal/col"
	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/value"
)

// Coded (monomorphic) predicate compilation.  A kpred is the coded twin
// of cpred: instead of a closure invoked once per tuple, it is invoked
// once per chunk and narrows a selection vector with per-column loops over
// the raw []uint64 code vectors of a col.Coded chunk.
//
// Selection-vector contract: sel lists the live row indexes of the chunk
// in ascending order, with nil meaning "all rows".  A kpred always
// returns a buffer obtained from the pctx selection pool — never its
// input — and the caller releases it with putSel.  Combinators preserve
// ascending order (∧ narrows, ∨ merges sorted results, ¬ complements),
// so the coded path visits surviving rows in exactly the input order.
//
// Equality and inequality become branch-free u64 compares — code equality
// coincides with value equality under the shared dictionary — and only
// the order comparisons ever look at a value again, via the lock-free
// decode snapshot (and even there, two directly coded integers compare as
// bare u64s thanks to the order-preserving bias).

// kpred narrows a selection vector over a coded chunk; nil means
// constant true.
type kpred func(c *pctx, ch *col.Coded, sel []int32) []int32

// compileKPred resolves a predicate against the input schema into its
// coded form.  It accepts exactly the predicates compilePred accepts,
// so every compiled row predicate has a coded twin.
func compileKPred(p ra.Predicate, rs schema.Relation) (kpred, error) {
	switch pp := p.(type) {
	case ra.True:
		return nil, nil
	case ra.False:
		return kconstPred(false), nil
	case ra.Cmp:
		return compileKCmp(pp, rs)
	case ra.And:
		kids := make([]kpred, 0, len(pp.Preds))
		for _, q := range pp.Preds {
			kq, err := compileKPred(q, rs)
			if err != nil {
				return nil, err
			}
			if kq != nil {
				kids = append(kids, kq)
			}
		}
		switch len(kids) {
		case 0:
			return nil, nil
		case 1:
			return kids[0], nil
		}
		return func(c *pctx, ch *col.Coded, sel []int32) []int32 {
			cur := kids[0](c, ch, sel)
			for _, k := range kids[1:] {
				if len(cur) == 0 {
					return cur
				}
				next := k(c, ch, cur)
				c.putSel(cur)
				cur = next
			}
			return cur
		}, nil
	case ra.Or:
		kids := make([]kpred, len(pp.Preds))
		for i, q := range pp.Preds {
			kq, err := compileKPred(q, rs)
			if err != nil {
				return nil, err
			}
			if kq == nil {
				return nil, nil // a true disjunct makes the whole ∨ true
			}
			kids[i] = kq
		}
		if len(kids) == 0 {
			return kconstPred(false), nil
		}
		if len(kids) == 1 {
			return kids[0], nil
		}
		return func(c *pctx, ch *col.Coded, sel []int32) []int32 {
			acc := kids[0](c, ch, sel)
			for _, k := range kids[1:] {
				ks := k(c, ch, sel)
				merged := unionSorted(c.getSel()[:0], acc, ks)
				c.putSel(acc)
				c.putSel(ks)
				acc = merged
			}
			return acc
		}, nil
	case ra.Not:
		inner, err := compileKPred(pp.Pred, rs)
		if err != nil {
			return nil, err
		}
		if inner == nil {
			return kconstPred(false), nil
		}
		return func(c *pctx, ch *col.Coded, sel []int32) []int32 {
			in := inner(c, ch, sel)
			out := complementSorted(c.getSel()[:0], ch.Rows, sel, in)
			c.putSel(in)
			return out
		}, nil
	default:
		return nil, fmt.Errorf("plan: unsupported predicate %T", p)
	}
}

// kconstPred is the constant coded predicate: true copies the selection,
// false empties it.
func kconstPred(holds bool) kpred {
	return func(c *pctx, ch *col.Coded, sel []int32) []int32 {
		out := c.getSel()[:0]
		if !holds {
			return out
		}
		if sel == nil {
			for i := 0; i < ch.Rows; i++ {
				out = append(out, int32(i))
			}
			return out
		}
		return append(out, sel...)
	}
}

// compileKCmp builds the coded comparison kernels: = and ≠ as direct u64
// compares against an encoded constant or a second code column, the
// order comparisons via the int-code fast path with a decode fallback.
func compileKCmp(cm ra.Cmp, rs schema.Relation) (kpred, error) {
	resolve := func(o ra.Operand) (int, value.Value, error) {
		if !o.IsAttr {
			return -1, o.Const, nil
		}
		pos := rs.AttrIndex(o.Attr)
		if pos < 0 {
			return 0, value.Value{}, fmt.Errorf("ra: unknown attribute %q in %s", o.Attr, rs)
		}
		return pos, value.Value{}, nil
	}
	li, lc, err := resolve(cm.Left)
	if err != nil {
		return nil, err
	}
	ri, rc, err := resolve(cm.Right)
	if err != nil {
		return nil, err
	}
	switch cm.Op {
	case ra.EQ, ra.NEQ:
		neq := cm.Op == ra.NEQ
		switch {
		case li >= 0 && ri >= 0:
			return kcmpEqCols(li, ri, neq), nil
		case li >= 0:
			return kcmpEqConst(li, rc, neq), nil
		case ri >= 0:
			return kcmpEqConst(ri, lc, neq), nil
		default:
			return kconstPred((lc == rc) != neq), nil
		}
	case ra.LT, ra.LEQ, ra.GT, ra.GEQ:
		return kcmpOrder(cm.Op, li, lc, ri, rc), nil
	default:
		return nil, fmt.Errorf("plan: unsupported comparison operator %v", cm.Op)
	}
}

// kcmpEqConst keeps rows whose column code equals (or, with neq, differs
// from) the constant's code.  The constant is encoded once per chunk —
// interning is idempotent, and a constant outside the code space (only a
// null with an astronomical id) can equal no encodable column value, so
// = keeps nothing and ≠ keeps everything.
func kcmpEqConst(pos int, con value.Value, neq bool) kpred {
	return func(c *pctx, ch *col.Coded, sel []int32) []int32 {
		code, ok := c.dict.Encode(con)
		if !ok {
			return kconstPred(neq)(c, ch, sel)
		}
		column := ch.Cols[pos]
		out := c.getSel()[:0]
		if sel == nil {
			for i, v := range column {
				if (v == code) != neq {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, i := range sel {
			if (column[i] == code) != neq {
				out = append(out, i)
			}
		}
		return out
	}
}

// kcmpEqCols keeps rows where two code columns agree (or, with neq,
// differ).
func kcmpEqCols(lpos, rpos int, neq bool) kpred {
	return func(c *pctx, ch *col.Coded, sel []int32) []int32 {
		lcol, rcol := ch.Cols[lpos], ch.Cols[rpos]
		out := c.getSel()[:0]
		if sel == nil {
			for i := range lcol {
				if (lcol[i] == rcol[i]) != neq {
					out = append(out, int32(i))
				}
			}
			return out
		}
		for _, i := range sel {
			if (lcol[i] == rcol[i]) != neq {
				out = append(out, i)
			}
		}
		return out
	}
}

// kcmpOrder is the coded order-comparison kernel; negative positions
// select the constant operand.  Two directly coded integers compare as
// raw u64s (the bias preserves order); any other combination decodes
// through the pctx snapshot and defers to value.Compare.
func kcmpOrder(op ra.CmpOp, li int, lc value.Value, ri int, rc value.Value) kpred {
	keep := func(cmp int) bool {
		switch op {
		case ra.LT:
			return cmp < 0
		case ra.LEQ:
			return cmp <= 0
		case ra.GT:
			return cmp > 0
		default: // ra.GEQ
			return cmp >= 0
		}
	}
	return func(c *pctx, ch *col.Coded, sel []int32) []int32 {
		var lcol, rcol []uint64
		if li >= 0 {
			lcol = ch.Cols[li]
		}
		if ri >= 0 {
			rcol = ch.Cols[ri]
		}
		test := func(i int32) bool {
			if lcol != nil && rcol != nil {
				a, b := lcol[i], rcol[i]
				if value.CodeIsInt(a) && value.CodeIsInt(b) {
					switch {
					case a < b:
						return keep(-1)
					case a > b:
						return keep(1)
					default:
						return keep(0)
					}
				}
				return keep(value.Compare(c.decode(a), c.decode(b)))
			}
			av, bv := lc, rc
			if lcol != nil {
				av = c.decode(lcol[i])
			}
			if rcol != nil {
				bv = c.decode(rcol[i])
			}
			return keep(value.Compare(av, bv))
		}
		out := c.getSel()[:0]
		if sel == nil {
			for i := int32(0); int(i) < ch.Rows; i++ {
				if test(i) {
					out = append(out, i)
				}
			}
			return out
		}
		for _, i := range sel {
			if test(i) {
				out = append(out, i)
			}
		}
		return out
	}
}

// unionSorted merges two ascending selection vectors into dst (set
// union, ascending).
func unionSorted(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// complementSorted appends to dst the rows of the base selection (sel,
// nil = all rows of the chunk) that are absent from the ascending vector
// drop.
func complementSorted(dst []int32, rows int, sel, drop []int32) []int32 {
	j := 0
	if sel == nil {
		for i := int32(0); int(i) < rows; i++ {
			if j < len(drop) && drop[j] == i {
				j++
				continue
			}
			dst = append(dst, i)
		}
		return dst
	}
	for _, i := range sel {
		for j < len(drop) && drop[j] < i {
			j++
		}
		if j < len(drop) && drop[j] == i {
			j++
			continue
		}
		dst = append(dst, i)
	}
	return dst
}
