package plan

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"incdata/internal/ra"
	"incdata/internal/table"
	"incdata/internal/value"
)

// Access paths.  Under naïve evaluation a marked null is one more value, so
// attr = const is plain syntactic equality and a hash index answers it
// exactly.  At compile time every filter that sits directly on a base scan —
// a pfilter chain, a projection's or a diff side's fused predicate, a
// filtered join input — hands its sargable conjuncts (attr = const, either
// operand order) to the scan (noteSargable).  At run time the scan asks the
// relation for an index on those positions (table.Relation.SelectIndex and
// SelectCodedIndex decide, from what the header holds and what its scans
// have cost so far) and, when it gets one, emits only the matching rows:
// the chain of Index.Lookup on the row path, the rows of the CodedIndex on
// the coded one.  The filters above stay exactly as they are
// and see fewer rows, so every conjunct, sargable or not, is still applied;
// the scan of every tuple remains as the fallback of the same operator.

// eqAccess is the equality restriction filters put on the scan below them.
type eqAccess struct {
	positions []int         // ascending
	consts    []value.Value // consts[i] is what column positions[i] must equal
	attrs     []string      // attribute names, for Describe
	key       []byte        // the constants' binary keys in position order: the Index probe key
	// last is the table.SelectPath of the most recent evaluation, for
	// Describe; evaluations running at once overwrite each other's.
	last atomic.Uint32
}

// filteredScan returns the base scan a filter over n reads directly, nil if
// anything but filters lies in between.
func filteredScan(n pnode) *pscan {
	for {
		switch x := n.(type) {
		case *pscan:
			return x
		case *pfilter:
			n = x.in
		default:
			return nil
		}
	}
}

// noteSargable records the sargable conjuncts of a predicate that filters
// in, when in is a base scan under nothing but filters.
func noteSargable(in pnode, p ra.Predicate) {
	if sc := filteredScan(in); sc != nil {
		sc.addEq(p)
	}
}

// addEq adds p's conjuncts of the form attr = const to the scan's equality
// restriction.  A second constant for a position already restricted is left
// to the filters (they reject every row then).
func (n *pscan) addEq(p ra.Predicate) {
	switch pp := p.(type) {
	case ra.And:
		for _, q := range pp.Preds {
			n.addEq(q)
		}
	case ra.Cmp:
		if pp.Op != ra.EQ || pp.Left.IsAttr == pp.Right.IsAttr {
			return
		}
		attr, con := pp.Left.Attr, pp.Right.Const
		if pp.Right.IsAttr {
			attr, con = pp.Right.Attr, pp.Left.Const
		}
		pos := n.rs.AttrIndex(attr)
		if pos < 0 {
			return // compilePred reports the unknown attribute
		}
		if n.eq == nil {
			n.eq = &eqAccess{}
		}
		eq := n.eq
		at, found := slices.BinarySearch(eq.positions, pos)
		if found {
			return
		}
		eq.positions = slices.Insert(eq.positions, at, pos)
		eq.consts = slices.Insert(eq.consts, at, con)
		eq.attrs = slices.Insert(eq.attrs, at, attr)
		eq.key = eq.key[:0]
		for _, v := range eq.consts {
			eq.key = v.AppendKey(eq.key)
		}
	}
}

// describe renders the restriction and the path the last evaluation took.
func (eq *eqAccess) describe() string {
	conj := make([]string, len(eq.attrs))
	for i, a := range eq.attrs {
		conj[i] = fmt.Sprintf("%s = %s", a, eq.consts[i])
	}
	path := table.SelectPath(eq.last.Load())
	how := path.String()
	if path.Kind() == table.SelectIndexed {
		how = "index(" + strings.Join(eq.attrs, ", ") + ")"
	}
	return fmt.Sprintf("[%s] %s", strings.Join(conj, " and "), how)
}

// each calls f on the tuples the scan reads until f returns false: the
// index's matches when an index serves the scan's equality restriction,
// every tuple of the relation otherwise.
func (n *pscan) each(c *pctx, rel *table.Relation, f func(table.Tuple) bool) {
	if n.eq != nil {
		// A budgeted evaluation uses an index that is there but builds none.
		ix, path := rel.SelectIndex(n.eq.positions, c.budget == 0)
		n.eq.last.Store(uint32(path))
		if ix != nil {
			for sh, i := ix.Lookup(n.eq.key); i != 0; {
				var t table.Tuple
				t, i = sh.At(i)
				if !f(t) {
					return
				}
			}
			return
		}
	}
	rel.Each(f)
}

// streamCodedIndex is each for the coded tier: when a coded index serves
// the restriction it emits the matching rows' codes and reports true.  A
// constant the dictionary has never seen is in no encoded relation, so the
// answer is empty without a probe.
func (n *pscan) streamCodedIndex(c *pctx, rel *table.Relation, enc *table.Encoding, emit codedEmit) bool {
	ix, path := rel.SelectCodedIndex(enc, n.eq.positions, c.budget == 0)
	n.eq.last.Store(uint32(path))
	if ix == nil {
		return false
	}
	key := make([]uint64, len(n.eq.consts))
	h := value.CodeHashSeed
	for i, v := range n.eq.consts {
		code, ok := c.dict.Lookup(v)
		if !ok {
			return true
		}
		key[i] = code
		h = value.HashCode(h, code)
	}
	arity := n.rs.Arity()
	ch := getCodedChunk(arity)
	defer putCodedChunk(ch)
	verify := !ix.HashIsKey()
	for sh, e := ix.Lookup(h); e != 0; {
		var row int32
		row, e = sh.At(e)
		if verify && !sh.MatchesKey(row, key) {
			continue
		}
		for j, code := range sh.Row(row) {
			ch.Append(j, code)
		}
		ch.EndRow()
		if ch.Rows == chunkSize {
			if !emit(ch, nil) {
				return true
			}
			ch.Reset(arity)
		}
	}
	if ch.Rows > 0 {
		emit(ch, nil)
	}
	return true
}
