package plan

import (
	"fmt"
	"sync/atomic"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// Physical operators.  A pnode streams its result tuples to a consumer
// (push model): pipelined operators (scan, filter, project, the probe side
// of a join, union, the left side of − and ∩) never materialize their
// output, while pipeline breakers (join build sides, the right side of −
// and ∩ as key sets, both division inputs, Δ) materialize only what they
// must.  Emitted tuples are immutable and may be adopted by the consumer.

// pctx carries the database view and reusable scratch buffers for one
// evaluation.
type pctx struct {
	db     ra.DB
	keyBuf []byte
	row    table.Tuple // scratch comparison row of a diff probe (sideRow)

	selPool [][]int32 // recycled selection vectors for the coded kernels

	coded    bool          // use the coded path where eligible (codedexec.go)
	dict     *table.Dict   // the database's value dictionary; nil disables coded
	dictVals []value.Value // lock-free decode snapshot, refreshed on demand
}

// getSel hands out a selection-vector buffer from the context pool,
// allocating one chunk's worth of capacity on a cold pool.
func (c *pctx) getSel() []int32 {
	if n := len(c.selPool); n > 0 {
		s := c.selPool[n-1]
		c.selPool = c.selPool[:n-1]
		return s[:0]
	}
	return make([]int32, 0, chunkSize)
}

// putSel returns a selection vector to the pool; nil (the "all rows"
// selection) is ignored so callers can release unconditionally.
func (c *pctx) putSel(s []int32) {
	if s == nil {
		return
	}
	c.selPool = append(c.selPool, s)
}

// relationErr is the shared unknown-relation error.
func relationErr(name string) error {
	return fmt.Errorf("ra: unknown relation %q", name)
}

// appendPosKey appends the key of t restricted to positions into the
// context scratch buffer and returns it; valid until the next call.
func (c *pctx) appendPosKey(t table.Tuple, positions []int) []byte {
	buf := c.keyBuf[:0]
	for _, p := range positions {
		buf = t[p].AppendKey(buf)
	}
	c.keyBuf = buf
	return buf
}

type pnode interface {
	// out is the static output schema of the operator.
	out() schema.Relation
	// stream calls emit with every result tuple (duplicates allowed; set
	// semantics are restored at materialization).  When emit returns false
	// the stream stops early and stream returns nil.
	stream(c *pctx, emit func(table.Tuple) bool) error
}

// materialize evaluates a node into a relation with set semantics.  Base
// relation scans are returned as-is (never mutated by the planner), so
// their cached hash indexes survive across evaluations.
func materialize(n pnode, c *pctx) (*table.Relation, error) {
	if sc, ok := n.(*pscan); ok {
		rel := c.db.Relation(sc.name)
		if rel == nil {
			return nil, relationErr(sc.name)
		}
		return rel, nil
	}
	out := table.NewRelation(n.out())
	if err := materializeIntoAdopt(n, c, false, true, out); err != nil {
		return nil, err
	}
	return out, nil
}

// pscan scans a base relation.  eq, when set, holds the equality conjuncts
// of the filters directly above the scan; an index on their positions may
// then stand in for the scan (access.go).
type pscan struct {
	name string
	rs   schema.Relation
	eq   *eqAccess
}

func (n *pscan) out() schema.Relation { return n.rs }

func (n *pscan) stream(c *pctx, emit func(table.Tuple) bool) error {
	rel := c.db.Relation(n.name)
	if rel == nil {
		return relationErr(n.name)
	}
	n.each(rel, emit)
	return nil
}

// pempty is the empty relation (a constant-false selection).
type pempty struct{ rs schema.Relation }

func (n *pempty) out() schema.Relation                       { return n.rs }
func (n *pempty) stream(*pctx, func(table.Tuple) bool) error { return nil }

// pfilter applies a compiled predicate.  kpred is its coded twin
// (codedexec.go), nil when the predicate has no coded form.
type pfilter struct {
	in    pnode
	pred  cpred
	kpred kpred
}

func (n *pfilter) out() schema.Relation { return n.in.out() }

func (n *pfilter) stream(c *pctx, emit func(table.Tuple) bool) error {
	return n.in.stream(c, func(t table.Tuple) bool {
		if !n.pred(t) {
			return true
		}
		return emit(t)
	})
}

// pproject projects onto fixed positions, with an optional fused
// pre-projection filter (σ directly below π never materializes).  kpred
// is the coded twin of pred; nil when pred is nil or has no coded form.
type pproject struct {
	in    pnode
	pred  cpred // may be nil
	kpred kpred
	idx   []int
	rs    schema.Relation
}

func (n *pproject) out() schema.Relation { return n.rs }

func (n *pproject) stream(c *pctx, emit func(table.Tuple) bool) error {
	return n.in.stream(c, func(t table.Tuple) bool {
		if n.pred != nil && !n.pred(t) {
			return true
		}
		return emit(t.Project(n.idx...))
	})
}

// pschema re-labels the output schema (ρ); tuples pass through untouched.
type pschema struct {
	in pnode
	rs schema.Relation
}

func (n *pschema) out() schema.Relation { return n.rs }

func (n *pschema) stream(c *pctx, emit func(table.Tuple) bool) error {
	return n.in.stream(c, emit)
}

// pproduct is the cartesian product; the right side is materialized once
// and the left side streams.
type pproduct struct {
	l, r pnode
	rs   schema.Relation
}

func (n *pproduct) out() schema.Relation { return n.rs }

func (n *pproduct) stream(c *pctx, emit func(table.Tuple) bool) error {
	rrel, err := materialize(n.r, c)
	if err != nil {
		return err
	}
	stopped := false
	err = n.l.stream(c, func(lt table.Tuple) bool {
		rrel.Each(func(rt table.Tuple) bool {
			if !emit(lt.Concat(rt)) {
				stopped = true
				return false
			}
			return true
		})
		return !stopped
	})
	return err
}

// pjoin is a hash equi-join: the right side is materialized and indexed on
// rpos (cached on the relation when the right side is a base scan), the
// left side streams and probes with its lpos key.  The output tuple is the
// left tuple followed by the right columns in extraIdx — for a natural
// join those are the right side's non-shared columns, for a detected
// σ=(×) equi-join all right columns.
type pjoin struct {
	l, r     pnode
	lpos     []int
	rpos     []int
	extraIdx []int
	rs       schema.Relation
	// side is what the most recent coded evaluation did, for Describe (see
	// joinSide); evaluations running at once overwrite each other's.
	side atomic.Uint32
}

func (n *pjoin) out() schema.Relation { return n.rs }

// buildIndex returns the hash index this join probes: the index over the
// whole materialized build side (cached on the relation when the build
// side is a base scan).
func (n *pjoin) buildIndex(c *pctx) (*table.Index, error) {
	rrel, err := materialize(n.r, c)
	if err != nil {
		return nil, err
	}
	return rrel.Index(n.rpos), nil
}

func (n *pjoin) stream(c *pctx, emit func(table.Tuple) bool) error {
	ix, err := n.buildIndex(c)
	if err != nil {
		return err
	}
	return n.probeWith(c, ix, emit)
}

// probeWith streams the probe (left) side against a build-side index,
// emitting the joined output tuples.
func (n *pjoin) probeWith(c *pctx, ix *table.Index, emit func(table.Tuple) bool) error {
	return n.l.stream(c, func(lt table.Tuple) bool {
		key := c.appendPosKey(lt, n.lpos)
		for sh, i := ix.Lookup(key); i != 0; {
			var rt table.Tuple
			rt, i = sh.At(i)
			if !n.emitJoined(lt, rt, emit) {
				return false
			}
		}
		return true
	})
}

// emitJoined emits the join output of one matching tuple pair: the left
// tuple followed by the right columns in extraIdx.
func (n *pjoin) emitJoined(lt, rt table.Tuple, emit func(table.Tuple) bool) bool {
	combined := make(table.Tuple, len(lt), len(lt)+len(n.extraIdx))
	copy(combined, lt)
	for _, ri := range n.extraIdx {
		combined = append(combined, rt[ri])
	}
	return emit(combined)
}

// punion streams both sides; duplicates collapse at materialization.
type punion struct {
	l, r pnode
	rs   schema.Relation
}

func (n *punion) out() schema.Relation { return n.rs }

func (n *punion) stream(c *pctx, emit func(table.Tuple) bool) error {
	stopped := false
	err := n.l.stream(c, func(t table.Tuple) bool {
		if !emit(t) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	return n.r.stream(c, emit)
}

// pdiff streams left tuples absent from (−) or present in (∩) the right
// side.  The right side collapses to a key set (or, for a base scan, the
// relation itself) — its tuples are never stored.  Pure
// projections directly below either side are fused: keys and comparison
// rows are taken from the pre-projection tuple's columns, and the projected
// tuple is materialized only for tuples that reach the output.
type pdiff struct {
	l      pnode
	lproj  []int // nil: compare l's tuples whole
	lpred  cpred // optional filter fused from a projected selection
	lkpred kpred // coded twin of lpred for the coded path
	r      pnode
	rproj  []int
	rpred  cpred
	rkpred kpred // coded twin of rpred
	negate bool  // true: −, false: ∩
	rs     schema.Relation
}

// sideKey appends the comparison key of a tuple: its projected columns
// when a projection was fused, the whole tuple otherwise.
func sideKey(buf []byte, t table.Tuple, proj []int) []byte {
	if proj == nil {
		return t.AppendKey(buf)
	}
	for _, p := range proj {
		buf = t[p].AppendKey(buf)
	}
	return buf
}

// sideRow returns the row a diff compares for the left tuple t: t itself,
// or its fused projection gathered into the context's scratch tuple, valid
// until the next call.
func (c *pctx) sideRow(t table.Tuple, proj []int) table.Tuple {
	if proj == nil {
		return t
	}
	row := c.row[:0]
	for _, p := range proj {
		row = append(row, t[p])
	}
	c.row = row
	return row
}

// probeKeySize is the stack buffer a membership probe builds a row's key in;
// a longer key spills to the heap but stays correct.
const probeKeySize = 96

func (n *pdiff) out() schema.Relation { return n.rs }

// containsFn builds the right-side membership probe, which takes the
// comparison row of a left tuple (sideRow).
func (n *pdiff) containsFn(c *pctx) (func(row table.Tuple) bool, error) {
	if sc, ok := n.r.(*pscan); ok && n.rpred == nil {
		rrel := c.db.Relation(sc.name)
		if rrel == nil {
			return nil, relationErr(sc.name)
		}
		if n.rproj == nil {
			// Whole-tuple comparison: the relation's own table is the key
			// set.
			return rrel.Contains, nil
		}
		// Projected comparison: the relation's cached hash index on the
		// projected columns is the key set — built once, reused across
		// evaluations.
		ix := rrel.Index(n.rproj)
		return func(row table.Tuple) bool {
			var buf [probeKeySize]byte
			return ix.Has(row.AppendKey(buf[:0]))
		}, nil
	}
	// A base scan gets here only under a fused filter, which keeps an unknown
	// share of it: the set grows with the survivors.
	keys := make(map[string]struct{}, 16)
	err := n.r.stream(c, func(t table.Tuple) bool {
		if n.rpred != nil && !n.rpred(t) {
			return true
		}
		k := sideKey(c.keyBuf[:0], t, n.rproj)
		c.keyBuf = k
		if _, ok := keys[string(k)]; !ok {
			keys[string(k)] = struct{}{}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return func(row table.Tuple) bool {
		var buf [probeKeySize]byte
		_, ok := keys[string(row.AppendKey(buf[:0]))]
		return ok
	}, nil
}

func (n *pdiff) stream(c *pctx, emit func(table.Tuple) bool) error {
	contains, err := n.containsFn(c)
	if err != nil {
		return err
	}
	return n.l.stream(c, func(t table.Tuple) bool {
		if n.lpred != nil && !n.lpred(t) {
			return true
		}
		if contains(c.sideRow(t, n.lproj)) == n.negate {
			// − drops tuples present on the right; ∩ drops absent ones.
			return true
		}
		if n.lproj != nil {
			return emit(t.Project(n.lproj...))
		}
		return emit(t)
	})
}

// fusedDiff builds a pdiff, fusing projections below both sides.
func fusedDiff(l, r pnode, negate bool, rs schema.Relation) *pdiff {
	lsrc, lproj, lpred, lkpred := fuseDiffSide(l)
	rsrc, rproj, rpred, rkpred := fuseDiffSide(r)
	return &pdiff{
		l: lsrc, lproj: lproj, lpred: lpred, lkpred: lkpred,
		r: rsrc, rproj: rproj, rpred: rpred, rkpred: rkpred,
		negate: negate, rs: rs,
	}
}

// fuseDiffSide peels renames and a pure projection (with its fused
// pre-filter, in row and coded forms) off a diff/intersect
// input so pdiff can compare keys without materializing the projected
// tuples.  Renames do not change tuples, so they vanish entirely.
func fuseDiffSide(n pnode) (src pnode, proj []int, pred cpred, kp kpred) {
	for {
		if ps, ok := n.(*pschema); ok {
			n = ps.in
			continue
		}
		break
	}
	if pp, ok := n.(*pproject); ok {
		return pp.in, pp.idx, pp.pred, pp.kpred
	}
	return n, nil, nil, nil
}

// pdivision is relational division over materialized inputs (a pipeline
// breaker on both sides), ported from the naïve evaluator.
type pdivision struct {
	l, r    pnode
	divPos  []int // divisor attribute positions inside the dividend
	keepPos []int
	rs      schema.Relation
}

func (n *pdivision) out() schema.Relation { return n.rs }

func (n *pdivision) stream(c *pctx, emit func(table.Tuple) bool) error {
	l, err := materialize(n.l, c)
	if err != nil {
		return err
	}
	r, err := materialize(n.r, c)
	if err != nil {
		return err
	}
	divide(l, r, n.divPos, n.keepPos, n.rs).Each(emit)
	return nil
}

// pdelta is the Δ operator: {(a,a) | a ∈ adom(D)}.
type pdelta struct{ rs schema.Relation }

func (n *pdelta) out() schema.Relation { return n.rs }

func (n *pdelta) stream(c *pctx, emit func(table.Tuple) bool) error {
	for v := range c.db.ActiveDomain() {
		if !emit(table.NewTuple(v, v)) {
			return nil
		}
	}
	return nil
}
