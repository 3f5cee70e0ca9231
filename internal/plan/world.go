package plan

import (
	"fmt"
	"slices"
	"sync"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// World-aware evaluation: the world-enumeration ground truth evaluates
// Q(v(D)) for every valuation v of the nulls, but v only changes the
// tuples that mention nulls.  ForWorlds factors the (rewritten) plan of Q
// into, per operator, a *stable* part — identical in every world, computed
// exactly once and cached — and a per-valuation *delta*:
//
//	full(v) = stable ∪ delta(v)              ("splittable" operators)
//
// Base relations split into complete part (stable) and null part (delta =
// v applied to the null tuples); σ, π, ρ, ∪ and Δ distribute over the
// split; ×, ⋈ and ∩ expand it (the ⋈ deltas probe persistently indexed
// stable sides, so a world costs O(#null tuples), not O(|D|)); − splits
// when its right side is world-invariant.  Division and the remaining −
// cases evaluate per world over materialized children, still reusing every
// invariant subtree.
//
// A WorldPlan is shared (stable results and their hash indexes are built
// once, under sync.Once, and only read afterwards); each enumeration
// worker owns a Session, whose per-node tuple buffers are recycled from
// world to world (session.go).

// WorldPlan is a query plan factored for world enumeration over a fixed
// incomplete database.
type WorldPlan struct {
	d     *table.Database
	root  *wnode
	out   schema.Relation
	n     int           // number of nodes (scratch sizing)
	nulls []value.Value // the nulls the plan reads, sorted: a session's dense valuation is indexed like it

	sessions sync.Pool // recycled *Session values (warm per-node scratch)
}

// SetWorkers is deprecated and does nothing: stable parts are computed
// serially, and the worlds of a sweep are spread over the per-world pool of
// package certain.  It stays only while the benchmark harness calls it, and
// carries no "Deprecated:" marker because staticcheck would report that call.
func (wp *WorldPlan) SetWorkers(int) {}

// AcquireSession returns a session from the plan's pool (or a fresh one).
// Returning it with ReleaseSession lets the next certain-answer call reuse
// the per-node buffers.
func (wp *WorldPlan) AcquireSession() *Session {
	if s, ok := wp.sessions.Get().(*Session); ok && s != nil {
		return s
	}
	return wp.NewSession()
}

// ReleaseSession returns a session to the plan's pool.  The relations the
// session's last Delta/Answer calls returned must no longer be used by the
// caller (clones and tuples taken from them stay valid); the session keeps
// no reference to a caller's valuation.
func (wp *WorldPlan) ReleaseSession(s *Session) { wp.sessions.Put(s) }

// SortedNulls returns, in the deterministic enumeration order, the nulls a
// sweep has to range over: those of the relations the query reads (all of
// Null(D) for a query over the whole database, Δ).  Valuations that differ
// only on other nulls give the same answer, so enumerating Null(D) would
// repeat every world |dom|^k times over.  Computed once at plan time;
// callers must not mutate it.
func (wp *WorldPlan) SortedNulls() []value.Value { return wp.nulls }

// ForWorlds rewrites and factors q for world enumeration over d.
func ForWorlds(q ra.Expr, d *table.Database) (*WorldPlan, error) {
	out, err := q.OutSchema(d.Schema())
	if err != nil {
		return nil, err
	}
	rw, err := Rewrite(q, d.Schema())
	if err != nil {
		return nil, err
	}
	reads, wholeDB := ra.BaseRelations(rw)
	if wholeDB {
		reads = d.RelationNames()
	}
	nulls := collectNulls(d, reads)
	b := &worldBuilder{d: d, ord: make(map[value.Value]int32, len(nulls))}
	for i, nl := range nulls {
		b.ord[nl] = int32(i)
	}
	root, err := b.build(rw)
	if err != nil {
		return nil, err
	}
	return &WorldPlan{d: d, root: root, out: out, n: b.n, nulls: nulls}, nil
}

// collectNulls gathers the nulls of the named relations, sorted, in a
// single pass over the stored tuples; names d does not have are skipped
// (the build reports them).
func collectNulls(d *table.Database, names []string) []value.Value {
	seen := map[value.Value]bool{}
	var out []value.Value
	for _, name := range names {
		d.Relation(name).Each(func(t table.Tuple) bool {
			for _, v := range t {
				if v.IsNull() && !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
			return true
		})
	}
	slices.SortFunc(out, value.Compare)
	return out
}

// OutSchema returns the plan's output schema (the original expression's).
func (wp *WorldPlan) OutSchema() schema.Relation { return wp.out }

// Splittable reports whether every world's answer decomposes as
// Stable() ∪ Delta(v).  When false, use Session.Answer per world instead;
// invariant subtrees are still evaluated only once.
func (wp *WorldPlan) Splittable() bool { return wp.root.splittable }

// Invariant reports whether the answer is identical in every world (the
// query touches no nulls), i.e. Delta(v) is empty for every v.
func (wp *WorldPlan) Invariant() bool { return wp.root.invariant }

// Stable returns the world-invariant part of the answer: tuples present in
// Q(v(D)) for every valuation v.  Only valid when Splittable().  The
// result is computed on first use and shared; callers must not mutate it.
func (wp *WorldPlan) Stable() (*table.Relation, error) {
	if !wp.root.splittable {
		return nil, fmt.Errorf("plan: world plan for %s is not splittable", wp.out)
	}
	return wp.stable(wp.root)
}

func (wp *WorldPlan) stable(n *wnode) (*table.Relation, error) {
	n.stableOnce.Do(func() {
		n.stableRel, n.stableErr = wp.computeStable(n)
	})
	return n.stableRel, n.stableErr
}

// wkind discriminates world-plan operators.
type wkind uint8

const (
	wRel wkind = iota
	wSelect
	wProject
	wRename
	wProduct
	wJoin
	wUnion
	wIntersect
	wDiff
	wDivision
	wDelta
	wEmpty
)

// wnode is one operator of a factored world plan.
type wnode struct {
	id   int
	kind wkind
	l, r *wnode
	rs   schema.Relation

	// splittable: full(v) = stable ∪ delta(v) holds for this subtree.
	// invariant: the subtree's result is identical in every world.
	// invariant implies splittable (the delta is empty).
	splittable bool
	invariant  bool

	// Kind-specific compiled data.
	relName  string
	tmpl     []value.Value // wRel, wDelta: the tuples mentioning nulls, row-major
	patch    []nullRef     // wRel, wDelta: where tmpl holds which null, ascending
	pred     cpred         // wSelect
	projIdx  []int         // wProject
	lpos     []int         // wJoin: shared positions in the left input
	rpos     []int         // wJoin: shared positions in the right input
	extraIdx []int         // wJoin, wProduct: right positions appended to the output
	divPos   []int         // wDivision
	keepPos  []int         // wDivision
	adomC    []value.Value // wDelta: constants of adom(D)

	stableOnce sync.Once
	stableRel  *table.Relation
	stableErr  error
}

// nullRef says that position pos of a node's tuple template holds the
// null with ordinal ord in WorldPlan.nulls: a world's tuples are the
// template with every such position overwritten from the dense valuation.
type nullRef struct{ pos, ord int32 }

type worldBuilder struct {
	d   *table.Database
	n   int
	ord map[value.Value]int32 // ordinal of each null the plan reads
}

// template appends t to the node's tuple template, noting its nulls.
func (b *worldBuilder) template(n *wnode, t table.Tuple) {
	for _, v := range t {
		if v.IsNull() {
			n.patch = append(n.patch, nullRef{pos: int32(len(n.tmpl)), ord: b.ord[v]})
		}
		n.tmpl = append(n.tmpl, v)
	}
}

func (b *worldBuilder) node(kind wkind, rs schema.Relation) *wnode {
	n := &wnode{id: b.n, kind: kind, rs: rs}
	b.n++
	return n
}

func (b *worldBuilder) build(e ra.Expr) (*wnode, error) {
	switch ex := e.(type) {
	case ra.Rel:
		rel := b.d.Relation(ex.Name)
		if rel == nil {
			return nil, fmt.Errorf("ra: unknown relation %q", ex.Name)
		}
		n := b.node(wRel, rel.Schema())
		n.relName = ex.Name
		rel.Each(func(t table.Tuple) bool {
			if t.HasNull() {
				b.template(n, t)
			}
			return true
		})
		n.splittable = true
		n.invariant = len(n.tmpl) == 0
		return n, nil

	case ra.Select:
		// Gather the selection cascade: a cascade over a product whose
		// conjuncts equate one attribute of each side becomes an indexed
		// equi-join, exactly as in the one-shot compiler — otherwise the
		// per-world deltas would cross-product against stable sides.
		var preds []ra.Predicate
		var inExpr ra.Expr = ex
		for {
			cur, ok := inExpr.(ra.Select)
			if !ok {
				break
			}
			preds = append(preds, cur.Pred)
			inExpr = cur.Input
		}
		if prod, ok := inExpr.(ra.Product); ok {
			return b.buildSelectProduct(preds, prod)
		}
		in, err := b.build(inExpr)
		if err != nil {
			return nil, err
		}
		return b.wrapSelects(in, preds)

	case ra.Project:
		in, err := b.build(ex.Input)
		if err != nil {
			return nil, err
		}
		idx, err := projectPositions(ex.Attrs, in.rs)
		if err != nil {
			return nil, err
		}
		n := b.node(wProject, schema.NewRelation("π("+in.rs.Name+")", ex.Attrs...))
		n.l, n.projIdx = in, idx
		n.splittable, n.invariant = in.splittable, in.invariant
		return n, nil

	case ra.Rename:
		in, err := b.build(ex.Input)
		if err != nil {
			return nil, err
		}
		rs, err := ex.OutSchemaFromInput(in.rs)
		if err != nil {
			return nil, err
		}
		n := b.node(wRename, rs)
		n.l = in
		n.splittable, n.invariant = in.splittable, in.invariant
		return n, nil

	case ra.Product:
		l, r, err := b.buildPair(ex.Left, ex.Right)
		if err != nil {
			return nil, err
		}
		rs, err := productSchema(l.rs, r.rs)
		if err != nil {
			return nil, err
		}
		n := b.node(wProduct, rs)
		n.l, n.r, n.extraIdx = l, r, allPositions(r.rs.Arity())
		n.splittable = l.splittable && r.splittable
		n.invariant = l.invariant && r.invariant
		return n, nil

	case ra.Join:
		l, r, err := b.buildPair(ex.Left, ex.Right)
		if err != nil {
			return nil, err
		}
		sp := splitNaturalJoin(l.rs, r.rs)
		kind := wJoin
		if len(sp.lShared) == 0 {
			kind = wProduct
		}
		n := b.node(kind, sp.rs)
		n.l, n.r = l, r
		n.lpos, n.rpos, n.extraIdx = sp.lShared, sp.rShared, sp.extraIdx
		n.splittable = l.splittable && r.splittable
		n.invariant = l.invariant && r.invariant
		return n, nil

	case ra.Union:
		l, r, err := b.buildSetOp(ex.Left, ex.Right, "∪")
		if err != nil {
			return nil, err
		}
		n := b.node(wUnion, schema.NewRelation("("+l.rs.Name+"∪"+r.rs.Name+")", l.rs.Attrs...))
		n.l, n.r = l, r
		n.splittable = l.splittable && r.splittable
		n.invariant = l.invariant && r.invariant
		return n, nil

	case ra.Intersect:
		l, r, err := b.buildSetOp(ex.Left, ex.Right, "∩")
		if err != nil {
			return nil, err
		}
		n := b.node(wIntersect, schema.NewRelation("("+l.rs.Name+"∩"+r.rs.Name+")", l.rs.Attrs...))
		n.l, n.r = l, r
		n.splittable = l.splittable && r.splittable
		n.invariant = l.invariant && r.invariant
		return n, nil

	case ra.Diff:
		l, r, err := b.buildSetOp(ex.Left, ex.Right, "−")
		if err != nil {
			return nil, err
		}
		n := b.node(wDiff, schema.NewRelation("("+l.rs.Name+"−"+r.rs.Name+")", l.rs.Attrs...))
		n.l, n.r = l, r
		// L − R splits iff R is the same in every world: the stable part of
		// L shrinks by a fixed set, and only L's delta varies.
		n.splittable = l.splittable && r.invariant
		n.invariant = l.invariant && r.invariant
		return n, nil

	case ra.Division:
		l, r, err := b.buildPair(ex.Left, ex.Right)
		if err != nil {
			return nil, err
		}
		sp, err := splitDivision(l.rs, r.rs)
		if err != nil {
			return nil, err
		}
		n := b.node(wDivision, sp.rs)
		n.l, n.r = l, r
		n.divPos, n.keepPos = sp.divPos, sp.keepPos
		// Division only splits trivially (both sides invariant).
		n.invariant = l.invariant && r.invariant
		n.splittable = n.invariant
		return n, nil

	case ra.Delta:
		rs, err := ex.OutSchema(b.d.Schema())
		if err != nil {
			return nil, err
		}
		n := b.node(wDelta, rs)
		for v := range b.d.ActiveDomain() {
			if v.IsConst() {
				n.adomC = append(n.adomC, v)
			} else {
				b.template(n, table.NewTuple(v, v))
			}
		}
		n.splittable = true
		n.invariant = len(n.tmpl) == 0
		return n, nil

	default:
		return nil, fmt.Errorf("ra: unsupported expression %T", e)
	}
}

// wrapSelects stacks selection nodes over in, innermost predicate first
// (preds is collected outermost-first; conjunction order is immaterial).
func (b *worldBuilder) wrapSelects(in *wnode, preds []ra.Predicate) (*wnode, error) {
	node := in
	for i := len(preds) - 1; i >= 0; i-- {
		if _, isFalse := preds[i].(ra.False); isFalse {
			n := b.node(wEmpty, node.rs)
			n.splittable, n.invariant = true, true
			return n, nil
		}
		cp, err := compilePred(preds[i], node.rs)
		if err != nil {
			return nil, err
		}
		if cp == nil {
			continue // constant true
		}
		n := b.node(wSelect, node.rs)
		n.l, n.pred = node, cp
		n.splittable, n.invariant = node.splittable, node.invariant
		node = n
	}
	return node, nil
}

// buildSelectProduct is the world-plan side of the Product+Select→Join
// rule: cross-side equality conjuncts become a wJoin (whose deltas probe
// the indexed stable sides), the rest stay as filters above it.
func (b *worldBuilder) buildSelectProduct(preds []ra.Predicate, prod ra.Product) (*wnode, error) {
	l, r, err := b.buildPair(prod.Left, prod.Right)
	if err != nil {
		return nil, err
	}
	rs, err := productSchema(l.rs, r.rs)
	if err != nil {
		return nil, err
	}
	lpos, rpos, residual := partitionEquiJoin(preds, l.rs, r.rs)
	kind := wJoin
	if len(lpos) == 0 {
		kind = wProduct
	}
	n := b.node(kind, rs)
	n.l, n.r, n.extraIdx = l, r, allPositions(r.rs.Arity())
	if kind == wJoin {
		n.lpos, n.rpos = lpos, rpos
		preds = residual
	}
	n.splittable = l.splittable && r.splittable
	n.invariant = l.invariant && r.invariant
	return b.wrapSelects(n, preds)
}

func (b *worldBuilder) buildPair(le, re ra.Expr) (*wnode, *wnode, error) {
	l, err := b.build(le)
	if err != nil {
		return nil, nil, err
	}
	r, err := b.build(re)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

func (b *worldBuilder) buildSetOp(le, re ra.Expr, op string) (*wnode, *wnode, error) {
	l, r, err := b.buildPair(le, re)
	if err != nil {
		return nil, nil, err
	}
	if l.rs.Arity() != r.rs.Arity() {
		return nil, nil, fmt.Errorf("ra: %s of arities %d and %d", op, l.rs.Arity(), r.rs.Arity())
	}
	return l, r, nil
}

// computeStable evaluates the world-invariant part of a node, child stable
// parts first.  For invariant nodes this is the full (only) result.
func (wp *WorldPlan) computeStable(n *wnode) (*table.Relation, error) {
	var sl, sr *table.Relation
	var err error
	if n.l != nil {
		if sl, err = wp.stable(n.l); err != nil {
			return nil, err
		}
	}
	if n.r != nil {
		if sr, err = wp.stable(n.r); err != nil {
			return nil, err
		}
	}
	switch n.kind {
	case wRel:
		return wp.d.Relation(n.relName).CompletePart(), nil
	case wEmpty:
		return table.NewRelation(n.rs), nil
	case wSelect:
		return sl.Filter(n.pred), nil
	case wProject:
		out := table.NewRelation(n.rs)
		sl.Each(func(t table.Tuple) bool {
			out.MustAdd(t.Project(n.projIdx...))
			return true
		})
		return out, nil
	case wRename:
		return sl.WithSchema(n.rs), nil
	case wProduct:
		out := table.NewRelation(n.rs)
		sl.Each(func(lt table.Tuple) bool {
			sr.Each(func(rt table.Tuple) bool {
				out.MustAdd(lt.Concat(rt))
				return true
			})
			return true
		})
		return out, nil
	case wJoin:
		out := table.NewRelation(n.rs)
		ix := sr.Index(n.rpos)
		var keyBuf []byte
		sl.Each(func(lt table.Tuple) bool {
			keyBuf = keyBuf[:0]
			for _, p := range n.lpos {
				keyBuf = lt[p].AppendKey(keyBuf)
			}
			joinProbe(out, ix, keyBuf, lt, n.extraIdx)
			return true
		})
		return out, nil
	case wUnion:
		out := table.NewRelation(n.rs)
		if err := out.AddAll(sl); err != nil {
			return nil, err
		}
		if err := out.AddAll(sr); err != nil {
			return nil, err
		}
		return out, nil
	case wIntersect:
		return sl.Filter(sr.Contains).WithSchema(n.rs), nil
	case wDiff:
		// Splittable (right invariant) or fully invariant: either way the
		// stable part is stable(L) − R.
		return sl.Filter(func(t table.Tuple) bool { return !sr.Contains(t) }).WithSchema(n.rs), nil
	case wDivision:
		// Only reached when invariant.
		return divide(sl, sr, n.divPos, n.keepPos, n.rs), nil
	case wDelta:
		out := table.NewRelation(n.rs)
		for _, c := range n.adomC {
			out.MustAdd(table.NewTuple(c, c))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("plan: unknown world operator %d", n.kind)
	}
}

// joinProbe emits index matches for one probe tuple into out.
func joinProbe(out *table.Relation, ix *table.Index, key []byte, lt table.Tuple, extraIdx []int) {
	for sh, i := ix.Lookup(key); i != 0; {
		var rt table.Tuple
		rt, i = sh.At(i)
		combined := make(table.Tuple, len(lt), len(lt)+len(extraIdx))
		copy(combined, lt)
		for _, ri := range extraIdx {
			combined = append(combined, rt[ri])
		}
		out.MustAdd(combined)
	}
}

// divide is relational division over materialized relations — the single
// implementation shared by the one-shot physical operator and the stable
// and per-world paths of world plans.
func divide(l, r *table.Relation, divPos, keepPos []int, rs schema.Relation) *table.Relation {
	out := table.NewRelation(rs)
	type group struct {
		repr table.Tuple
		seen map[string]bool
	}
	groups := map[string]*group{}
	var keyBuf, divBuf []byte
	l.Each(func(t table.Tuple) bool {
		keyBuf = keyBuf[:0]
		for _, p := range keepPos {
			keyBuf = t[p].AppendKey(keyBuf)
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &group{repr: t.Project(keepPos...), seen: map[string]bool{}}
			groups[string(keyBuf)] = g
		}
		divBuf = divBuf[:0]
		for _, p := range divPos {
			divBuf = t[p].AppendKey(divBuf)
		}
		if !g.seen[string(divBuf)] {
			g.seen[string(divBuf)] = true
		}
		return true
	})
	var divisorKeys []string
	r.Each(func(t table.Tuple) bool {
		divisorKeys = append(divisorKeys, string(t.AppendKey(keyBuf[:0])))
		return true
	})
	for _, g := range groups {
		all := true
		for _, dk := range divisorKeys {
			if !g.seen[dk] {
				all = false
				break
			}
		}
		if all {
			out.MustAdd(g.repr)
		}
	}
	return out
}
