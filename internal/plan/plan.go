// Package plan is the query planner: a rule-based logical optimizer over
// relational-algebra expressions (package ra) that compiles to physical
// operators — indexed hash joins, fused select-project pipelines, key-set
// anti-joins — and a world-aware evaluator that factors the plan into a
// world-invariant part, evaluated once, and a per-valuation delta plan
// (see world.go).
//
// The planner exists to make the paper's world-enumeration ground truth
// affordable: certain-answer computation by ⋂ { Q(v(D)) | v } re-evaluates
// the same query in |dom|^#nulls worlds, yet a valuation only changes the
// tuples that mention nulls.  Splitting every base relation R into its
// complete part R_c (identical in every world) and its null part R_n
// (tiny) turns the per-world cost from O(|Q(D)|) into O(|Q_null(D)|).
//
// The naïve evaluator ra.Eval is kept untouched as the oracle; the
// planner is differentially tested against it (plan_test.go).
package plan

import (
	"fmt"
	"strings"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
)

// Plan is a compiled, immutable physical query plan.  A Plan may be
// evaluated many times, against different databases over the same schema;
// repeated evaluation over the same base relations reuses their cached
// hash indexes.
type Plan struct {
	root pnode
	out  schema.Relation
}

// Compile rewrites the expression with the logical rule set and compiles
// it to physical operators.  The expression must be well-formed against s.
func Compile(q ra.Expr, s *schema.Schema) (*Plan, error) {
	out, err := q.OutSchema(s)
	if err != nil {
		return nil, err
	}
	rw, err := Rewrite(q, s)
	if err != nil {
		return nil, err
	}
	root, err := compileNode(rw, s)
	if err != nil {
		return nil, err
	}
	if root.out().Arity() != out.Arity() {
		return nil, fmt.Errorf("plan: internal arity mismatch: %s vs %s", root.out(), out)
	}
	return &Plan{root: root, out: out}, nil
}

// OutSchema returns the plan's output schema (the original expression's).
func (p *Plan) OutSchema() schema.Relation { return p.out }

// EvalConfig selects the execution strategy of one evaluation: whether
// eligible subtrees run on the coded path (codedexec.go) instead of the
// row-chunk path, and an optional join memory budget.  Evaluation is
// serial; parallelism lives between queries (engine.Serve, server
// sessions) and between worlds (the per-world pool of package certain).
// Every combination produces bit-identical results; the row path is the
// differential oracle of the coded one.
type EvalConfig struct {
	// Workers is deprecated and ignored: evaluation is serial.  It stays
	// only while the benchmark harness sets and reads it, and carries no
	// "Deprecated:" marker because staticcheck would report those reads.
	Workers int
	// Deprecated: ignored; the value-vector columnar tier is gone, and
	// Coded alone selects the vectorized path.  Kept until the benchmark
	// harness stops setting it.
	Columnar bool
	// Coded enables the dictionary-coded path where eligible.  It only
	// takes effect when the database exposes a value dictionary
	// (table.Database does) and every base relation a subtree reads
	// encodes cleanly; a subtree the coded path refuses runs on the row
	// path, so enabling it is always safe.
	Coded bool
	// MemBudget, when positive, bounds (approximately, in bytes) the
	// memory a hash join may pin for its build side: a build side over
	// budget is Grace-partitioned to temporary spill files and joined
	// partition by partition (spill.go), so evaluation handles build
	// sides larger than RAM.  Answers are bit-identical to the unbounded
	// path.  A budgeted evaluation runs on the row engine — Coded is
	// overridden, since the coded tier assumes resident build sides.
	MemBudget int64
}

// normalized resolves the config's internal contradictions: a memory
// budget forces the row engine, since the coded tier assumes resident
// build sides.
func (cfg EvalConfig) normalized() EvalConfig {
	if cfg.MemBudget > 0 {
		cfg.Coded = false
	}
	return cfg
}

// dictProvider is implemented by databases carrying a value dictionary
// (table.Database); the coded path keys its encodings against it.
type dictProvider interface {
	Dict() *table.Dict
}

// newPctx builds the evaluation context for one evaluation, resolving
// the coded tier against the database's dictionary.
func newPctx(db ra.DB, cfg EvalConfig) *pctx {
	c := &pctx{db: db, budget: cfg.MemBudget}
	if cfg.Coded {
		if dp, ok := db.(dictProvider); ok {
			if d := dp.Dict(); d != nil {
				c.coded = true
				c.dict = d
			}
		}
	}
	return c
}

// Eval evaluates the plan serially on the coded path where eligible.  Like
// ra.EvalDB, the result never aliases mutable state of the database.
func (p *Plan) Eval(db ra.DB) (*table.Relation, error) {
	return p.EvalWith(db, EvalConfig{Coded: true})
}

// EvalWith evaluates the plan with the given execution configuration.
// The result is bit-identical across all configurations and never
// aliases mutable state of the database.
func (p *Plan) EvalWith(db ra.DB, cfg EvalConfig) (*table.Relation, error) {
	c := newPctx(db, cfg.normalized())
	rel, err := materialize(p.root, c)
	if err != nil {
		return nil, err
	}
	if _, ok := p.root.(*pscan); ok {
		rel = rel.Clone() // copy-on-write; protects the base relation
	}
	return rel.WithSchema(p.out), nil
}

// EvalCertain evaluates the plan serially on the coded path and keeps
// only null-free tuples — the null-stripping step of certain-answer
// extraction (equation (4)), fused into materialization so the
// unstripped answer is never stored.  The result equals
// StripNulls(Eval(db)).
func (p *Plan) EvalCertain(db ra.DB) (*table.Relation, error) {
	return p.EvalCertainWith(db, EvalConfig{Coded: true})
}

// EvalCertainWith is EvalWith with the null-stripping of certain-answer
// extraction fused into materialization.
func (p *Plan) EvalCertainWith(db ra.DB, cfg EvalConfig) (*table.Relation, error) {
	c := newPctx(db, cfg.normalized())
	out := table.NewRelation(p.out)
	if err := materializeInto(p.root, c, true, out); err != nil {
		return nil, err
	}
	return out, nil
}

// EvalBool evaluates the plan as a Boolean query (nonempty result),
// stopping at the first tuple.
func (p *Plan) EvalBool(db ra.DB) (bool, error) {
	c := &pctx{db: db}
	found := false
	err := p.root.stream(c, func(table.Tuple) bool {
		found = true
		return false
	})
	return found, err
}

// Describe renders the physical operator tree, one operator per line, for
// debugging and documentation.  A scan under equality filters lists its
// sargable conjuncts and the access path its most recent evaluation took:
// index(attrs), or scan with the reason no index answered.
func (p *Plan) Describe() string {
	var b strings.Builder
	describe(p.root, &b, 0)
	return b.String()
}

func describe(n pnode, b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	switch x := n.(type) {
	case *pscan:
		if x.eq != nil {
			fmt.Fprintf(b, "scan %s %s\n", x.name, x.eq.describe())
		} else {
			fmt.Fprintf(b, "scan %s\n", x.name)
		}
	case *pempty:
		fmt.Fprintf(b, "empty %s\n", x.rs)
	case *pfilter:
		b.WriteString("filter\n")
		describe(x.in, b, depth+1)
	case *pproject:
		if x.pred != nil {
			fmt.Fprintf(b, "select-project %v\n", x.rs.Attrs)
		} else {
			fmt.Fprintf(b, "project %v\n", x.rs.Attrs)
		}
		describe(x.in, b, depth+1)
	case *pschema:
		fmt.Fprintf(b, "rename %s\n", x.rs)
		describe(x.in, b, depth+1)
	case *pproduct:
		b.WriteString("product\n")
		describe(x.l, b, depth+1)
		describe(x.r, b, depth+1)
	case *pjoin:
		fmt.Fprintf(b, "hash-join l%v=r%v\n", x.lpos, x.rpos)
		describe(x.l, b, depth+1)
		describe(x.r, b, depth+1)
	case *punion:
		b.WriteString("union\n")
		describe(x.l, b, depth+1)
		describe(x.r, b, depth+1)
	case *pdiff:
		if x.negate {
			b.WriteString("anti-probe (diff)\n")
		} else {
			b.WriteString("semi-probe (intersect)\n")
		}
		describe(x.l, b, depth+1)
		describe(x.r, b, depth+1)
	case *pdivision:
		b.WriteString("division\n")
		describe(x.l, b, depth+1)
		describe(x.r, b, depth+1)
	case *pdelta:
		b.WriteString("delta\n")
	default:
		fmt.Fprintf(b, "%T\n", n)
	}
}

// compileNode compiles a rewritten expression to a physical operator tree.
func compileNode(e ra.Expr, s *schema.Schema) (pnode, error) {
	switch ex := e.(type) {
	case ra.Rel:
		rs, ok := s.Relation(ex.Name)
		if !ok {
			return nil, fmt.Errorf("ra: unknown relation %q", ex.Name)
		}
		return &pscan{name: ex.Name, rs: rs}, nil

	case ra.Select:
		return compileSelect(ex, s)

	case ra.Project:
		// Fuse a selection directly below the projection (same as the
		// oracle evaluator, but with a compiled predicate).
		inExpr := ex.Input
		var pred ra.Predicate
		if sel, ok := inExpr.(ra.Select); ok {
			inExpr = sel.Input
			pred = sel.Pred
		}
		in, err := compileNode(inExpr, s)
		if err != nil {
			return nil, err
		}
		rs := in.out()
		var cp cpred
		var kp kpred
		if pred != nil {
			cp, err = compilePred(pred, rs)
			if err != nil {
				return nil, err
			}
			kp, err = compileKPred(pred, rs)
			if err != nil {
				return nil, err
			}
			noteSargable(in, pred)
		}
		idx, err := projectPositions(ex.Attrs, rs)
		if err != nil {
			return nil, err
		}
		return &pproject{in: in, pred: cp, kpred: kp, idx: idx,
			rs: schema.NewRelation("π("+rs.Name+")", ex.Attrs...)}, nil

	case ra.Rename:
		in, err := compileNode(ex.Input, s)
		if err != nil {
			return nil, err
		}
		rs, err := ex.OutSchemaFromInput(in.out())
		if err != nil {
			return nil, err
		}
		// A rename only relabels.  Folding it into a base scan lets
		// materialize return the base relation itself, so join build
		// sides that are renamed scans keep the relation's cached
		// indexes and coded sidecar instead of copying tuples per
		// evaluation; folding into another pschema keeps chains flat.
		switch x := in.(type) {
		case *pscan:
			return &pscan{name: x.name, rs: rs}, nil
		case *pschema:
			return &pschema{in: x.in, rs: rs}, nil
		}
		return &pschema{in: in, rs: rs}, nil

	case ra.Product:
		l, r, err := compilePair(ex.Left, ex.Right, s)
		if err != nil {
			return nil, err
		}
		rs, err := productSchema(l.out(), r.out())
		if err != nil {
			return nil, err
		}
		return &pproduct{l: l, r: r, rs: rs}, nil

	case ra.Join:
		l, r, err := compilePair(ex.Left, ex.Right, s)
		if err != nil {
			return nil, err
		}
		return compileNaturalJoin(l, r)

	case ra.Union:
		l, r, err := compileSetOp(ex.Left, ex.Right, "∪", s)
		if err != nil {
			return nil, err
		}
		return &punion{l: l, r: r,
			rs: schema.NewRelation("("+l.out().Name+"∪"+r.out().Name+")", l.out().Attrs...)}, nil

	case ra.Diff:
		l, r, err := compileSetOp(ex.Left, ex.Right, "−", s)
		if err != nil {
			return nil, err
		}
		return fusedDiff(l, r, true,
			schema.NewRelation("("+l.out().Name+"−"+r.out().Name+")", l.out().Attrs...)), nil

	case ra.Intersect:
		l, r, err := compileSetOp(ex.Left, ex.Right, "∩", s)
		if err != nil {
			return nil, err
		}
		return fusedDiff(l, r, false,
			schema.NewRelation("("+l.out().Name+"∩"+r.out().Name+")", l.out().Attrs...)), nil

	case ra.Division:
		l, r, err := compilePair(ex.Left, ex.Right, s)
		if err != nil {
			return nil, err
		}
		return compileDivision(l, r)

	case ra.Delta:
		rs, err := ex.OutSchema(s)
		if err != nil {
			return nil, err
		}
		return &pdelta{rs: rs}, nil

	default:
		return nil, fmt.Errorf("ra: unsupported expression %T", e)
	}
}

func compilePair(le, re ra.Expr, s *schema.Schema) (pnode, pnode, error) {
	l, err := compileNode(le, s)
	if err != nil {
		return nil, nil, err
	}
	r, err := compileNode(re, s)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

func compileSetOp(le, re ra.Expr, op string, s *schema.Schema) (pnode, pnode, error) {
	l, r, err := compilePair(le, re, s)
	if err != nil {
		return nil, nil, err
	}
	if l.out().Arity() != r.out().Arity() {
		return nil, nil, fmt.Errorf("ra: %s of arities %d and %d", op, l.out().Arity(), r.out().Arity())
	}
	return l, r, nil
}

func productSchema(ls, rs schema.Relation) (schema.Relation, error) {
	for _, a := range rs.Attrs {
		if ls.HasAttr(a) {
			return schema.Relation{}, fmt.Errorf("ra: product attribute clash on %q", a)
		}
	}
	attrs := append(append([]string{}, ls.Attrs...), rs.Attrs...)
	return schema.NewRelation("("+ls.Name+"×"+rs.Name+")", attrs...), nil
}

// naturalJoinSplit resolves a natural join's column roles: the shared
// (join) positions on each side, the right-side positions appended to the
// output, and the output schema.  Shared by the one-shot and world-plan
// compilers.
type naturalJoinSplit struct {
	lShared, rShared []int
	extraIdx         []int
	rs               schema.Relation
}

func splitNaturalJoin(ls, rsch schema.Relation) naturalJoinSplit {
	var sp naturalJoinSplit
	var extraAttrs []string
	for ri, a := range rsch.Attrs {
		if li := ls.AttrIndex(a); li >= 0 {
			sp.lShared = append(sp.lShared, li)
			sp.rShared = append(sp.rShared, ri)
		} else {
			extraAttrs = append(extraAttrs, a)
			sp.extraIdx = append(sp.extraIdx, ri)
		}
	}
	attrs := append(append([]string{}, ls.Attrs...), extraAttrs...)
	sp.rs = schema.NewRelation("("+ls.Name+"⋈"+rsch.Name+")", attrs...)
	return sp
}

// partitionEquiJoin splits a selection cascade over a product into
// cross-side equality conjuncts (the join condition) and the residual
// predicates.  Shared by both compilers.
func partitionEquiJoin(preds []ra.Predicate, ls, rsch schema.Relation) (lpos, rpos []int, residual []ra.Predicate) {
	for _, p := range preds {
		cmp, ok := p.(ra.Cmp)
		if !ok || cmp.Op != ra.EQ || !cmp.Left.IsAttr || !cmp.Right.IsAttr {
			residual = append(residual, p)
			continue
		}
		li, ri := ls.AttrIndex(cmp.Left.Attr), rsch.AttrIndex(cmp.Right.Attr)
		if li < 0 || ri < 0 {
			// The flipped orientation: right-side attribute on the left.
			li, ri = ls.AttrIndex(cmp.Right.Attr), rsch.AttrIndex(cmp.Left.Attr)
		}
		if li >= 0 && ri >= 0 {
			lpos = append(lpos, li)
			rpos = append(rpos, ri)
			continue
		}
		residual = append(residual, p)
	}
	return lpos, rpos, residual
}

// PartitionEquiJoin splits a selection conjunction over a product into the
// cross-side equality pairs that can drive a hash equi-join — returned as
// positions into the left and right schemas — and the residual predicates
// that remain as filters above the join.  It is the exported form of the
// Product+Select→Join rule, shared with incremental view maintenance
// (internal/inc) so maintained views detect joins exactly like the
// planner's physical and world compilers do.
func PartitionEquiJoin(preds []ra.Predicate, l, r schema.Relation) (lpos, rpos []int, residual []ra.Predicate) {
	return partitionEquiJoin(preds, l, r)
}

// NaturalJoin resolves a natural join's column roles for the two input
// schemas: the shared (join-key) positions on each side, the right-side
// positions appended to the output, and the output schema.  It is the
// exported form of the split shared by the one-shot and world-plan
// compilers, reused by incremental view maintenance (internal/inc).
func NaturalJoin(l, r schema.Relation) (lpos, rpos, extraIdx []int, out schema.Relation) {
	sp := splitNaturalJoin(l, r)
	return sp.lShared, sp.rShared, sp.extraIdx, sp.rs
}

// divisionSplit resolves a division's column roles: the divisor attribute
// positions inside the dividend, the kept positions, and the output
// schema.  Shared by both compilers.
type divisionSplit struct {
	divPos, keepPos []int
	rs              schema.Relation
}

func splitDivision(ls, rsch schema.Relation) (divisionSplit, error) {
	var sp divisionSplit
	if rsch.Arity() == 0 {
		return sp, fmt.Errorf("ra: division by zero-ary relation")
	}
	sp.divPos = make([]int, rsch.Arity())
	for i, a := range rsch.Attrs {
		j := ls.AttrIndex(a)
		if j < 0 {
			return sp, fmt.Errorf("ra: division attribute %q of %s not in %s", a, rsch, ls)
		}
		sp.divPos[i] = j
	}
	var keepAttrs []string
	for i, a := range ls.Attrs {
		if !rsch.HasAttr(a) {
			keepAttrs = append(keepAttrs, a)
			sp.keepPos = append(sp.keepPos, i)
		}
	}
	if len(keepAttrs) == 0 {
		return sp, fmt.Errorf("ra: division %s ÷ %s would have empty schema", ls, rsch)
	}
	sp.rs = schema.NewRelation("("+ls.Name+"÷"+rsch.Name+")", keepAttrs...)
	return sp, nil
}

// allPositions returns [0, n).
func allPositions(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// compileNaturalJoin builds the ⋈ operator: a hash join on the shared
// attributes, or a product when the attribute sets are disjoint.
func compileNaturalJoin(l, r pnode) (pnode, error) {
	sp := splitNaturalJoin(l.out(), r.out())
	if len(sp.lShared) == 0 {
		return &pproduct{l: l, r: r, rs: sp.rs}, nil
	}
	return &pjoin{l: l, r: r, lpos: sp.lShared, rpos: sp.rShared, extraIdx: sp.extraIdx, rs: sp.rs}, nil
}

// compileSelect compiles a cascade of selections.  When the cascade sits
// on a product and contains cross-side equality conjuncts, it becomes a
// hash equi-join (the Product+Select→Join rule); remaining predicates stay
// as filters above it.
func compileSelect(sel ra.Select, s *schema.Schema) (pnode, error) {
	var preds []ra.Predicate
	var inExpr ra.Expr = sel
	for {
		cur, ok := inExpr.(ra.Select)
		if !ok {
			break
		}
		preds = append(preds, cur.Pred)
		inExpr = cur.Input
	}

	if prod, ok := inExpr.(ra.Product); ok {
		return compileSelectProduct(preds, prod, s)
	}

	in, err := compileNode(inExpr, s)
	if err != nil {
		return nil, err
	}
	return wrapFilters(in, preds, in.out())
}

// wrapFilters stacks compiled predicate filters over a node; a constant
// false predicate collapses the subtree to the empty relation.
func wrapFilters(in pnode, preds []ra.Predicate, rs schema.Relation) (pnode, error) {
	node := in
	for i := len(preds) - 1; i >= 0; i-- {
		if _, isFalse := preds[i].(ra.False); isFalse {
			return &pempty{rs: rs}, nil
		}
		cp, err := compilePred(preds[i], rs)
		if err != nil {
			return nil, err
		}
		if cp == nil {
			continue // constant true
		}
		kp, err := compileKPred(preds[i], rs)
		if err != nil {
			return nil, err
		}
		noteSargable(in, preds[i])
		node = &pfilter{in: node, pred: cp, kpred: kp}
	}
	return node, nil
}

// compileSelectProduct detects equi-join conjuncts (one attribute of each
// product side) in a selection cascade over a product.
func compileSelectProduct(preds []ra.Predicate, prod ra.Product, s *schema.Schema) (pnode, error) {
	l, r, err := compilePair(prod.Left, prod.Right, s)
	if err != nil {
		return nil, err
	}
	ls, rsch := l.out(), r.out()
	rs, err := productSchema(ls, rsch)
	if err != nil {
		return nil, err
	}
	lpos, rpos, residual := partitionEquiJoin(preds, ls, rsch)
	if len(lpos) == 0 {
		return wrapFilters(&pproduct{l: l, r: r, rs: rs}, preds, rs)
	}
	join := &pjoin{l: l, r: r, lpos: lpos, rpos: rpos, extraIdx: allPositions(rsch.Arity()), rs: rs}
	return wrapFilters(join, residual, rs)
}

func compileDivision(l, r pnode) (pnode, error) {
	sp, err := splitDivision(l.out(), r.out())
	if err != nil {
		return nil, err
	}
	return &pdivision{l: l, r: r, divPos: sp.divPos, keepPos: sp.keepPos, rs: sp.rs}, nil
}

func projectPositions(attrs []string, rs schema.Relation) ([]int, error) {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := rs.AttrIndex(a)
		if j < 0 {
			return nil, fmt.Errorf("ra: projection attribute %q not in %s", a, rs)
		}
		idx[i] = j
	}
	return idx, nil
}
