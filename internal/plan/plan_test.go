package plan

import (
	"math/rand"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
	"incdata/internal/workload"
)

// exprGen generates random well-formed ra expressions over the fixed fuzz
// schema R(a,b), S(b,c), T(a,b).
type exprGen struct {
	rnd *rand.Rand
	s   *schema.Schema
}

func fuzzSchema() *schema.Schema {
	return schema.MustNew(
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "b", "c"),
		schema.NewRelation("T", "a", "b"),
	)
}

// fuzzDB builds a small random incomplete database over the fuzz schema
// (the relations carry the schema's attribute names, so generated
// predicates and projections resolve).
func fuzzDB(seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	d := table.NewDatabase(fuzzSchema())
	for _, name := range []string{"R", "S", "T"} {
		for i := 0; i < 6; i++ {
			t := make(table.Tuple, 2)
			for j := range t {
				if rnd.Intn(4) == 0 {
					t[j] = value.Null(uint64(rnd.Intn(3) + 1))
				} else {
					t[j] = value.Int(int64(rnd.Intn(4)))
				}
			}
			d.MustAdd(name, t)
		}
	}
	return d
}

func (g *exprGen) expr(depth int) ra.Expr {
	e := g.rawExpr(depth)
	if _, err := e.OutSchema(g.s); err != nil {
		// The generator can produce attribute clashes (products of
		// identically named columns); fall back to a base expression.
		return g.base()
	}
	return e
}

func (g *exprGen) rawExpr(depth int) ra.Expr {
	if depth <= 0 {
		return g.base()
	}
	switch g.rnd.Intn(12) {
	case 0:
		return g.base()
	case 1:
		in := g.expr(depth - 1)
		return ra.Select{Input: in, Pred: g.pred(in, 2)}
	case 2:
		in := g.expr(depth - 1)
		attrs := g.someAttrs(in)
		if attrs == nil {
			return in
		}
		return ra.Project{Input: in, Attrs: attrs}
	case 3:
		in := g.expr(depth - 1)
		rs := g.outSchema(in)
		attrs := make([]string, rs.Arity())
		for i := range attrs {
			attrs[i] = g.freshAttr(i)
		}
		return ra.Rename{Input: in, As: "X", Attrs: attrs}
	case 4:
		l, r := g.expr(depth-1), g.expr(depth-1)
		// Rename the right side apart so the product is well-formed.
		rs := g.outSchema(r)
		attrs := make([]string, rs.Arity())
		for i := range attrs {
			attrs[i] = g.freshAttr(i + 10)
		}
		return ra.Product{Left: l, Right: ra.Rename{Input: r, As: "Y", Attrs: attrs}}
	case 5:
		return ra.Join{Left: g.expr(depth - 1), Right: g.expr(depth - 1)}
	case 6, 7:
		l := g.expr(depth - 1)
		r := g.sameArity(l, depth-1)
		return ra.Union{Left: l, Right: r}
	case 8:
		l := g.expr(depth - 1)
		r := g.sameArity(l, depth-1)
		return ra.Diff{Left: l, Right: r}
	case 9:
		l := g.expr(depth - 1)
		r := g.sameArity(l, depth-1)
		return ra.Intersect{Left: l, Right: r}
	case 10:
		// Division of a product by its right factor: always well-formed.
		r := g.base()
		rs := g.outSchema(r)
		attrs := make([]string, rs.Arity())
		for i := range attrs {
			attrs[i] = g.freshAttr(i + 20)
		}
		renamed := ra.Rename{Input: r, As: "D", Attrs: attrs}
		return ra.Division{
			Left:  ra.Product{Left: g.base(), Right: renamed},
			Right: renamed,
		}
	default:
		// Selection over a product with a cross equality: exercises the
		// Product+Select→Join rule.
		l := g.base()
		r := g.base()
		rs := g.outSchema(r)
		attrs := make([]string, rs.Arity())
		for i := range attrs {
			attrs[i] = g.freshAttr(i + 30)
		}
		renamed := ra.Rename{Input: r, As: "Z", Attrs: attrs}
		ls := g.outSchema(l)
		pred := ra.Eq(ra.Attr(ls.Attrs[g.rnd.Intn(ls.Arity())]), ra.Attr(attrs[g.rnd.Intn(len(attrs))]))
		return ra.Select{Input: ra.Product{Left: l, Right: renamed}, Pred: pred}
	}
}

func (g *exprGen) base() ra.Expr {
	switch g.rnd.Intn(4) {
	case 0:
		return ra.Base("R")
	case 1:
		return ra.Base("S")
	case 2:
		return ra.Base("T")
	default:
		return ra.Delta{Attr1: "d1", Attr2: "d2"}
	}
}

func (g *exprGen) outSchema(e ra.Expr) schema.Relation {
	rs, err := e.OutSchema(g.s)
	if err != nil {
		panic(err)
	}
	return rs
}

func (g *exprGen) freshAttr(i int) string {
	return "x" + string(rune('a'+i%26)) + string(rune('0'+g.rnd.Intn(10)))
}

func (g *exprGen) someAttrs(e ra.Expr) []string {
	rs := g.outSchema(e)
	var out []string
	for _, a := range rs.Attrs {
		if g.rnd.Intn(2) == 0 {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// sameArity generates an expression with the same arity as e (projecting
// or padding a base expression as needed).
func (g *exprGen) sameArity(e ra.Expr, depth int) ra.Expr {
	want := g.outSchema(e).Arity()
	cand := g.expr(depth)
	rs := g.outSchema(cand)
	if rs.Arity() == want {
		return cand
	}
	if rs.Arity() > want {
		return ra.Project{Input: cand, Attrs: rs.Attrs[:want]}
	}
	// Pad by product with renamed bases until wide enough, then project.
	padSeq := 0
	for rs.Arity() < want {
		extra := g.base()
		es := g.outSchema(extra)
		attrs := make([]string, es.Arity())
		for i := range attrs {
			attrs[i] = "pad" + string(rune('a'+padSeq)) + string(rune('a'+i))
		}
		padSeq++
		next := ra.Product{Left: cand, Right: ra.Rename{Input: extra, As: "P", Attrs: attrs}}
		nrs, err := next.OutSchema(g.s)
		if err != nil {
			continue // unlucky clash; try another pad
		}
		cand, rs = next, nrs
	}
	return ra.Project{Input: cand, Attrs: rs.Attrs[:want]}
}

func (g *exprGen) pred(e ra.Expr, depth int) ra.Predicate {
	rs := g.outSchema(e)
	if depth <= 0 || g.rnd.Intn(3) == 0 {
		return g.cmp(rs)
	}
	switch g.rnd.Intn(4) {
	case 0:
		return ra.AllOf(g.pred(e, depth-1), g.pred(e, depth-1))
	case 1:
		return ra.AnyOf(g.pred(e, depth-1), g.pred(e, depth-1))
	case 2:
		return ra.Negate(g.pred(e, depth-1))
	default:
		return g.cmp(rs)
	}
}

func (g *exprGen) cmp(rs schema.Relation) ra.Predicate {
	ops := []ra.CmpOp{ra.EQ, ra.NEQ, ra.LT, ra.LEQ, ra.GT, ra.GEQ}
	op := ops[g.rnd.Intn(len(ops))]
	operand := func() ra.Operand {
		if g.rnd.Intn(2) == 0 {
			return ra.Attr(rs.Attrs[g.rnd.Intn(rs.Arity())])
		}
		if g.rnd.Intn(2) == 0 {
			return ra.LitInt(int64(g.rnd.Intn(5)))
		}
		return ra.LitString("v" + string(rune('0'+g.rnd.Intn(4))))
	}
	return ra.Cmp{Left: operand(), Op: op, Right: operand()}
}

// mustSame asserts the planned evaluation is bit-identical to the oracle.
func mustSame(t *testing.T, q ra.Expr, d *table.Database, label string) {
	t.Helper()
	want, oracleErr := ra.Eval(q, d)
	p, err := Compile(q, d.Schema())
	if oracleErr != nil {
		// The oracle rejects the query at runtime; the planner must reject
		// it too (at compile or eval time).
		if err != nil {
			return
		}
		if _, err := p.Eval(d); err == nil {
			t.Fatalf("%s: oracle failed (%v) but planner succeeded for %s", label, oracleErr, q)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: compile failed for %s: %v", label, q, err)
	}
	got, err := p.Eval(d)
	if err != nil {
		t.Fatalf("%s: eval failed for %s: %v", label, q, err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: planned result differs for %s\nplanner: %s\noracle:  %s\nplan:\n%s",
			label, q, got, want, p.Describe())
	}
	// Bit-identical includes the output attribute names.
	wantSchema, _ := q.OutSchema(d.Schema())
	if gotAttrs, wantAttrs := got.Schema().Attrs, wantSchema.Attrs; len(gotAttrs) == len(wantAttrs) {
		for i := range gotAttrs {
			if gotAttrs[i] != wantAttrs[i] {
				t.Fatalf("%s: output attrs differ for %s: %v vs %v", label, q, gotAttrs, wantAttrs)
			}
		}
	}
	// And the Boolean route must agree with nonemptiness.
	gotBool, err := p.EvalBool(d)
	if err != nil {
		t.Fatalf("%s: EvalBool failed for %s: %v", label, q, err)
	}
	if gotBool != (want.Len() > 0) {
		t.Fatalf("%s: EvalBool=%v but |answer|=%d for %s", label, gotBool, want.Len(), q)
	}
}

// TestPlannedEvalMatchesOracleFuzz is the planner property test: on random
// expression trees over random small incomplete databases, planned
// evaluation must be bit-identical to naïve evaluation.
func TestPlannedEvalMatchesOracleFuzz(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 60
	}
	s := fuzzSchema()
	for i := 0; i < trials; i++ {
		g := &exprGen{rnd: rand.New(rand.NewSource(int64(i))), s: s}
		q := g.expr(3)
		d := fuzzDB(int64(i % 7))
		mustSame(t, q, d, "fuzz")
	}
}

// TestPlannedEvalPaperQueries pins the planner on the repo's experiment
// queries.
func TestPlannedEvalPaperQueries(t *testing.T) {
	d, _ := workload.Orders(workload.OrdersConfig{Orders: 200, PaidFraction: 0.7, NullRate: 0.3, Seed: 42})
	unpaid := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}}, As: "O", Attrs: []string{"id"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}}, As: "P", Attrs: []string{"id"}},
	}
	mustSame(t, unpaid, d, "E1")

	rnd := workload.Random(workload.RandomConfig{
		Relations: map[string]int{"R": 2, "S": 2}, TuplesPerRelation: 8,
		DomainSize: 5, Nulls: 3, NullRate: 0.3, Seed: 11,
	})
	ucq := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a", "c"},
	}
	mustSame(t, ucq, rnd, "E5")

	enroll, _ := workload.Enroll(workload.EnrollConfig{Students: 100, Courses: 3, EnrollRate: 0.8, NullRate: 0.05, Seed: 5})
	div := ra.Division{Left: ra.Base("Enroll"), Right: ra.Base("Course")}
	mustSame(t, div, enroll, "E9")

	tautology := ra.Project{
		Input: ra.Select{
			Input: ra.Base("Pay"),
			Pred: ra.AnyOf(
				ra.Eq(ra.Attr("order"), ra.LitString("oid1")),
				ra.Neq(ra.Attr("order"), ra.LitString("oid1")),
			),
		},
		Attrs: []string{"p_id"},
	}
	mustSame(t, tautology, d, "E3")
}

// TestRelationIndex covers the lazy hash-index cache on relations.
func TestRelationIndex(t *testing.T) {
	rel := table.NewRelation(schema.NewRelation("R", "a", "b"))
	rel.MustAdd(table.NewTuple(value.Int(1), value.Int(10)))
	rel.MustAdd(table.NewTuple(value.Int(1), value.Int(20)))
	rel.MustAdd(table.NewTuple(value.Int(2), value.Int(30)))

	ix := rel.Index([]int{0})
	if ix.Len() != 3 {
		t.Fatalf("index has %d entries, want 3", ix.Len())
	}
	if again := rel.Index([]int{0}); again != ix {
		t.Fatalf("index not cached: got a different instance")
	}
	key := ix.AppendTupleKey(nil, table.NewTuple(value.Int(1)))
	count := 0
	for sh, i := ix.Lookup(key); i != 0; {
		_, i = sh.At(i)
		count++
	}
	if count != 2 {
		t.Fatalf("probe for a=1 found %d tuples, want 2", count)
	}
	// Mutation invalidates the cache.
	rel.MustAdd(table.NewTuple(value.Int(3), value.Int(40)))
	if same := rel.Index([]int{0}); same == ix {
		t.Fatalf("index survived a mutation")
	}
	if got := rel.Index([]int{0}).Len(); got != 4 {
		t.Fatalf("rebuilt index has %d entries, want 4", got)
	}
}

// TestChunkedMaterializeBatches covers AddBatch-based materialization:
// chunked output equals per-tuple MustAdd output on a multi-chunk stream.
func TestChunkedMaterializeBatches(t *testing.T) {
	rs := schema.NewRelation("R", "a", "b")
	rel := table.NewRelation(rs)
	for i := 0; i < 3*chunkSize+17; i++ {
		rel.MustAdd(table.NewTuple(value.Int(int64(i)), value.Int(int64(i%7))))
	}
	d := table.NewDatabase(schema.MustNew(rs))
	rel.Each(func(tp table.Tuple) bool {
		d.MustAdd("R", tp)
		return true
	})
	q := ra.Select{Input: ra.Base("R"), Pred: ra.Neq(ra.Attr("b"), ra.LitInt(3))}
	p, err := Compile(q, d.Schema())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	got, err := p.Eval(d)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	want, err := ra.Eval(q, d)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if got.CanonicalKey() != want.CanonicalKey() {
		t.Fatalf("chunked materialization differs: %d vs %d tuples", got.Len(), want.Len())
	}
}
