package certain

import (
	"errors"
	"runtime"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

func db2(t *testing.T, schemaDef map[string]int, rows map[string][][]string) *table.Database {
	t.Helper()
	var rels []schema.Relation
	for name, arity := range schemaDef {
		rels = append(rels, schema.WithArity(name, arity))
	}
	s, err := schema.New(rels...)
	if err != nil {
		t.Fatal(err)
	}
	d := table.NewDatabase(s)
	for name, rr := range rows {
		for _, r := range rr {
			d.MustAddRow(name, r...)
		}
	}
	return d
}

// Grant's example as relational algebra: σ[order='oid1' ∨ order≠'oid1'](Pay)
// projected to p_id.  The certain answer is {pid1}; naïve evaluation also
// returns {pid1} (the tautology holds under marked-null identity too,
// because ⊥='oid1' ∨ ⊥≠'oid1' is a tautology of two-valued logic).
func TestTautologyCertain(t *testing.T) {
	ev := NewEvaluator(true)
	d := db2(t,
		map[string]int{"Pay": 3},
		map[string][][]string{"Pay": {{"pid1", "⊥1", "100"}}})
	// Rename attributes for readability: #1=p_id, #2=order, #3=amount.
	q := ra.Project{
		Input: ra.Select{
			Input: ra.Base("Pay"),
			Pred: ra.AnyOf(
				ra.Eq(ra.Attr("#2"), ra.LitString("oid1")),
				ra.Neq(ra.Attr("#2"), ra.LitString("oid1")),
			),
		},
		Attrs: []string{"#1"},
	}
	truth, err := ev.ByWorldsCWA(q, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if truth.Len() != 1 || !truth.Contains(table.MustParseTuple("pid1")) {
		t.Fatalf("certain answer should be {pid1}, got %v", truth)
	}
	naive, err := ev.Naive(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(truth) {
		t.Errorf("naïve = %v, truth = %v", naive, truth)
	}
}

// The unpaid-orders scenario: certain answers via world enumeration say
// that at least one order is unpaid, and identify oid2 as certainly unpaid
// when the null can only be oid1... here the null ranges over fresh values
// too, so no individual order is certain — but the Boolean query "is some
// order unpaid" is certainly true.  This mirrors the paper's discussion.
func TestUnpaidOrdersCertain(t *testing.T) {
	ev := NewEvaluator(true)
	d := db2(t,
		map[string]int{"Order": 2, "Pay": 3},
		map[string][][]string{
			"Order": {{"oid1", "pr1"}, {"oid2", "pr2"}},
			"Pay":   {{"pid1", "⊥1", "100"}},
		})
	// Unpaid orders: π_#1(Order) − π_#2(Pay) (as single-attribute relations).
	unpaid := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Order"), Attrs: []string{"#1"}}, As: "O", Attrs: []string{"x"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"#2"}}, As: "P", Attrs: []string{"x"}},
	}
	// Tuple-level certain answers: no single order is certainly unpaid
	// (the null could be either oid1 or oid2).
	truth, err := ev.ByWorldsCWA(unpaid, d, Options{ExtraFresh: 1})
	if err != nil {
		t.Fatal(err)
	}
	if truth.Len() != 0 {
		t.Fatalf("no individual order is certainly unpaid, got %v", truth)
	}
	// But the Boolean query "some order is unpaid" is certainly true, since
	// |Order| = 2 > 1 = |Pay|.
	someUnpaid, err := ev.BoolCertainCWA(unpaid, d, Options{ExtraFresh: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !someUnpaid {
		t.Error("it is certain that some order is unpaid")
	}
	// SQL (the NOT IN query) returns the empty set; comparing that against
	// the certain answers reports no false positives and no missing tuples
	// at tuple level, but the Boolean information is lost — E1 quantifies
	// this on generated workloads.
	empty := table.NewRelationArity("sql", 1)
	rep := EvaluationReport(empty, truth)
	if !rep.Agree || len(rep.SpuriousInNaive) != 0 || len(rep.MissingFromNaive) != 0 {
		t.Errorf("report = %+v", rep)
	}
}

// Naïve evaluation fails for π_A(R−S): R = {(1,⊥)}, S = {(1,⊥')}.  Naïve
// evaluation returns {1}; the certain answer is ∅.
func TestNaiveFailsForProjectionOfDifference(t *testing.T) {
	ev := NewEvaluator(true)
	d := db2(t,
		map[string]int{"R": 2, "S": 2},
		map[string][][]string{"R": {{"1", "⊥1"}}, "S": {{"1", "⊥2"}}})
	q := ra.Project{Input: ra.Diff{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"#1"}}

	naive, err := ev.Naive(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Len() != 1 || !naive.Contains(table.MustParseTuple("1")) {
		t.Fatalf("naïve evaluation should return {1}, got %v", naive)
	}
	truth, err := ev.ByWorldsCWA(q, d, Options{ExtraFresh: 2})
	if err != nil {
		t.Fatal(err)
	}
	if truth.Len() != 0 {
		t.Fatalf("certain answer should be empty, got %v", truth)
	}
	cmp, err := ev.Compare(q, d, Options{ExtraFresh: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Agree || len(cmp.SpuriousInNaive) != 1 || len(cmp.MissingFromNaive) != 0 {
		t.Errorf("comparison = %+v", cmp)
	}
	// The query is not in a sound fragment, which is what the classifier says.
	if ra.NaiveEvalSound(q, true) {
		t.Error("classifier should not declare π(R−S) sound")
	}
}

// For positive queries naïve evaluation agrees with world enumeration under
// CWA and OWA (equation (4)).
func TestNaiveAgreesForPositiveQueries(t *testing.T) {
	ev := NewEvaluator(true)
	d := db2(t,
		map[string]int{"R": 2, "S": 2},
		map[string][][]string{
			"R": {{"1", "⊥1"}, {"⊥1", "2"}, {"3", "4"}},
			"S": {{"⊥1", "2"}, {"3", "⊥2"}},
		})
	queries := []ra.Expr{
		ra.Base("R"),
		ra.Project{Input: ra.Base("R"), Attrs: []string{"#1"}},
		ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Attr("#1"), ra.LitInt(1))},
		ra.Union{Left: ra.Base("R"), Right: ra.Base("S")},
		ra.Intersect{Left: ra.Base("R"), Right: ra.Base("S")},
		ra.Join{Left: ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}}},
	}
	for _, q := range queries {
		if !ra.IsPositive(q) {
			t.Fatalf("%s should be positive", q)
		}
		naive, err := ev.Naive(q, d)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		cwa, err := ev.ByWorldsCWA(q, d, Options{ExtraFresh: 2, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !naive.Equal(cwa) {
			t.Errorf("%s: naïve %v != CWA truth %v", q, naive, cwa)
		}
		owa, err := ev.ByWorldsOWA(q, d, Options{ExtraFresh: 2, MaxExtraTuples: 1})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !naive.Equal(owa) {
			t.Errorf("%s: naïve %v != OWA truth %v", q, naive, owa)
		}
	}
}

// Division under CWA: cwa-naïve evaluation works for RAcwa (Section 6.2).
func TestDivisionUnderCWA(t *testing.T) {
	ev := NewEvaluator(true)
	d := db2(t,
		map[string]int{"Enroll": 2, "Course": 1},
		map[string][][]string{
			"Enroll": {{"alice", "db"}, {"alice", "os"}, {"bob", "db"}, {"carol", "⊥1"}},
			"Course": {{"db"}, {"os"}},
		})
	// Rename so division can match attribute names.
	q := ra.Division{
		Left:  ra.Rename{Input: ra.Base("Enroll"), As: "E", Attrs: []string{"student", "course"}},
		Right: ra.Rename{Input: ra.Base("Course"), As: "C", Attrs: []string{"course"}},
	}
	if !ra.IsRAcwa(q) {
		t.Fatal("division by base relation should be RAcwa")
	}
	naive, err := ev.Naive(q, d)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ev.ByWorldsCWA(q, d, Options{ExtraFresh: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(truth) {
		t.Errorf("cwa-naïve evaluation should work for division: naïve %v, truth %v", naive, truth)
	}
	if naive.Len() != 1 || !naive.Contains(table.MustParseTuple("alice")) {
		t.Errorf("alice takes all courses: %v", naive)
	}
}

// certainO(Q,D) = Q(D) for monotone generic queries (equation (9)): the GLB
// of the answers over all worlds is hom-equivalent to the naïve answer.
func TestCertainObjectEqualsNaiveForMonotone(t *testing.T) {
	ev := NewEvaluator(true)
	d := db2(t,
		map[string]int{"R": 2},
		map[string][][]string{"R": {{"1", "2"}, {"2", "⊥1"}}})
	q := ra.Base("R")
	glb, err := ev.CertainObjectCWA(q, d, Options{ExtraFresh: 1})
	if err != nil {
		t.Fatal(err)
	}
	naiveRaw, err := ev.NaiveRaw(q, d)
	if err != nil {
		t.Fatal(err)
	}
	// Hom-equivalence of the two answer objects (as single-relation dbs).
	if glb.Len() != naiveRaw.Len() {
		t.Fatalf("certainO %v vs naïve %v: tuple counts differ", glb, naiveRaw)
	}
	if !glb.Contains(table.MustParseTuple("1", "2")) {
		t.Errorf("certainO should contain the complete tuple: %v", glb)
	}
	// The partially known tuple (2,⊥) must be remembered by certainO — this
	// is exactly the information the intersection-based answer loses.
	hasPartial := false
	for _, tp := range glb.Tuples() {
		if !tp[0].IsNull() && tp[1].IsNull() {
			hasPartial = true
		}
	}
	if !hasPartial {
		t.Errorf("certainO should keep (2,⊥): %v", glb)
	}
	// Contrast with the intersection-based certain answer {(1,2)}.
	inter, err := ev.ByWorldsCWA(q, d, Options{ExtraFresh: 1})
	if err != nil {
		t.Fatal(err)
	}
	if inter.Len() != 1 {
		t.Errorf("intersection-based answer should be {(1,2)}: %v", inter)
	}
}

func TestOptionsAndErrors(t *testing.T) {
	ev := NewEvaluator(true)
	d := db2(t, map[string]int{"R": 1}, map[string][][]string{"R": {{"⊥1"}, {"⊥2"}, {"⊥3"}}})
	q := ra.Base("R")
	// MaxWorlds bound.
	if _, err := ev.ByWorldsCWA(q, d, Options{ExtraFresh: 3, MaxWorlds: 5}); !errors.Is(err, ErrTooManyWorlds) {
		t.Errorf("expected ErrTooManyWorlds, got %v", err)
	}
	if _, err := ev.ByWorldsOWA(q, d, Options{ExtraFresh: 3, MaxWorlds: 5}); !errors.Is(err, ErrTooManyWorlds) {
		t.Errorf("expected ErrTooManyWorlds, got %v", err)
	}
	if _, err := ev.CertainObjectCWA(q, d, Options{ExtraFresh: 3, MaxWorlds: 5}); !errors.Is(err, ErrTooManyWorlds) {
		t.Errorf("expected ErrTooManyWorlds, got %v", err)
	}
	if _, err := ev.BoolCertainCWA(q, d, Options{ExtraFresh: 3, MaxWorlds: 5}); !errors.Is(err, ErrTooManyWorlds) {
		t.Errorf("expected ErrTooManyWorlds, got %v", err)
	}
	// Bad queries propagate errors everywhere.
	bad := ra.Base("Nope")
	if _, err := ev.Naive(bad, d); err == nil {
		t.Error("Naive should propagate errors")
	}
	if _, err := ev.ByWorldsCWA(bad, d, Options{}); err == nil {
		t.Error("ByWorldsCWA should propagate errors")
	}
	if _, err := ev.ByWorldsOWA(bad, d, Options{}); err == nil {
		t.Error("ByWorldsOWA should propagate errors")
	}
	if _, err := ev.CertainObjectCWA(bad, d, Options{}); err == nil {
		t.Error("CertainObjectCWA should propagate errors")
	}
	if _, err := ev.BoolCertainCWA(bad, d, Options{}); err == nil {
		t.Error("BoolCertainCWA should propagate errors")
	}
	if _, err := ev.Compare(bad, d, Options{}); err == nil {
		t.Error("Compare should propagate errors")
	}
	if _, err := ev.Compare(ra.Diff{Left: ra.Base("R"), Right: ra.Base("Nope")}, d, Options{}); err == nil {
		t.Error("Compare should propagate errors from the ground-truth side")
	}
	// The world pool over materialized worlds: an evaluation error stops
	// the sweep and comes back.
	worlds := []*table.Database{d, d, d}
	if _, _, err := ev.poolIntersect(len(worlds), 2, materializedWorker(bad, worlds)); err == nil {
		t.Error("the world pool should propagate errors")
	}
	// More workers than worlds: one worker per world at most.
	if poolSize(1, 8) != 1 {
		t.Errorf("poolSize(1, 8) = %d, want 1", poolSize(1, 8))
	}
	if answers, err := ev.poolCollect(1, 8, materializedWorker(q, worlds[:1]), nil); err != nil || len(answers) != 1 {
		t.Errorf("the world pool over a single world: %d answers, %v", len(answers), err)
	}
	// Workers <= 0 falls back to GOMAXPROCS.
	if got, want := poolSize(4, 0), min(runtime.GOMAXPROCS(0), 4); got != want {
		t.Errorf("poolSize(4, 0) = %d, want %d", got, want)
	}
	worlds = append(worlds, d)
	before := ev.Stats().WorldsEvaluated
	if tuples, _, err := ev.poolIntersect(len(worlds), 0, materializedWorker(q, worlds)); err != nil || len(tuples) != 3 {
		t.Errorf("the world pool with default workers: %d tuples, %v", len(tuples), err)
	}
	if n := ev.Stats().WorldsEvaluated - before; n != 4 {
		t.Errorf("the world pool with default workers evaluated %d worlds, want 4", n)
	}
}

func TestQueryConstantsEnterDomain(t *testing.T) {
	ev := NewEvaluator(true)
	// A selection constant not present in the database must be considered a
	// possible value of the null, otherwise certain answers are wrong.
	d := db2(t, map[string]int{"R": 1}, map[string][][]string{"R": {{"⊥1"}}})
	q := ra.Select{Input: ra.Base("R"), Pred: ra.Neq(ra.Attr("#1"), ra.LitInt(7))}
	truth, err := ev.ByWorldsCWA(q, d, Options{ExtraFresh: 1})
	if err != nil {
		t.Fatal(err)
	}
	// ⊥1 could be 7, in which case the answer is empty: nothing is certain.
	if truth.Len() != 0 {
		t.Errorf("certain answer should be empty, got %v", truth)
	}
	// Constants inside composed predicates are picked up too.
	q2 := ra.Select{Input: ra.Base("R"), Pred: ra.AllOf(ra.Negate(ra.Eq(ra.Attr("#1"), ra.LitInt(9))))}
	if consts := queryConstants(q2); len(consts) != 1 || consts[0] != value.Int(9) {
		t.Errorf("queryConstants = %v", consts)
	}
	q3 := ra.Join{Left: ra.Select{Input: ra.Base("R"), Pred: ra.AnyOf(ra.Eq(ra.Attr("#1"), ra.LitInt(3)))}, Right: ra.Base("R")}
	if consts := queryConstants(q3); len(consts) != 1 {
		t.Errorf("queryConstants through join = %v", consts)
	}
	q4 := ra.Division{
		Left:  ra.Product{Left: ra.Rename{Input: ra.Base("R"), As: "A", Attrs: []string{"a"}}, Right: ra.Rename{Input: ra.Base("R"), As: "B", Attrs: []string{"b"}}},
		Right: ra.Rename{Input: ra.Base("R"), As: "C", Attrs: []string{"b"}},
	}
	if consts := queryConstants(q4); len(consts) != 0 {
		t.Errorf("queryConstants of constant-free query = %v", consts)
	}
	q5 := ra.Diff{Left: ra.Base("R"), Right: ra.Project{Input: ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Attr("#1"), ra.LitInt(5))}, Attrs: []string{"#1"}}}
	if consts := queryConstants(q5); len(consts) != 1 {
		t.Errorf("queryConstants through diff/project = %v", consts)
	}
	q6 := ra.Union{Left: ra.Base("R"), Right: ra.Intersect{Left: ra.Base("R"), Right: ra.Rename{Input: ra.Base("R"), As: "Z"}}}
	if consts := queryConstants(q6); len(consts) != 0 {
		t.Errorf("queryConstants union/intersect = %v", consts)
	}
}

func TestCompareAgreesForPositive(t *testing.T) {
	ev := NewEvaluator(true)
	d := db2(t, map[string]int{"R": 2}, map[string][][]string{"R": {{"1", "⊥1"}, {"2", "3"}}})
	cmp, err := ev.Compare(ra.Project{Input: ra.Base("R"), Attrs: []string{"#1"}}, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Agree {
		t.Errorf("positive query should agree: %+v", cmp)
	}
}
