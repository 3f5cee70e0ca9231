package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// spillDB builds a database whose join build side is far larger than the
// small test budgets, with ints, strings and nulls in play.
func spillDB(t *testing.T) (*table.Database, *schema.Schema) {
	t.Helper()
	s := schema.MustNew(
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "b", "c"),
	)
	d := table.NewDatabase(s)
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		d.MustAdd("R", table.NewTuple(value.Int(int64(i)), value.Int(int64(rnd.Intn(200)))))
	}
	for i := 0; i < 800; i++ {
		var v value.Value
		if i%7 == 0 {
			v = value.Null(uint64(i%5 + 1))
		} else {
			v = value.String(fmt.Sprintf("payload-%d", rnd.Intn(100)))
		}
		d.MustAdd("S", table.NewTuple(value.Int(int64(rnd.Intn(200))), v))
	}
	return d, s
}

// TestSpillJoinMatchesUnbounded pins the Grace spill path against the
// unbounded resident path: a join evaluated under budgets smaller than its
// build side must return bit-identical answers, on both the plain and the
// fused null-stripping (certain) routes.
func TestSpillJoinMatchesUnbounded(t *testing.T) {
	d, s := spillDB(t)
	q := ra.Join{Left: ra.Rel{Name: "R"}, Right: ra.Rel{Name: "S"}}
	p, err := Compile(q, s)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, err := p.EvalWith(d, EvalConfig{Coded: true})
	if err != nil {
		t.Fatalf("unbounded eval: %v", err)
	}
	wantCertain, err := p.EvalCertainWith(d, EvalConfig{Coded: true})
	if err != nil {
		t.Fatalf("unbounded certain eval: %v", err)
	}
	// 1 forces a spill on the first build tuple; the larger budgets cross
	// over mid-stream, exercising the buffered-prefix drain.
	for _, budget := range []int64{1, 512, 4 << 10, 16 << 10} {
		got, err := p.EvalWith(d, EvalConfig{MemBudget: budget})
		if err != nil {
			t.Fatalf("budget %d: eval: %v", budget, err)
		}
		if !got.Equal(want) {
			t.Fatalf("budget %d: spill answer differs: %d vs %d tuples", budget, got.Len(), want.Len())
		}
		gotCertain, err := p.EvalCertainWith(d, EvalConfig{MemBudget: budget})
		if err != nil {
			t.Fatalf("budget %d: certain eval: %v", budget, err)
		}
		if !gotCertain.Equal(wantCertain) {
			t.Fatalf("budget %d: spill certain answer differs: %d vs %d tuples",
				budget, gotCertain.Len(), wantCertain.Len())
		}
	}
}

// TestSpillUnderBudgetStaysResident checks the budgeted path's other leg:
// a build side that fits the budget is indexed in memory and the answer
// still matches the unbounded path.
func TestSpillUnderBudgetStaysResident(t *testing.T) {
	d, s := spillDB(t)
	q := ra.Join{Left: ra.Rel{Name: "R"}, Right: ra.Rel{Name: "S"}}
	p, err := Compile(q, s)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want, err := p.EvalWith(d, EvalConfig{Coded: true})
	if err != nil {
		t.Fatalf("unbounded eval: %v", err)
	}
	got, err := p.EvalWith(d, EvalConfig{MemBudget: 1 << 30})
	if err != nil {
		t.Fatalf("large-budget eval: %v", err)
	}
	if !got.Equal(want) {
		t.Fatalf("large-budget answer differs: %d vs %d tuples", got.Len(), want.Len())
	}
}

// TestSpillEvalMatchesOracleFuzz is the spill path's property test: on
// random expression trees over random small incomplete databases, budgeted
// evaluation with MemBudget=1 — every join build side spills — must be
// bit-identical to naïve evaluation, nested joins and all.
func TestSpillEvalMatchesOracleFuzz(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 30
	}
	s := fuzzSchema()
	for i := 0; i < trials; i++ {
		g := &exprGen{rnd: rand.New(rand.NewSource(int64(1000 + i))), s: s}
		q := g.expr(3)
		d := fuzzDB(int64(i))
		want, oracleErr := ra.Eval(q, d)
		p, err := Compile(q, s)
		if oracleErr != nil {
			if err != nil {
				continue
			}
			if _, err := p.EvalWith(d, EvalConfig{MemBudget: 1}); err == nil {
				t.Fatalf("trial %d: oracle failed (%v) but spill eval succeeded for %s", i, oracleErr, q)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: compile failed for %s: %v", i, q, err)
		}
		got, err := p.EvalWith(d, EvalConfig{MemBudget: 1})
		if err != nil {
			t.Fatalf("trial %d: spill eval failed for %s: %v", i, q, err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: spill result differs for %s\nspill:  %s\noracle: %s\nplan:\n%s",
				i, q, got, want, p.Describe())
		}
	}
}
