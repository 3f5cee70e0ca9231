package plan

import (
	"math/rand"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/valuation"
	"incdata/internal/value"
)

// withParallelCutoff lowers the parallel cutoff so the small fuzz corpora
// exercise the worker paths, restoring it afterwards.
func withParallelCutoff(t *testing.T, cutoff int) {
	t.Helper()
	prev := parallelCutoff
	parallelCutoff = cutoff
	t.Cleanup(func() { parallelCutoff = prev })
}

// mustSameParallel asserts EvalWith and EvalCertainWith on a worker pool
// are bit-identical to their serial counterparts (and hence, via the planner's
// own differential, to the ra.Eval oracle).
func mustSameParallel(t *testing.T, q ra.Expr, d *table.Database, workers int, label string) {
	t.Helper()
	p, err := Compile(q, d.Schema())
	if err != nil {
		return // compile rejections are covered by the serial differential
	}
	cfg := EvalConfig{Workers: workers, Coded: true}
	want, serr := p.Eval(d)
	got, perr := p.EvalWith(d, cfg)
	if (serr == nil) != (perr == nil) {
		t.Fatalf("%s: error mismatch for %s: serial %v, workers=%d %v", label, q, serr, workers, perr)
	}
	if serr == nil && got.CanonicalKey() != want.CanonicalKey() {
		t.Fatalf("%s: EvalWith(workers=%d) differs for %s\nparallel: %s\nserial:   %s\nplan:\n%s",
			label, workers, q, got, want, p.Describe())
	}
	wantC, serr := p.EvalCertain(d)
	gotC, perr := p.EvalCertainWith(d, cfg)
	if (serr == nil) != (perr == nil) {
		t.Fatalf("%s: certain error mismatch for %s: serial %v, workers=%d %v", label, q, serr, workers, perr)
	}
	if serr == nil && gotC.CanonicalKey() != wantC.CanonicalKey() {
		t.Fatalf("%s: EvalCertainWith(workers=%d) differs for %s", label, workers, q)
	}
}

// TestParallelEvalMatchesSerialFuzz pins morsel-parallel evaluation
// bit-identical to the serial path across the full random operator corpus,
// with the cutoff lowered so every plan with a driving scan goes parallel.
func TestParallelEvalMatchesSerialFuzz(t *testing.T) {
	withParallelCutoff(t, 1)
	trials := 400
	if testing.Short() {
		trials = 60
	}
	s := fuzzSchema()
	for i := 0; i < trials; i++ {
		g := &exprGen{rnd: rand.New(rand.NewSource(int64(i))), s: s}
		q := g.expr(3)
		d := fuzzDB(int64(i % 7))
		for _, workers := range []int{2, 4} {
			mustSameParallel(t, q, d, workers, "fuzz")
		}
	}
}

// largeDB builds a database big enough to clear the real parallel cutoff,
// with join keys spread over a modest domain so hash partitions are
// non-trivial on both sides.
func largeDB(tuples int, seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	d := table.NewDatabase(fuzzSchema())
	for _, name := range []string{"R", "S", "T"} {
		for i := 0; i < tuples; i++ {
			t := make(table.Tuple, 2)
			for j := range t {
				if rnd.Intn(50) == 0 {
					t[j] = value.Null(uint64(rnd.Intn(3) + 1))
				} else {
					t[j] = value.Int(int64(rnd.Intn(40)))
				}
			}
			d.MustAdd(name, t)
		}
	}
	return d
}

// TestParallelEvalLargeJoin exercises the partitioned-join path at the
// production cutoff: the probe chain down to the scan preserves positions,
// so both join sides are hash-partitioned and bucket i probes bucket i.
func TestParallelEvalLargeJoin(t *testing.T) {
	d := largeDB(1500, 3)
	queries := map[string]ra.Expr{
		"join": ra.Project{
			Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
			Attrs: []string{"a", "c"},
		},
		"select-join": ra.Select{
			Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
			Pred:  ra.Neq(ra.Attr("a"), ra.Attr("c")),
		},
		"diff": ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")},
		"union-join": ra.Union{
			Left:  ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a"}},
			Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
		},
	}
	for name, q := range queries {
		// Confirm the shape under test: every query here has a driving scan.
		p, err := Compile(q, d.Schema())
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if scan, _ := drivingChain(firstBranch(p.root)); scan == nil {
			t.Fatalf("%s: no driving scan; test corpus is wrong", name)
		}
		for _, workers := range []int{2, 4, 8} {
			mustSameParallel(t, q, d, workers, name)
		}
	}
}

func firstBranch(n pnode) pnode {
	if u, ok := n.(*punion); ok {
		return firstBranch(u.l)
	}
	return n
}

// TestDrivingChain pins the partition-join detection: clean filter/rename
// chains keep the join partitionable, projections below the join break it.
func TestDrivingChain(t *testing.T) {
	s := fuzzSchema()
	compile := func(q ra.Expr) pnode {
		p, err := Compile(q, s)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return p.root
	}

	join := ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}
	scan, pj := drivingChain(compile(join))
	if scan == nil || pj == nil {
		t.Fatalf("join over scans: want partition join, got scan=%v join=%v", scan, pj)
	}

	filtered := ra.Join{
		Left:  ra.Select{Input: ra.Base("R"), Pred: ra.Neq(ra.Attr("a"), ra.LitInt(-1))},
		Right: ra.Base("S"),
	}
	scan, pj = drivingChain(compile(filtered))
	if scan == nil || pj == nil {
		t.Fatalf("join over filtered scan: want partition join, got scan=%v join=%v", scan, pj)
	}

	projected := ra.Join{
		Left:  ra.Project{Input: ra.Base("R"), Attrs: []string{"b"}},
		Right: ra.Base("S"),
	}
	scan, pj = drivingChain(compile(projected))
	if scan == nil {
		t.Fatalf("join over projected scan: want a driving scan")
	}
	if pj != nil {
		t.Fatalf("join over projected scan: positions change, must not partition-join")
	}

	division := ra.Division{
		Left:  ra.Product{Left: ra.Base("R"), Right: ra.Rename{Input: ra.Base("S"), As: "S2", Attrs: []string{"x", "y"}}},
		Right: ra.Rename{Input: ra.Base("S"), As: "S2", Attrs: []string{"x", "y"}},
	}
	if scan, _ := drivingChain(compile(division)); scan != nil {
		t.Fatalf("division root: want serial fallback (no driving scan)")
	}
}

// TestWorldPlanParallelStable pins the partition-parallel stable parts of
// world plans bit-identical to a serial plan's, including per-world answers
// computed on top of them.
func TestWorldPlanParallelStable(t *testing.T) {
	withParallelCutoff(t, 1)
	d := fuzzDB(5)
	queries := []ra.Expr{
		ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}},
		ra.Select{Input: ra.Base("R"), Pred: ra.Neq(ra.Attr("a"), ra.Attr("b"))},
		ra.Union{Left: ra.Base("R"), Right: ra.Base("T")},
		ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")},
	}
	for _, q := range queries {
		serial, err := ForWorlds(q, d)
		if err != nil {
			t.Fatalf("ForWorlds: %v", err)
		}
		par, err := ForWorlds(q, d)
		if err != nil {
			t.Fatalf("ForWorlds: %v", err)
		}
		par.SetWorkers(4)
		if !serial.Splittable() {
			continue
		}
		ws, err := serial.Stable()
		if err != nil {
			t.Fatalf("serial Stable: %v", err)
		}
		wp, err := par.Stable()
		if err != nil {
			t.Fatalf("parallel Stable: %v", err)
		}
		if ws.CanonicalKey() != wp.CanonicalKey() {
			t.Fatalf("parallel stable differs for %s:\nserial:   %s\nparallel: %s", q, ws, wp)
		}
		// Per-world answers on top of the parallel stable parts.
		dom := []value.Value{value.Int(0), value.Int(1)}
		ss, ps := serial.NewSession(), par.NewSession()
		valuation.Enumerate(serial.SortedNulls(), dom, func(v valuation.Valuation) bool {
			a1, err1 := ss.Answer(v)
			if err1 != nil {
				t.Fatalf("serial answer for %s: %v", q, err1)
			}
			k1 := a1.CanonicalKey()
			a2, err2 := ps.Answer(v)
			if err2 != nil {
				t.Fatalf("parallel answer for %s: %v", q, err2)
			}
			if k1 != a2.CanonicalKey() {
				t.Fatalf("per-world answer differs for %s under %s", q, v)
			}
			return true
		})
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
