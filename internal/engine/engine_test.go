package engine

import (
	"math/rand"
	"testing"

	"incdata/internal/certain"
	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/sqlx"
	"incdata/internal/table"
	"incdata/internal/value"
)

func testSchema() *schema.Schema {
	return schema.MustNew(
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "b", "c"),
		schema.NewRelation("T", "a", "b"),
	)
}

func testDB(seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	d := table.NewDatabase(testSchema())
	for _, name := range []string{"R", "S", "T"} {
		for i := 0; i < 4; i++ {
			t := make(table.Tuple, 2)
			for j := range t {
				if rnd.Intn(4) == 0 {
					t[j] = value.Null(uint64(rnd.Intn(2) + 1))
				} else {
					t[j] = value.Int(int64(rnd.Intn(3)))
				}
			}
			d.MustAdd(name, t)
		}
	}
	return d
}

// testQueries covers every operator class, mirroring the planner's own
// differential corpus: splittable plans, diff with invariant and variant
// right sides, and division (per-world fallback).
func testQueries() map[string]ra.Expr {
	return map[string]ra.Expr{
		"base":      ra.Base("R"),
		"select":    ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Attr("a"), ra.LitInt(1))},
		"ucq":       ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}},
		"union":     ra.Union{Left: ra.Base("R"), Right: ra.Base("T")},
		"intersect": ra.Intersect{Left: ra.Base("R"), Right: ra.Base("T")},
		"diff":      ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")},
		"proj-diff": ra.Project{Input: ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")}, Attrs: []string{"a"}},
		"delta":     ra.Delta{Attr1: "d1", Attr2: "d2"},
		"division": ra.Division{
			Left:  ra.Product{Left: ra.Base("R"), Right: ra.Rename{Input: ra.Base("S"), As: "S2", Attrs: []string{"x", "y"}}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S2", Attrs: []string{"x", "y"}},
		},
	}
}

func fp(r *table.Relation) string {
	if r == nil {
		return "<nil>"
	}
	return r.CanonicalKey()
}

// TestEngineDifferential requires every engine mode to be bit-identical to
// the direct certain/ra.Eval calls it replaced, with the planner on and
// off — the facade must be a pure re-routing, never a change in results.
func TestEngineDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	copts := certain.Options{ExtraFresh: 1, MaxWorlds: 1 << 18}
	for name, q := range testQueries() {
		for _, seed := range seeds {
			for _, planner := range []PlannerSetting{PlannerOn, PlannerOff} {
				d := testDB(seed)
				eng := New(d)
				opts := Options{Planner: planner, ExtraFresh: 1, MaxWorlds: 1 << 18}
				ref := certain.NewEvaluator(planner != PlannerOff)

				type step struct {
					mode   Mode
					direct func() (*table.Relation, error)
				}
				steps := []step{
					{ModeNaive, func() (*table.Relation, error) { return ref.NaiveRaw(q, d) }},
					{ModeCertain, func() (*table.Relation, error) { return ref.Naive(q, d) }},
					{ModeCertainCWA, func() (*table.Relation, error) { return ref.ByWorldsCWA(q, d, copts) }},
					{ModeCertainOWA, func() (*table.Relation, error) { return ref.ByWorldsOWA(q, d, copts) }},
				}
				// certainO's GLB is a direct-product construction whose cost
				// explodes with the number of distinct per-world answers, so —
				// as in the planner's own differential — it runs on the
				// tiny-answer queries only.
				if name == "base" || name == "select" || name == "delta" {
					steps = append(steps, step{ModeCertainObject,
						func() (*table.Relation, error) { return ref.CertainObjectCWA(q, d, copts) }})
				}
				for _, st := range steps {
					opts := opts
					opts.Mode = st.mode
					got, gotErr := eng.Eval(q, opts)
					want, wantErr := st.direct()
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s seed=%d planner=%d mode=%v: error mismatch: %v vs %v",
							name, seed, planner, st.mode, gotErr, wantErr)
					}
					if gotErr == nil && fp(got) != fp(want) {
						t.Errorf("%s seed=%d planner=%d mode=%v: engine answer differs from direct call",
							name, seed, planner, st.mode)
					}
				}

				// Boolean certainty.
				gotB, gotErr := eng.EvalBool(q, opts)
				wantB, wantErr := ref.BoolCertainCWA(q, d, copts)
				if (gotErr == nil) != (wantErr == nil) || gotB != wantB {
					t.Errorf("%s seed=%d planner=%d: EvalBool mismatch: (%v,%v) vs (%v,%v)",
						name, seed, planner, gotB, gotErr, wantB, wantErr)
				}

				// ModeNaive with the oracle must equal raw ra.Eval exactly.
				if planner == PlannerOff {
					got, err := eng.Eval(q, Options{Mode: ModeNaive, Planner: PlannerOff})
					want, wantErr := ra.Eval(q, d)
					if (err == nil) != (wantErr == nil) {
						t.Fatalf("%s seed=%d: ModeNaive/oracle error mismatch: %v vs %v", name, seed, err, wantErr)
					}
					if err == nil && fp(got) != fp(want) {
						t.Errorf("%s seed=%d: ModeNaive/oracle differs from ra.Eval", name, seed)
					}
				}
			}
		}
	}
}

// TestEngineCompareMatchesCertain pins Engine.Compare to Evaluator.Compare.
func TestEngineCompareMatchesCertain(t *testing.T) {
	d := testDB(7)
	eng := New(d)
	q := ra.Project{Input: ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")}, Attrs: []string{"a"}}
	got, err := eng.Compare(q, Options{ExtraFresh: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := certain.NewEvaluator(true).Compare(q, d, certain.Options{ExtraFresh: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Agree != want.Agree ||
		len(got.MissingFromNaive) != len(want.MissingFromNaive) ||
		len(got.SpuriousInNaive) != len(want.SpuriousInNaive) {
		t.Fatalf("Compare mismatch: %+v vs %+v", got, want)
	}
}

// TestSnapshotIsolationUnderUpdate verifies the core isolation property:
// a snapshot's answers never change, no matter what writers do afterwards.
func TestSnapshotIsolationUnderUpdate(t *testing.T) {
	d := testDB(3)
	eng := New(d)
	q := ra.Base("R")
	opts := Options{Mode: ModeNaive}

	snap := eng.Snapshot()
	before, err := snap.Eval(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(func(db *table.Database) error {
		return db.Add("R", table.MustParseTuple("99", "99"))
	}); err != nil {
		t.Fatal(err)
	}
	after, err := snap.Eval(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fp(before) != fp(after) {
		t.Fatal("snapshot answer changed after a write")
	}
	fresh, err := eng.Eval(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Contains(table.MustParseTuple("99", "99")) {
		t.Fatal("post-write snapshot misses the write")
	}
	if before.Contains(table.MustParseTuple("99", "99")) {
		t.Fatal("pre-write snapshot sees the write")
	}
}

// TestWorldPlanCacheAcrossSnapshots verifies the version-checked plan-cache
// story: a world plan built on one snapshot is reused on later snapshots
// as long as the relations the query reads are unchanged — including after
// writes to other relations — and is invalidated by a write to a relation
// the query does read.
func TestWorldPlanCacheAcrossSnapshots(t *testing.T) {
	d := testDB(5)
	eng := New(d)
	q := ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Attr("a"), ra.LitInt(1))}
	opts := Options{Mode: ModeCertainCWA, ExtraFresh: 1}

	if _, err := eng.Eval(q, opts); err != nil {
		t.Fatal(err)
	}
	misses0 := eng.Stats().Planned.WorldMisses

	// Same snapshot: plain hit.
	if _, err := eng.Eval(q, opts); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats().Planned
	if st.WorldMisses != misses0 || st.WorldHits == 0 {
		t.Fatalf("expected a cache hit on the same snapshot, got %+v", st)
	}

	// Write to S (which q does not read), forcing a NEW snapshot: the
	// stamps of R are unchanged, so the world plan must still be reused.
	if err := eng.Update(func(db *table.Database) error {
		return db.Add("S", table.MustParseTuple("8", "9"))
	}); err != nil {
		t.Fatal(err)
	}
	hitsBefore := eng.Stats().Planned.WorldHits
	if _, err := eng.Eval(q, opts); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats().Planned
	if st.WorldMisses != misses0 {
		t.Fatalf("write to an unread relation invalidated the plan: %+v", st)
	}
	if st.WorldHits <= hitsBefore {
		t.Fatalf("expected a cache hit across snapshots, got %+v", st)
	}

	// Write to R: now the plan must be rebuilt.
	if err := eng.Update(func(db *table.Database) error {
		return db.Add("R", table.MustParseTuple("4", "⊥2"))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Eval(q, opts); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats().Planned
	if st.WorldMisses != misses0+1 {
		t.Fatalf("write to a read relation must invalidate the plan: %+v", st)
	}

	// And the rebuilt plan's answers match a fresh engine's (no staleness).
	got, err := eng.Eval(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(eng.Snapshot().Database().Clone()).Eval(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fp(got) != fp(want) {
		t.Fatal("cached engine answer differs from a fresh engine's")
	}
}

// TestServeBatch checks the concurrent batch API: responses arrive in
// request order, parallel and serial sweeps of one snapshot agree although
// a write commits between them, an SQL request takes the SQL route, and
// malformed requests fail without poisoning the batch.
func TestServeBatch(t *testing.T) {
	d := testDB(11)
	eng := New(d)
	var reqs []Request
	for name, q := range testQueries() {
		_ = name
		reqs = append(reqs, Request{Query: q, Opts: Options{Mode: ModeCertain}})
		reqs = append(reqs, Request{Query: q, Opts: Options{Mode: ModeCertainCWA, ExtraFresh: 1}})
	}
	notIn := sqlx.Query{
		Select: []string{"a"},
		From:   "R",
		Where:  sqlx.In{Term: sqlx.Col("a"), Sub: sqlx.Subquery{Select: "a", From: "T"}, Negate: true},
	}
	wantSQL, err := sqlx.Eval(notIn, d)
	if err != nil {
		t.Fatal(err)
	}
	reqs = append(reqs, Request{SQL: &notIn})
	reqs = append(reqs, Request{}) // malformed: neither Query nor SQL

	snap := eng.Snapshot()
	serial := snap.Serve(reqs, 1)
	if err := eng.Update(func(db *table.Database) error {
		return db.Add("R", table.MustParseTuple("99", "99"))
	}); err != nil {
		t.Fatal(err)
	}
	parallel := snap.Serve(reqs, 8)
	if sql := serial[len(reqs)-2]; sql.Err != nil || fp(sql.Rel) != fp(wantSQL) {
		t.Fatalf("SQL request: %v, %v; sqlx.Eval gives %v", sql.Rel, sql.Err, wantSQL)
	}
	if len(serial) != len(reqs) || len(parallel) != len(reqs) {
		t.Fatalf("response count: %d and %d, want %d", len(serial), len(parallel), len(reqs))
	}
	for i := range reqs {
		if (serial[i].Err == nil) != (parallel[i].Err == nil) {
			t.Fatalf("request %d: error mismatch: %v vs %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Err == nil && fp(serial[i].Rel) != fp(parallel[i].Rel) {
			t.Fatalf("request %d: parallel answer differs from serial", i)
		}
	}
	if serial[len(reqs)-1].Err == nil {
		t.Fatal("malformed request must fail")
	}
}
