package certain

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// diffSchema/diffDB build small random incomplete databases whose
// relations carry real attribute names, so every query below is
// well-formed.
func diffSchema() *schema.Schema {
	return schema.MustNew(
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "b", "c"),
		schema.NewRelation("T", "a", "b"),
	)
}

func diffDB(seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	d := table.NewDatabase(diffSchema())
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

// differentialQueries covers every operator class the planner handles:
// splittable plans (σπρ×⋈∪∩Δ), diff with invariant and variant right
// sides, and division (per-world fallback).
func differentialQueries() map[string]ra.Expr {
	ucq := ra.Project{
		Input: ra.Join{
			Left:  ra.Base("R"),
			Right: ra.Base("S"),
		},
		Attrs: []string{"a", "c"},
	}
	return map[string]ra.Expr{
		"base":      ra.Base("R"),
		"select":    ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Attr("a"), ra.LitInt(1))},
		"ucq":       ucq,
		"union":     ra.Union{Left: ra.Base("R"), Right: ra.Base("T")},
		"intersect": ra.Intersect{Left: ra.Base("R"), Right: ra.Base("T")},
		"diff":      ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")},
		"proj-diff": ra.Project{Input: ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")}, Attrs: []string{"a"}},
		"delta":     ra.Delta{Attr1: "d1", Attr2: "d2"},
		"division": ra.Division{
			Left:  ra.Product{Left: ra.Base("R"), Right: ra.Rename{Input: ra.Base("S"), As: "S2", Attrs: []string{"x", "y"}}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S2", Attrs: []string{"x", "y"}},
		},
		"select-product-join": ra.Select{
			Input: ra.Product{Left: ra.Base("R"), Right: ra.Rename{Input: ra.Base("S"), As: "S3", Attrs: []string{"u", "v"}}},
			Pred:  ra.Eq(ra.Attr("b"), ra.Attr("u")),
		},
	}
}

func relFingerprint(r *table.Relation) string {
	if r == nil {
		return "<nil>"
	}
	return r.CanonicalKey()
}

// TestPlannerDifferentialCertainPaths runs every certain-answer entry
// point with the planner on and off and requires bit-identical results on
// random incomplete databases — the planner acceptance check for the
// certain layer.
func TestPlannerDifferentialCertainPaths(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	planned, oracle := NewEvaluator(true), NewEvaluator(false)
	for name, q := range differentialQueries() {
		for _, seed := range seeds {
			for _, workers := range []int{0, 4} {
				d := diffDB(seed)
				opts := Options{ExtraFresh: 1, MaxWorlds: 1 << 20, Workers: workers}

				// The GLB construction behind CertainObjectCWA multiplies
				// answer relations, and on moderate answer sets it exceeds
				// the core budget and snowballs, planner on or off alike.
				// So the full certainO differential runs on tiny-answer
				// queries only; the others compare the collected answer
				// sets, which is the part the planner rebuilt.
				checkCertainO := name == "base" || name == "select" || name == "delta"

				type outcome struct {
					byWorlds, certainO, naive, owa string
					answers                        []string
					boolCertain                    bool
					errs                           [6]error
				}
				run := func(ev *Evaluator) outcome {
					var o outcome
					r1, err := ev.ByWorldsCWA(q, d, opts)
					o.errs[0] = err
					o.byWorlds = relFingerprint(r1)
					if checkCertainO {
						r2, err := ev.CertainObjectCWA(q, d, opts)
						o.errs[1] = err
						o.certainO = relFingerprint(r2)
					}
					b, err := ev.BoolCertainCWA(q, d, opts)
					o.errs[2] = err
					o.boolCertain = b
					r3, err := ev.Naive(q, d)
					o.errs[3] = err
					o.naive = relFingerprint(r3)
					r4, err := ev.ByWorldsOWA(q, d, opts)
					o.errs[4] = err
					o.owa = relFingerprint(r4)
					// The distinct per-world answer set (certainO's input).
					s, err := ev.cwaSweep(q, d, opts)
					var answers []*table.Relation
					if err == nil {
						answers, err = ev.collectAnswers(s, workers)
					}
					o.errs[5] = err
					for _, a := range answers {
						o.answers = append(o.answers, relFingerprint(a))
					}
					sort.Strings(o.answers)
					return o
				}

				on, off := run(planned), run(oracle)

				for i := range on.errs {
					if (on.errs[i] == nil) != (off.errs[i] == nil) {
						t.Fatalf("%s seed=%d workers=%d: error mismatch at step %d: %v vs %v",
							name, seed, workers, i, on.errs[i], off.errs[i])
					}
				}
				if on.byWorlds != off.byWorlds {
					t.Errorf("%s seed=%d workers=%d: ByWorldsCWA differs", name, seed, workers)
				}
				if checkCertainO && on.certainO != off.certainO {
					// The pool collects answers in the serial order at any
					// worker count: require bit-identical GLBs.
					t.Errorf("%s seed=%d workers=%d: CertainObjectCWA differs", name, seed, workers)
				}
				if on.boolCertain != off.boolCertain {
					t.Errorf("%s seed=%d workers=%d: BoolCertainCWA differs", name, seed, workers)
				}
				if on.naive != off.naive {
					t.Errorf("%s seed=%d workers=%d: Naive differs", name, seed, workers)
				}
				if on.owa != off.owa {
					t.Errorf("%s seed=%d workers=%d: ByWorldsOWA differs", name, seed, workers)
				}
				if !slices.Equal(on.answers, off.answers) {
					t.Errorf("%s seed=%d workers=%d: collected answer sets differ (%d vs %d answers)",
						name, seed, workers, len(on.answers), len(off.answers))
				}
			}
		}
	}
}

// TestPlannerDifferentialAfterMutation guards the world-plan cache: a call,
// a database mutation, and a second call must reflect the new contents
// (stale cached stable parts would be a soundness bug).
func TestPlannerDifferentialAfterMutation(t *testing.T) {
	d := diffDB(11)
	q := ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}}
	opts := Options{ExtraFresh: 1}
	planned := NewEvaluator(true)

	if _, err := planned.ByWorldsCWA(q, d, opts); err != nil {
		t.Fatal(err)
	}
	// Mutate a base relation in place and re-ask.
	d.MustAdd("R", table.NewTuple(value.Int(9), value.Int(9)))
	d.MustAdd("S", table.NewTuple(value.Int(9), value.Int(7)))

	on, err := planned.ByWorldsCWA(q, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewEvaluator(false).ByWorldsCWA(q, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !on.Equal(off) {
		t.Fatalf("stale plan after mutation:\nplanner: %s\noracle:  %s", on, off)
	}
	if !on.Contains(table.MustParseTuple("9", "7")) {
		t.Fatalf("answer misses the tuple introduced by the mutation: %s", on)
	}
}

// unreadNullsDB has one null in R, one in S and three in U, over the
// constants 1, 2, 3.
func unreadNullsDB() *table.Database {
	d := table.NewDatabase(schema.MustNew(
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "b", "c"),
		schema.NewRelation("U", "x", "y"),
	))
	d.MustAddRow("R", "1", "⊥1")
	d.MustAddRow("R", "2", "3")
	d.MustAddRow("S", "⊥2", "1")
	d.MustAddRow("S", "3", "2")
	d.MustAddRow("U", "⊥3", "⊥4")
	d.MustAddRow("U", "⊥5", "1")
	return d
}

// TestSweepRangesOverReadNullsOnly: a planned sweep enumerates the nulls of
// the relations the query reads, not Null(D).  U carries three nulls no
// query below can see; the answers must equal the oracle's (which ranges
// over all five), and the worlds evaluated must be |dom|^(nulls read), at
// one worker and over the pool, whose ranges split the same list.
func TestSweepRangesOverReadNullsOnly(t *testing.T) {
	d := unreadNullsDB()
	const dom = 4 // 1, 2, 3 and one fresh constant
	pow := func(k int) uint64 {
		n := uint64(1)
		for ; k > 0; k-- {
			n *= dom
		}
		return n
	}
	aOfR := ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}}
	for _, c := range []struct {
		name  string
		q     ra.Expr
		nulls int
		early bool // the CWA sweep is decided before its last world
	}{
		// (1, ⊥1) puts a = 1 into every world's delta of π_a(R): a running
		// intersection that holds it never empties.
		{"one relation", aOfR, 1, false},
		{"join", ra.Union{Left: ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a"}}, Right: aOfR}, 2, false},
		{"whole database", ra.Union{
			Left:  ra.Delta{Attr1: "a", Attr2: "b"},
			Right: ra.Product{Left: aOfR, Right: ra.Rename{Input: aOfR, As: "R2", Attrs: []string{"b"}}},
		}, 5, false},
		// π_b(R) − π_b(S) is {3, v(⊥1)} − {3, v(⊥2)}: empty in the first world.
		{"non-splittable", ra.Diff{Left: ra.Project{Input: ra.Base("R"), Attrs: []string{"b"}}, Right: ra.Project{Input: ra.Base("S"), Attrs: []string{"b"}}}, 2, true},
	} {
		for _, workers := range []int{1, 3} {
			opts := Options{Workers: workers}
			planned, oracle := NewEvaluator(true), NewEvaluator(false)
			// The three sweeps, each against the oracle.
			got, err := planned.ByWorldsCWA(c.q, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.ByWorldsCWA(c.q, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("%s workers=%d: CWA %s, oracle %s", c.name, workers, got, want)
			}
			st := planned.Stats()
			if st.Sweeps != 1 || (!c.early && st.WorldsEvaluated != pow(c.nulls)) || (st.SweepEarlyExits == 1) != c.early {
				t.Errorf("%s workers=%d: CWA sweep counters %+v, want %d worlds", c.name, workers, st, pow(c.nulls))
			}
			if os := oracle.Stats(); !c.early && os.WorldsEvaluated != pow(5) {
				t.Errorf("%s workers=%d: the oracle evaluated %d worlds, want %d", c.name, workers, os.WorldsEvaluated, pow(5))
			}

			gotB, err := planned.BoolCertainCWA(c.q, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantB, err := oracle.BoolCertainCWA(c.q, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if gotB != wantB {
				t.Errorf("%s: Bool %v, oracle %v", c.name, gotB, wantB)
			}

			if c.nulls == 5 {
				continue // a thousand answers to fold: the differential suite covers Δ's certainO
			}
			before := planned.Stats().WorldsEvaluated
			gotO, err := planned.CertainObjectCWA(c.q, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			wantO, err := oracle.CertainObjectCWA(c.q, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !gotO.Equal(wantO) {
				t.Errorf("%s workers=%d: certainO %s, oracle %s", c.name, workers, gotO, wantO)
			}
			if n := planned.Stats().WorldsEvaluated - before; n != pow(c.nulls) {
				t.Errorf("%s workers=%d: certainO evaluated %d worlds, want %d", c.name, workers, n, pow(c.nulls))
			}
		}
	}
}

// TestMaxWorldsBoundsTheSweepThatRuns: MaxWorlds is checked against the
// sweep that will run.  π_a(R) reads one null, so the planner sweeps 4
// worlds and answers as the unbounded oracle does, although U's nulls put
// |dom|^|Null(D)| = 4^5 over the bound; with the planner off the sweep
// ranges over Null(D) and is refused.
func TestMaxWorldsBoundsTheSweepThatRuns(t *testing.T) {
	d := unreadNullsDB()
	q := ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}}
	const maxWorlds = 4
	for name, sweep := range map[string]func(*Evaluator, Options) (string, error){
		"ByWorldsCWA": func(ev *Evaluator, o Options) (string, error) {
			r, err := ev.ByWorldsCWA(q, d, o)
			return relFingerprint(r), err
		},
		"ByWorldsOWA": func(ev *Evaluator, o Options) (string, error) {
			r, err := ev.ByWorldsOWA(q, d, o)
			return relFingerprint(r), err
		},
		"CertainObjectCWA": func(ev *Evaluator, o Options) (string, error) {
			r, err := ev.CertainObjectCWA(q, d, o)
			return relFingerprint(r), err
		},
		"BoolCertainCWA": func(ev *Evaluator, o Options) (string, error) {
			b, err := ev.BoolCertainCWA(q, d, o)
			return strconv.FormatBool(b), err
		},
	} {
		planned := NewEvaluator(true)
		got, err := sweep(planned, Options{MaxWorlds: maxWorlds})
		if err != nil {
			t.Fatalf("%s: planned sweep under MaxWorlds=%d: %v", name, maxWorlds, err)
		}
		want, err := sweep(NewEvaluator(false), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: bounded planned answer %q, unbounded oracle %q", name, got, want)
		}
		if n := planned.Stats().WorldsEvaluated; n > maxWorlds {
			t.Errorf("%s: %d worlds evaluated under MaxWorlds=%d", name, n, maxWorlds)
		}
		if _, err := sweep(NewEvaluator(false), Options{MaxWorlds: maxWorlds}); !errors.Is(err, ErrTooManyWorlds) {
			t.Errorf("%s: planner off under MaxWorlds=%d: %v, want ErrTooManyWorlds", name, maxWorlds, err)
		}
	}

	// Under MaxExtraTuples the bound counts materialized OWA worlds: R =
	// {(1, ⊥1), (2, 3)} has 4 valuations but 344 worlds with up to two
	// extra tuples over {1, 2, 3, @w0}.
	owa := table.NewDatabase(schema.MustNew(schema.NewRelation("R", "a", "b")))
	owa.MustAddRow("R", "1", "⊥1")
	owa.MustAddRow("R", "2", "3")
	for _, planner := range []bool{true, false} {
		ev := NewEvaluator(planner)
		if _, err := ev.ByWorldsOWA(ra.Base("R"), owa, Options{MaxWorlds: 10, MaxExtraTuples: 2}); !errors.Is(err, ErrTooManyWorlds) {
			t.Errorf("planner=%v: OWA with extra tuples under MaxWorlds=10: %v, want ErrTooManyWorlds", planner, err)
		}
		if st := ev.Stats(); st.Sweeps != 0 || st.WorldsEvaluated != 0 {
			t.Errorf("planner=%v: a refused OWA sweep counted %+v", planner, st)
		}
		if _, err := ev.ByWorldsOWA(ra.Base("R"), owa, Options{MaxExtraTuples: 2, Workers: 3}); err != nil {
			t.Fatal(err)
		}
		if st := ev.Stats(); st.Sweeps != 1 || st.WorldsEvaluated != 344 {
			t.Errorf("planner=%v: unbounded OWA sweep counted %+v, want 1 sweep of 344 worlds", planner, st)
		}
	}
}
