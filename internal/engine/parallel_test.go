package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/table"
	"incdata/internal/value"
)

// parallelTestDB builds R, S and T with the given number of tuples each,
// large enough to fill many chunks.  nullIDs marked nulls are sprinkled in
// (reused, so world enumeration stays bounded) and values are drawn from
// [0, domain).
func parallelTestDB(tuples, domain, nullIDs int, seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	d := table.NewDatabase(testSchema())
	for _, name := range []string{"R", "S", "T"} {
		for i := 0; i < tuples; i++ {
			t := make(table.Tuple, 2)
			for j := range t {
				if nullIDs > 0 && rnd.Intn(60) == 0 {
					t[j] = value.Null(uint64(rnd.Intn(nullIDs) + 1))
				} else {
					t[j] = value.Int(int64(rnd.Intn(domain)))
				}
			}
			d.MustAdd(name, t)
		}
	}
	return d
}

// TestWorkersResolution pins what the Workers knob resolves to: it sizes
// the per-world pool of a sweep only, defaulting to GOMAXPROCS, and leaves
// the plan configuration alone.
func TestWorkersResolution(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, worlds int }{
		{0, procs}, {-3, 1}, {1, 1}, {4, 4},
	} {
		o := Options{Workers: tc.workers}
		if got, want := o.evalConfig(), (Options{}).evalConfig(); got != want {
			t.Errorf("Workers %d: plan configuration %+v, want %+v", tc.workers, got, want)
		}
		if got := o.certainOptions().Workers; got != tc.worlds {
			t.Errorf("Workers %d: world workers %d, want %d", tc.workers, got, tc.worlds)
		}
	}
}

// TestEngineWorkersBitIdentical pins the per-world pool against the serial
// sweep: for every query, mode and planner setting, Workers: 4 must produce
// exactly the fingerprint Workers: 1 does.
func TestEngineWorkersBitIdentical(t *testing.T) {
	// Large relations with a wide domain: the one-shot modes evaluate
	// serially whatever Workers says, which this pins too.
	big := New(parallelTestDB(1200, 40, 3, 1))
	// Smaller relations with a narrow domain: the world-enumeration modes
	// stay within a few dozen worlds while the per-world pool runs.
	med := New(parallelTestDB(250, 3, 2, 2))

	queries := map[string]ra.Expr{
		"base":   ra.Base("R"),
		"select": ra.Select{Input: ra.Base("R"), Pred: ra.Neq(ra.Attr("a"), ra.Attr("b"))},
		"join":   ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}},
		"diff":   ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")},
		"union": ra.Union{
			Left:  ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a"}},
			Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
		},
	}

	check := func(eng *Engine, mode Mode, extra Options) {
		t.Helper()
		for name, q := range queries {
			for _, planner := range []PlannerSetting{PlannerOn, PlannerOff} {
				opts := extra
				opts.Mode = mode
				opts.Planner = planner
				opts.Workers = 1
				want, err := eng.Eval(q, opts)
				if err != nil {
					t.Fatalf("%s/%v/planner=%v workers=1: %v", name, mode, planner, err)
				}
				for _, workers := range []int{2, 4} {
					opts.Workers = workers
					got, err := eng.Eval(q, opts)
					if err != nil {
						t.Fatalf("%s/%v/planner=%v workers=%d: %v", name, mode, planner, workers, err)
					}
					if fp(got) != fp(want) {
						t.Fatalf("%s/%v/planner=%v: workers=%d differs from serial", name, mode, planner, workers)
					}
				}
			}
		}
	}

	check(big, ModeCertain, Options{})
	check(big, ModeNaive, Options{})
	worldOpts := Options{ExtraFresh: 1, MaxWorlds: 1 << 18}
	check(med, ModeCertainCWA, worldOpts)
	check(med, ModeCertainOWA, worldOpts)

	// Boolean certainty through the same worker knob.
	q := ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}}
	for _, planner := range []PlannerSetting{PlannerOn, PlannerOff} {
		opts := worldOpts
		opts.Planner = planner
		opts.Workers = 1
		want, err := med.EvalBool(q, opts)
		if err != nil {
			t.Fatalf("EvalBool serial: %v", err)
		}
		opts.Workers = 4
		got, err := med.EvalBool(q, opts)
		if err != nil {
			t.Fatalf("EvalBool workers=4: %v", err)
		}
		if got != want {
			t.Fatalf("EvalBool planner=%v: workers=4 got %v, serial %v", planner, got, want)
		}
	}
}

// TestConcurrentParallelQueriesWithWriter stresses evaluation under
// concurrent commits: readers take snapshots and require the Workers: 4
// answer to match the serial answer on the same snapshot, while a writer
// keeps mutating the live database.  The ModeCertainCWA reads run the
// per-world pool, on a second engine whose narrow domain keeps a sweep to
// a few dozen worlds; the writer commits to both.  Run under -race this
// checks the world pool's sessions, the sidecar caches the readers share
// and the chunk pools for data races.
func TestConcurrentParallelQueriesWithWriter(t *testing.T) {
	eng := New(parallelTestDB(600, 30, 2, 7))
	sweeps := New(parallelTestDB(40, 6, 2, 8))
	queries := []ra.Expr{
		ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}},
		ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")},
		ra.Select{Input: ra.Base("R"), Pred: ra.Neq(ra.Attr("a"), ra.Attr("b"))},
	}
	modes := []Mode{ModeCertain, ModeNaive, ModeCertainCWA}

	const (
		writes         = 60
		readers        = 4
		readsPerReader = 25
	)
	var wg sync.WaitGroup
	wg.Add(1 + readers)
	errs := make(chan error, readers+1)

	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			i := i
			err := eng.Update(func(db *table.Database) error {
				switch i % 3 {
				case 0:
					return db.Add("R", table.NewTuple(value.Int(int64(1000+i)), value.Int(int64(i%30))))
				case 1:
					return db.Add("S", table.NewTuple(value.Int(int64(i%30)), value.Int(int64(1000+i))))
				default:
					ts := db.Relation("T").SortedTuples()
					if len(ts) > 0 {
						db.Relation("T").Remove(ts[i%len(ts)])
					}
					return nil
				}
			})
			if err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
			// Values stay in the sweep engine's domain, so its sweeps do
			// not grow.
			err = sweeps.Update(func(db *table.Database) error {
				t := table.NewTuple(value.Int(int64(i%6)), value.Int(int64(i/6%6)))
				if i%2 == 0 {
					return db.Add("R", t)
				}
				db.Relation("R").Remove(t)
				return nil
			})
			if err != nil {
				errs <- fmt.Errorf("sweep writer: %w", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		r := r
		go func() {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				snap := eng.Snapshot()
				q := queries[(r+i)%len(queries)]
				opts := Options{Mode: modes[i%len(modes)]}
				if opts.Mode == ModeCertainCWA {
					snap = sweeps.Snapshot()
				}
				if (r+i)%4 == 0 {
					opts.Planner = PlannerOff
				}
				opts.Workers = 4
				par, err := snap.Eval(q, opts)
				if err != nil {
					errs <- fmt.Errorf("reader %d parallel: %w", r, err)
					return
				}
				opts.Workers = 1
				ser, err := snap.Eval(q, opts)
				if err != nil {
					errs <- fmt.Errorf("reader %d serial: %w", r, err)
					return
				}
				if fp(par) != fp(ser) {
					errs <- fmt.Errorf("reader %d: parallel answer differs from serial on one snapshot", r)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := sweeps.Stats(); st.Planned.WorldsEvaluated+st.Oracle.WorldsEvaluated == 0 {
		t.Error("no ModeCertainCWA read evaluated a world")
	}
}
