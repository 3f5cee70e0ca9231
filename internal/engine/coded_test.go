package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/table"
	"incdata/internal/value"
)

// codedTestDB is parallelTestDB with string-dominated columns, so the
// engine-level differential exercises the value dictionary rather than
// only the directly coded int space.
func codedTestDB(tuples, domain, nullIDs int, seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	d := table.NewDatabase(testSchema())
	for _, name := range []string{"R", "S", "T"} {
		for i := 0; i < tuples; i++ {
			t := make(table.Tuple, 2)
			for j := range t {
				switch {
				case nullIDs > 0 && rnd.Intn(60) == 0:
					t[j] = value.Null(uint64(rnd.Intn(nullIDs) + 1))
				case rnd.Intn(3) == 0:
					t[j] = value.Int(int64(rnd.Intn(domain)))
				default:
					t[j] = value.String(fmt.Sprintf("v%02d", rnd.Intn(domain)))
				}
			}
			d.MustAdd(name, t)
		}
	}
	return d
}

// TestEngineCodedBitIdentical crosses the coded knob with every other
// evaluation dimension at the engine level: for each query, mode
// certain/naive, planner on/off and worker budget 1/2/4, the
// dictionary-coded tier must produce exactly the fingerprint the row path
// does.
func TestEngineCodedBitIdentical(t *testing.T) {
	eng := New(codedTestDB(1200, 40, 3, 11))
	queries := map[string]ra.Expr{
		"base":   ra.Base("R"),
		"select": ra.Select{Input: ra.Base("R"), Pred: ra.Neq(ra.Attr("a"), ra.Attr("b"))},
		"join":   ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}},
		"select-join": ra.Select{
			Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
			Pred:  ra.Neq(ra.Attr("a"), ra.Attr("c")),
		},
		"diff": ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")},
		"project-diff": ra.Diff{
			Left:  ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}},
			Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
		},
		"union": ra.Union{
			Left:  ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a"}},
			Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
		},
	}
	for name, q := range queries {
		for _, mode := range []Mode{ModeCertain, ModeNaive} {
			for _, planner := range []PlannerSetting{PlannerOn, PlannerOff} {
				for _, workers := range []int{1, 2, 4} {
					opts := Options{Mode: mode, Planner: planner, Workers: workers, Coded: CodedOff}
					want, err := eng.Eval(q, opts)
					if err != nil {
						t.Fatalf("%s/%v/planner=%v/workers=%d row: %v", name, mode, planner, workers, err)
					}
					opts.Coded = CodedOn
					got, err := eng.Eval(q, opts)
					if err != nil {
						t.Fatalf("%s/%v/planner=%v/workers=%d coded: %v", name, mode, planner, workers, err)
					}
					if fp(got) != fp(want) {
						t.Fatalf("%s/%v/planner=%v/workers=%d: coded answer differs from row path",
							name, mode, planner, workers)
					}
				}
			}
		}
	}
}
