package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// accessDB returns a random database for the access-path tests:
// R(a, b, c) and S(a, d) of a few hundred tuples whose column a mixes
// integers, strings and marked nulls over enough distinct values to pass the
// selectivity gate (each value in up to three tuples), b has five values (an
// unselective key) and c, d are small integers.
func accessDB(seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	db := table.NewDatabase(schema.MustNew(
		schema.NewRelation("R", "a", "b", "c"),
		schema.NewRelation("S", "a", "d"),
	))
	key := func(k int) value.Value {
		switch k % 5 {
		case 0:
			return value.Null(uint64(k/5 + 1))
		case 1, 2:
			return value.String(fmt.Sprint(k)) // "7" and 7 differ only in type
		default:
			return value.Int(int64(k))
		}
	}
	for k := 0; k < 200; k++ {
		for rep := rnd.Intn(3); rep >= 0; rep-- {
			b := value.String(fmt.Sprint("b", rnd.Intn(5)))
			if rnd.Intn(10) == 0 {
				b = value.Null(uint64(rnd.Intn(3) + 1))
			}
			db.MustAdd("R", table.NewTuple(key(k), b, value.Int(int64(rnd.Intn(8)))))
		}
		if rnd.Intn(3) > 0 {
			db.MustAdd("S", table.NewTuple(key(k+rnd.Intn(2)), value.Int(int64(rnd.Intn(8)))))
		}
	}
	return db
}

// accessConsts are the constants a is compared with: present values of each
// kind, a null that occurs and one that does not, a string no relation holds
// (absent from the dictionary), and the other-typed twins of present values.
var accessConsts = []value.Value{
	value.Int(3), value.Int(14), value.String("6"), value.String("12"),
	value.Null(1), value.Null(3), value.Null(999),
	value.String("nowhere"), value.String("3"), value.Int(6), value.Int(100000),
}

// accessQueries builds the query shapes a filter on a base scan is fused
// into, for one constant of the indexed column.
func accessQueries(c, c2 value.Value) []ra.Expr {
	eqA := func(v value.Value) ra.Predicate { return ra.Eq(ra.Attr("a"), ra.Lit(v)) }
	selR := ra.Select{Input: ra.Base("R"), Pred: eqA(c)}
	selS := ra.Select{Input: ra.Base("S"), Pred: eqA(c2)}
	return []ra.Expr{
		selR,
		ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Lit(c), ra.Attr("a"))},
		ra.Select{Input: ra.Base("R"), Pred: ra.And{Preds: []ra.Predicate{eqA(c), ra.Eq(ra.Attr("b"), ra.LitString("b2"))}}},
		ra.Select{Input: ra.Base("R"), Pred: ra.And{Preds: []ra.Predicate{ra.Eq(ra.LitInt(3), ra.Attr("c")), eqA(c)}}},
		ra.Select{Input: ra.Base("R"), Pred: ra.And{Preds: []ra.Predicate{eqA(c), ra.Lt(ra.Attr("c"), ra.LitInt(4))}}},
		ra.Select{Input: ra.Base("R"), Pred: ra.And{Preds: []ra.Predicate{eqA(c), eqA(c2)}}},
		ra.Project{Input: selR, Attrs: []string{"b", "c"}},
		ra.Project{Input: ra.Select{Input: selR, Pred: ra.Neq(ra.Attr("b"), ra.LitString("b1"))}, Attrs: []string{"a"}},
		ra.Diff{Left: ra.Project{Input: selR, Attrs: []string{"a"}}, Right: ra.Project{Input: selS, Attrs: []string{"a"}}},
		ra.Diff{Left: ra.Project{Input: ra.Base("S"), Attrs: []string{"a"}}, Right: ra.Project{Input: selR, Attrs: []string{"a"}}},
		ra.Intersect{Left: ra.Project{Input: selS, Attrs: []string{"a"}}, Right: ra.Project{Input: selR, Attrs: []string{"a"}}},
		ra.Join{Left: selR, Right: ra.Base("S")},
		ra.Project{Input: ra.Join{Left: ra.Base("S"), Right: selR}, Attrs: []string{"a", "d", "b"}},
		ra.Union{Left: ra.Project{Input: selR, Attrs: []string{"a"}}, Right: ra.Project{Input: selS, Attrs: []string{"a"}}},
		ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Attr("b"), ra.LitString("b3"))},
	}
}

// accessConfigs is the execution matrix: both tiers, and the budgeted row
// engine.
func accessConfigs() map[string]EvalConfig {
	return map[string]EvalConfig{"row": {}, "coded": {Coded: true}, "budget": {MemBudget: 1 << 10}}
}

// evalBoth evaluates p raw and certain and holds both against the oracle's
// canonical keys.
func evalBoth(t *testing.T, p *Plan, db *table.Database, cfg EvalConfig, raw, cert, label string) {
	t.Helper()
	got, err := p.EvalWith(db, cfg)
	if err != nil {
		t.Fatalf("%s: EvalWith: %v", label, err)
	}
	if got.CanonicalKey() != raw {
		t.Fatalf("%s: EvalWith yields %s, the oracle differs\nplan:\n%s", label, got, p.Describe())
	}
	got, err = p.EvalCertainWith(db, cfg)
	if err != nil {
		t.Fatalf("%s: EvalCertainWith: %v", label, err)
	}
	if got.CanonicalKey() != cert {
		t.Fatalf("%s: EvalCertainWith yields %s, the oracle differs\nplan:\n%s", label, got, p.Describe())
	}
}

// TestAccessPathDifferential: on every tier, an equality
// selection answers bit for bit what ra.Eval answers while it scans (a fresh
// snapshot), once its index is there (the same snapshot, asked often enough),
// and under a memory budget with and without an index to use.
func TestAccessPathDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	indexed := map[string]bool{} // configurations seen on the index path
	for _, seed := range seeds {
		db := accessDB(seed)
		for ci, c := range accessConsts {
			c2 := accessConsts[(ci+int(seed))%len(accessConsts)]
			for qi, q := range accessQueries(c, c2) {
				want, err := ra.Eval(q, db)
				if err != nil {
					t.Fatal(err)
				}
				raw, cert := want.CanonicalKey(), ra.StripNulls(want).CanonicalKey()
				p, err := Compile(q, db.Schema())
				if err != nil {
					t.Fatal(err)
				}
				for name, cfg := range accessConfigs() {
					snap := db.Snapshot() // no demand yet: the first evaluations scan
					before := snap.Relation("R").EncodingStats()
					for round := 0; round < 6; round++ {
						label := fmt.Sprintf("seed %d, %s, round %d, %s", seed, name, round, q)
						evalBoth(t, p, snap, cfg, raw, cert, label)
					}
					after := snap.Relation("R").EncodingStats()
					if cfg.MemBudget > 0 {
						if after.IndexBuilds != before.IndexBuilds {
							t.Fatalf("seed %d, %s: a budgeted evaluation built an index\nplan:\n%s", seed, q, p.Describe())
						}
						continue
					}
					if strings.Contains(p.Describe(), "index(") {
						indexed[name] = true
						// The budgeted engine uses what is there.
						evalBoth(t, p, snap, EvalConfig{MemBudget: 1 << 10}, raw, cert, fmt.Sprintf("seed %d, budget over %s, %s", seed, name, q))
						if qi == 0 && !strings.Contains(p.Describe(), "index(a)") {
							t.Fatalf("seed %d: the budgeted engine ignored the index that is there\nplan:\n%s", seed, p.Describe())
						}
					}
				}
			}
		}
	}
	for name, cfg := range accessConfigs() {
		if cfg.MemBudget == 0 && !indexed[name] {
			t.Errorf("configuration %s never took the index path", name)
		}
	}
}

// TestAccessPathDescribe pins the operator-facing text: the sargable
// conjuncts in position order whatever the operand and conjunct order, the
// residual left to the filters, and the path after each evaluation.
func TestAccessPathDescribe(t *testing.T) {
	db := accessDB(1)
	q := ra.Project{Input: ra.Select{Input: ra.Base("R"), Pred: ra.And{Preds: []ra.Predicate{
		ra.Eq(ra.LitString("b2"), ra.Attr("b")), ra.Lt(ra.Attr("c"), ra.LitInt(4)), ra.Eq(ra.Attr("a"), ra.LitInt(3)),
	}}}, Attrs: []string{"c"}}
	p, err := Compile(q, db.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Describe(); !strings.Contains(got, "scan R [a = 3 and b = b2] not evaluated\n") {
		t.Fatalf("before an evaluation:\n%s", got)
	}
	snap := db.Snapshot()
	want, _ := ra.Eval(q, db)
	paths := []string{}
	for i := 0; i < 12; i++ {
		got, err := p.Eval(snap)
		if err != nil || got.CanonicalKey() != want.CanonicalKey() {
			t.Fatalf("evaluation %d: %v, %v", i, got, err)
		}
		d := p.Describe()
		paths = append(paths, strings.TrimSpace(d[strings.LastIndex(d, "]")+1:]))
	}
	if paths[0] != "scan: below build threshold 1/7" || paths[6] != "scan: below build threshold 7/7" {
		t.Fatalf("paths while scanning: %q", paths)
	}
	if paths[7] != "index(a, b)" || paths[11] != "index(a, b)" {
		t.Fatalf("paths past the threshold: %q", paths)
	}

	// An unselective key is scanned, and says so once its sample is taken.
	q2 := ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Attr("b"), ra.LitString("b1"))}
	p2, err := Compile(q2, db.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := p2.Eval(snap); err != nil {
			t.Fatal(err)
		}
	}
	if got := p2.Describe(); got != "filter\n  scan R [b = b1] scan: not selective\n" {
		t.Fatalf("unselective key:\n%s", got)
	}
}
