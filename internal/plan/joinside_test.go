package plan

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// joinSideDB returns L(a, b, c) of n tuples and R(b, d, a) of 2n, whose
// shared columns sit at other positions than L's.  Column a
// runs over n/2 keys of three kinds — ints, strings and marked nulls — so an
// index on a chains about two rows a key; b takes four strings and a null.
// c and d number the rows, so select(R; d < t) keeps exactly t of them.  L's
// last tuple is added after a snapshot, which splits a relation of more than
// segMax tuples into segments, so that its indexes can later be patched.
func joinSideDB(n int, seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	db := table.NewDatabase(schema.MustNew(
		schema.NewRelation("L", "a", "b", "c"),
		schema.NewRelation("R", "b", "d", "a"),
	))
	keys := max(n/2, 1)
	key := func() value.Value {
		k := rnd.Intn(keys)
		switch k % 7 {
		case 0:
			return value.Null(uint64(k + 1))
		case 1, 2, 3:
			return value.String(fmt.Sprint("k", k))
		default:
			return value.Int(int64(k))
		}
	}
	b := func() value.Value {
		if x := rnd.Intn(5); x > 0 {
			return value.String(fmt.Sprint("b", x))
		}
		return value.Null(999)
	}
	// The first rows of L and R differ on (b, a) but hash alike in that
	// order, the join's; the second rows likewise in the order (a, b), the
	// membership probes'.  Only MatchesKey tells them apart.
	b1, a1, b2, a2 := collidingKey(5, 6)
	db.MustAdd("L", table.NewTuple(a1, b1, value.Int(0)))
	db.MustAdd("R", table.NewTuple(b2, value.Int(0), a2))
	a1, b1, a2, b2 = collidingKey(7, 8)
	db.MustAdd("L", table.NewTuple(a1, b1, value.Int(1)))
	db.MustAdd("R", table.NewTuple(b2, value.Int(1), a2))
	for i := 2; i < n-1; i++ {
		db.MustAdd("L", table.NewTuple(key(), b(), value.Int(int64(i))))
	}
	for i := 2; i < 2*n; i++ {
		db.MustAdd("R", table.NewTuple(b(), value.Int(int64(i)), key()))
	}
	db.Snapshot()
	db.MustAdd("L", table.NewTuple(key(), b(), value.Int(int64(n-1))))
	return db
}

// collidingKey returns two keys of two columns, (x1, y1) and (x2, y2), whose
// first columns are the ints f1 ≠ f2 and whose value.HashCode folds are
// equal.  Each column's mix is a bijection, so y2 solves
// mix(y2) = h(x1) ^ h(x2) ^ mix(y1); y1 runs over the ints until y2 is an int
// or a null, values that code without a dictionary.
func collidingKey(f1, f2 int64) (x1, y1, x2, y2 value.Value) {
	code := func(v value.Value) uint64 {
		c, _ := value.EncodeDirect(v)
		return c
	}
	inverse := func(a uint64) uint64 { // of an odd a, modulo 2^64
		inv := a
		for range 5 {
			inv *= 2 - a*inv
		}
		return inv
	}
	const prime = 1099511628211
	mix := func(c uint64) uint64 { return value.HashCode(0, c) * inverse(prime) }
	unmix := func(x uint64) uint64 {
		x ^= x >> 32
		x *= inverse(0xBF58476D1CE4E5B9)
		x ^= x>>29 ^ x>>58
		return x * inverse(0x9E3779B97F4A7C15)
	}
	x1, x2 = value.Int(f1), value.Int(f2)
	h1, h2 := value.HashCode(value.CodeHashSeed, code(x1)), value.HashCode(value.CodeHashSeed, code(x2))
	for k := int64(0); ; k++ {
		y1 = value.Int(k)
		if v, ok := value.DecodeDirect(unmix(h1 ^ h2 ^ mix(code(y1)))); ok {
			return x1, y1, x2, v
		}
	}
}

// joinSideQueries returns the join and membership shapes over a derived
// right side of t rows; the first three join a plain base scan of L and so
// may probe L's index.
func joinSideQueries(t int) []ra.Expr {
	small := ra.Select{Input: ra.Base("R"), Pred: ra.Lt(ra.Attr("d"), ra.LitInt(int64(t)))}
	keyA := ra.Project{Input: small, Attrs: []string{"a", "d"}}
	return []ra.Expr{
		ra.Join{Left: ra.Base("L"), Right: keyA},  // one key column
		ra.Join{Left: ra.Base("L"), Right: small}, // two: every candidate is verified
		ra.Project{Input: ra.Join{Left: ra.Base("L"), Right: small}, Attrs: []string{"c", "d"}},
		// A filtered left side probes with a selection vector.
		ra.Join{Left: ra.Select{Input: ra.Base("L"), Pred: ra.Neq(ra.Attr("c"), ra.LitInt(3))}, Right: keyA},
		ra.Diff{Left: ra.Project{Input: ra.Base("L"), Attrs: []string{"a", "b"}}, Right: ra.Project{Input: small, Attrs: []string{"a", "b"}}},
		ra.Intersect{Left: ra.Project{Input: ra.Base("L"), Attrs: []string{"a"}}, Right: ra.Project{Input: small, Attrs: []string{"a"}}},
		ra.Diff{Left: ra.Project{Input: ra.Base("L"), Attrs: []string{"a", "b"}}, Right: ra.Project{Input: ra.Base("R"), Attrs: []string{"a", "b"}}},
	}
}

// evalConcurrently runs raw and certain evaluations of p on db from workers
// goroutines at once and fails unless each matches the oracle's keys.
func evalConcurrently(t *testing.T, p *Plan, db *table.Database, cfg EvalConfig, workers int, raw, cert, label string) {
	t.Helper()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.EvalWith(db, cfg)
			if err == nil && got.CanonicalKey() != raw {
				err = fmt.Errorf("raw answer %s differs from the oracle's", got)
			}
			if err == nil {
				got, err = p.EvalCertainWith(db, cfg)
				if err == nil && got.CanonicalKey() != cert {
					err = fmt.Errorf("certain answer %s differs from the oracle's", got)
				}
			}
			errs[w] = err
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v\nplan:\n%s", label, err, p.Describe())
		}
	}
}

// TestJoinProbeSideDifferential: a join of a base left scan with a derived
// right side answers what ra.Eval answers, raw and certain, on both tiers,
// whichever side it probes — a right side with fewer, as many or more rows
// than L; keys of one and two columns with nulls and chains; probe sides of
// 255 to 513 rows, around the batch size, and of several segments; before
// the access-path rule builds L's index, after, and after a write the next
// snapshot patches it; from one evaluation at a time and from two at once.
// Diff and intersect probes of a base index and of a derived set ride along.
func TestJoinProbeSideDifferential(t *testing.T) {
	x1, y1, x2, y2 := collidingKey(5, 6)
	fold := func(x, y value.Value) uint64 {
		cx, _ := value.EncodeDirect(x)
		cy, _ := value.EncodeDirect(y)
		return value.HashCode(value.HashCode(value.CodeHashSeed, cx), cy)
	}
	if x1 == x2 || fold(x1, y1) != fold(x2, y2) {
		t.Fatalf("collidingKey: (%s, %s) and (%s, %s) fold to %#x and %#x", x1, y1, x2, y2, fold(x1, y1), fold(x2, y2))
	}
	sizes := []int{255, 256, 257, 513, 2000}
	if testing.Short() || raceEnabled {
		sizes = []int{257, 2000} // a partial batch, and segments
	}
	flipped, patched := false, false
	for _, n := range sizes {
		for _, rows := range []int{n / 3, n, 2 * n} {
			for qi, q := range joinSideQueries(rows) {
				base := joinSideDB(n, int64(n))
				after := base.Clone()
				extra := table.NewTuple(value.String("k1"), value.String("b1"), value.Int(int64(n)))
				after.MustAdd("L", extra)
				var want [2][2]string // before and after the write: raw, certain
				for i, db := range []*table.Database{base, after} {
					w, err := ra.Eval(q, db)
					if err != nil {
						t.Fatal(err)
					}
					want[i] = [2]string{w.CanonicalKey(), ra.StripNulls(w).CanonicalKey()}
				}
				p, err := Compile(q, base.Schema())
				if err != nil {
					t.Fatal(err)
				}
				for name, cfg := range accessConfigs() {
					// The row path keeps no state between evaluations: once
					// is enough for it.
					rounds, maxWorkers := 1, 1
					if cfg.Coded {
						rounds, maxWorkers = 6, 2
					}
					for workers := 1; workers <= maxWorkers; workers++ {
						label := fmt.Sprintf("|L| %d, right %d, %s, workers %d, %s", n, rows, name, workers, q)
						db := joinSideDB(n, int64(n))
						snap := db.SnapshotReusing(nil)
						for round := 0; round < rounds; round++ {
							evalConcurrently(t, p, snap, cfg, workers, want[0][0], want[0][1], fmt.Sprint(label, ", round ", round))
						}
						d := p.Describe()
						if cfg.Coded && qi < 3 {
							if wantSide := "probe left index("; rows < n && !strings.Contains(d, wantSide) {
								t.Fatalf("%s: no %q after six rounds:\n%s", label, wantSide, d)
							} else if wantSide := "build right: derived side not smaller"; rows >= n && !strings.Contains(d, wantSide) {
								t.Fatalf("%s: no %q:\n%s", label, wantSide, d)
							}
							flipped = flipped || rows < n
						}
						db.MustAdd("L", extra)
						next := db.SnapshotReusing(snap)
						before := next.Relation("L").EncodingStats().IndexPatches
						evalConcurrently(t, p, next, cfg, workers, want[1][0], want[1][1], label+", after a write")
						if cfg.Coded && qi < 3 && rows < n && next.Relation("L").EncodingStats().IndexPatches > before {
							patched = true
						}
					}
				}
			}
		}
	}
	if !flipped || !patched {
		t.Fatalf("a join probed the left index: %v; a probe patched it after a write: %v", flipped, patched)
	}
}

// TestJoinSideDescribe pins the side each coded hash join reports: nothing
// before a coded evaluation, the right side for a base right side or a left
// side that is not a plain scan, the left relation's access path while a
// smaller derived right side waits for L's index, and the probe of that
// index once it is there.
func TestJoinSideDescribe(t *testing.T) {
	db := joinSideDB(300, 1).Snapshot()
	small := ra.Select{Input: ra.Base("R"), Pred: ra.Lt(ra.Attr("d"), ra.LitInt(20))}
	large := ra.Select{Input: ra.Base("R"), Pred: ra.Lt(ra.Attr("d"), ra.LitInt(400))}
	filteredL := ra.Select{Input: ra.Base("L"), Pred: ra.Neq(ra.Attr("c"), ra.LitInt(3))}
	side := func(p *Plan) string {
		d := p.Describe()
		line := d[:strings.IndexByte(d, '\n')]
		return strings.TrimPrefix(line, "hash-join l[1 0]=r[0 2]")
	}
	compile := func(q ra.Expr) *Plan {
		p, err := Compile(q, db.Schema())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	eval := func(p *Plan, cfg EvalConfig) {
		if _, err := p.EvalWith(db, cfg); err != nil {
			t.Fatal(err)
		}
	}

	p := compile(ra.Join{Left: ra.Base("L"), Right: small})
	if got := side(p); got != "" {
		t.Fatalf("before an evaluation: %q", got)
	}
	eval(p, EvalConfig{})
	if got := side(p); got != "" {
		t.Fatalf("after a row-path evaluation: %q", got)
	}
	var paths []string
	for range 9 {
		eval(p, EvalConfig{Coded: true})
		paths = append(paths, side(p))
	}
	if paths[0] != " build right: scan: below build threshold 1/7" || paths[6] != " build right: scan: below build threshold 7/7" {
		t.Fatalf("sides while L scans: %q", paths)
	}
	if paths[7] != " probe left index(b, a)" || paths[8] != paths[7] {
		t.Fatalf("sides once L's index is due: %q", paths)
	}
	for _, tc := range []struct {
		q    ra.Expr
		want string
	}{
		{ra.Join{Left: ra.Base("L"), Right: large}, " build right: derived side not smaller"},
		{ra.Join{Left: ra.Base("L"), Right: ra.Base("R")}, " build right"},
		{ra.Join{Left: filteredL, Right: small}, " build right"},
	} {
		p := compile(tc.q)
		eval(p, EvalConfig{Coded: true})
		if got := side(p); got != tc.want {
			t.Errorf("%s: side %q, want %q", tc.q, got, tc.want)
		}
	}
}
