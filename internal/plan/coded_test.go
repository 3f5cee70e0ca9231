package plan

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// mustSameCoded asserts the coded path is bit-identical to its oracle,
// the row path, for raw and certain evaluation.  Each coded evaluation
// runs right after pollutePools, so the sets it builds start from arrays
// that a set of another width and a larger result left behind.
func mustSameCoded(t *testing.T, q ra.Expr, d *table.Database, label string) {
	t.Helper()
	p, err := Compile(q, d.Schema())
	if err != nil {
		return // compile rejections are covered by the serial differential
	}
	configs := []struct {
		name string
		cfg  EvalConfig
	}{
		{"row", EvalConfig{}},
		{"coded", EvalConfig{Coded: true}},
	}
	type outcome struct {
		key string
		str string
		err error
	}
	raw := make([]outcome, len(configs))
	cert := make([]outcome, len(configs))
	for i, c := range configs {
		if c.cfg.Coded {
			pollutePools(t, p.root.out().Arity())
		}
		if r, err := p.EvalWith(d, c.cfg); err != nil {
			raw[i] = outcome{err: err}
		} else {
			raw[i] = outcome{key: r.CanonicalKey(), str: r.String()}
		}
		if c.cfg.Coded {
			pollutePools(t, p.root.out().Arity())
		}
		if r, err := p.EvalCertainWith(d, c.cfg); err != nil {
			cert[i] = outcome{err: err}
		} else {
			cert[i] = outcome{key: r.CanonicalKey(), str: r.String()}
		}
	}
	for i := 1; i < len(configs); i++ {
		if (raw[0].err == nil) != (raw[i].err == nil) {
			t.Fatalf("%s: error mismatch for %s: row %v, %s %v",
				label, q, raw[0].err, configs[i].name, raw[i].err)
		}
		if raw[0].err == nil && raw[i].key != raw[0].key {
			t.Fatalf("%s: EvalWith %s differs for %s\n%s: %s\nrow: %s\nplan:\n%s",
				label, configs[i].name, q, configs[i].name, raw[i].str, raw[0].str, p.Describe())
		}
		if (cert[0].err == nil) != (cert[i].err == nil) {
			t.Fatalf("%s: certain error mismatch for %s: row %v, %s %v",
				label, q, cert[0].err, configs[i].name, cert[i].err)
		}
		if cert[0].err == nil && cert[i].key != cert[0].key {
			t.Fatalf("%s: EvalCertainWith %s differs for %s\n%s: %s\nrow: %s\nplan:\n%s",
				label, configs[i].name, q, configs[i].name, cert[i].str, cert[0].str, p.Describe())
		}
	}
}

// polluters are coded evaluations with results of 200 to 1600 rows, over
// gatherDB(400), of widths 1, 2 and 3 (plans[w%3] has another width than w),
// that fill the set pools: plans[1] (width 1) builds a gather set and a
// diff's derived right side, plans[2] (width 2) and plans[0] (width 3) a
// gather set and a join's derived build side.
var polluters = sync.OnceValue(func() (pp struct {
	db    *table.Database
	plans [3]*Plan
}) {
	pp.db = gatherDB(400)
	for w, q := range map[int]ra.Expr{
		1: ra.Diff{
			Left:  ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}},
			Right: ra.Project{Input: ra.Select{Input: ra.Base("T"), Pred: ra.Neq(ra.Attr("b"), ra.LitString("label-3"))}, Attrs: []string{"a"}}},
		2: ra.Project{
			Input: ra.Join{Left: ra.Base("R"), Right: ra.Project{Input: ra.Select{Input: ra.Base("S"), Pred: ra.Lt(ra.Attr("c"), ra.LitInt(30))}, Attrs: []string{"b", "c"}}},
			Attrs: []string{"a", "c"}},
		3: ra.Join{Left: ra.Base("R"), Right: ra.Select{Input: ra.Base("S"), Pred: ra.Lt(ra.Attr("c"), ra.LitInt(20))}},
	} {
		p, err := Compile(q, pp.db.Schema())
		if err != nil || p.root.out().Arity() != w {
			panic(fmt.Sprintf("polluter of width %d: %v", w, err))
		}
		pp.plans[w%3] = p
	}
	return pp
})

// pollutePools runs the polluter of another width than arity, coded.
func pollutePools(t *testing.T, arity int) {
	t.Helper()
	pp := polluters()
	if _, err := pp.plans[arity%3].EvalWith(pp.db, EvalConfig{Coded: true}); err != nil {
		t.Fatalf("polluter: %v", err)
	}
}

// codedFuzzDB builds a small random incomplete database mixing the three
// value kinds — dictionary-coded strings alongside directly coded ints
// and tagged nulls — so the fuzz corpus crosses kind boundaries inside
// single columns.
func codedFuzzDB(seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	d := table.NewDatabase(fuzzSchema())
	for _, name := range []string{"R", "S", "T"} {
		for i := 0; i < 8; i++ {
			t := make(table.Tuple, 2)
			for j := range t {
				switch rnd.Intn(5) {
				case 0:
					t[j] = value.Null(uint64(rnd.Intn(3) + 1))
				case 1, 2:
					t[j] = value.String(fmt.Sprintf("s%d", rnd.Intn(4)))
				default:
					t[j] = value.Int(int64(rnd.Intn(4)))
				}
			}
			d.MustAdd(name, t)
		}
	}
	return d
}

// hugeNullDB is fuzzDB with one null outside the code space (id ≥ 2^62)
// planted in every relation, so every coded subtree must detect the
// unencodable relation and fall back — while still answering correctly.
func hugeNullDB(seed int64) *table.Database {
	d := fuzzDB(seed)
	for _, name := range []string{"R", "S", "T"} {
		d.MustAdd(name, table.NewTuple(value.Null(uint64(1)<<62), value.Int(1)))
	}
	return d
}

// TestCodedMatchesRowFuzz pins the coded path bit-identical to the row
// path across the full random operator corpus, over databases of
// pure-int, mixed-kind, and unencodable (huge null id) values — the last
// sending every plan to the row path.
func TestCodedMatchesRowFuzz(t *testing.T) {
	trials := 400
	if testing.Short() {
		trials = 60
	}
	s := fuzzSchema()
	for i := 0; i < trials; i++ {
		g := &exprGen{rnd: rand.New(rand.NewSource(int64(5000 + i))), s: s}
		q := g.expr(3)
		var d *table.Database
		switch i % 3 {
		case 0:
			d = fuzzDB(int64(i % 7))
		case 1:
			d = codedFuzzDB(int64(i % 7))
		default:
			d = hugeNullDB(int64(i % 7))
		}
		mustSameCoded(t, q, d, "fuzz")
	}
}

// largeDB builds R(a, b), S(b, c), T(a, b) of the given size, with int
// join keys spread over a modest domain and a null in about every
// fiftieth value.
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

// largeStringDB is largeDB with string-dominated columns: the workload
// the coded tier exists for, where the row path pays for per-value
// string hashing and key encoding.
func largeStringDB(tuples int, seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	d := table.NewDatabase(fuzzSchema())
	for _, name := range []string{"R", "S", "T"} {
		for i := 0; i < tuples; i++ {
			t := make(table.Tuple, 2)
			for j := range t {
				if rnd.Intn(50) == 0 {
					t[j] = value.Null(uint64(rnd.Intn(3) + 1))
				} else {
					t[j] = value.String(fmt.Sprintf("key-%03d", rnd.Intn(40)))
				}
			}
			d.MustAdd(name, t)
		}
	}
	return d
}

// TestCodedLargeJoin exercises the coded kernels on relations,
// string-heavy and int-valued, big enough to fill many chunks: coded join
// indexes, coded select-joins over dictionary codes, coded diffs, and a
// union mixing an eligible branch with a row-path branch.
func TestCodedLargeJoin(t *testing.T) {
	queries := map[string]ra.Expr{
		"join": ra.Project{
			Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
			Attrs: []string{"a", "c"},
		},
		"select-join": ra.Select{
			Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
			Pred:  ra.Neq(ra.Attr("a"), ra.Attr("c")),
		},
		"project-diff": ra.Diff{
			Left:  ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}},
			Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
		},
		"union-mixed": ra.Union{
			Left:  ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a"}},
			Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
		},
	}
	for _, d := range []*table.Database{largeStringDB(1500, 17), largeDB(1500, 11)} {
		for name, q := range queries {
			mustSameCoded(t, q, d, name)
		}
	}
}

// TestColEligible pins the shape gate of the coded tier: plans that only
// adopt existing tuples (bare scans, filters, whole-tuple diffs) stay on
// the row path, plans that build fresh output tuples (π, ⋈, projected
// diffs) qualify.
func TestColEligible(t *testing.T) {
	d := fuzzDB(1)
	cases := []struct {
		q    ra.Expr
		want bool
	}{
		{ra.Base("R"), false},
		{ra.Select{Input: ra.Base("R"), Pred: ra.Neq(ra.Attr("a"), ra.LitInt(0))}, false},
		{ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")}, false},
		{ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}}, true},
		{ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, true},
		{ra.Diff{
			Left:  ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}},
			Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
		}, true},
	}
	for _, tc := range cases {
		p, err := Compile(tc.q, d.Schema())
		if err != nil {
			t.Fatalf("compile %s: %v", tc.q, err)
		}
		if got := colEligible(p.root); got != tc.want {
			t.Errorf("colEligible(%s) = %v, want %v\nplan:\n%s", tc.q, got, tc.want, p.Describe())
		}
	}
}

// TestCodedScratchLifetime audits the producer-owned scratch contract of
// the coded tier: the tuples of a result and the codes it adopted from the
// gather's set as its Encoding must stay unchanged after the coded chunk
// pool and the recycled set arrays (table.ClassPool) are emptied and
// refilled by later, concurrent evaluations of other widths.  Run under
// -race in CI, this also catches any write to a recycled buffer that
// still aliases adopted state.
func TestCodedScratchLifetime(t *testing.T) {
	d := gatherDB(200)
	q := ra.Project{
		Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
		Attrs: []string{"a", "c"},
	}
	p, err := Compile(q, d.Schema())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if !codedEligible(p.root, newPctx(d, EvalConfig{Coded: true})) {
		t.Fatalf("test query must take the coded path")
	}
	res, err := p.Eval(d)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}

	// Adopt the result's tuples and its encoding, and deep-copy both.
	var adopted []table.Tuple
	var copies [][]value.Value
	res.Each(func(tp table.Tuple) bool {
		adopted = append(adopted, tp)
		copies = append(copies, append([]value.Value(nil), tp...))
		return true
	})
	if len(adopted) == 0 {
		t.Fatalf("test query produced no tuples; corpus is wrong")
	}
	builds := res.EncodingStats().Builds
	enc := res.Encoding(d.Dict())
	if res.EncodingStats().Builds != builds {
		t.Fatalf("result built its encoding instead of adopting the gather's codes")
	}
	var codes, codeCopies [][]uint64
	for b := 0; b < enc.Blocks(); b++ {
		for j := 0; j < res.Arity(); j++ {
			column := enc.Block(b).Col(j)
			codes = append(codes, column)
			codeCopies = append(codeCopies, append([]uint64(nil), column...))
		}
	}

	// Churn the chunk, selection and set pools hard: many more coded
	// evaluations of widths 1 and 3, on several goroutines, reusing the
	// same process-wide pools.
	pp := polluters()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				cfg := EvalConfig{Coded: true}
				for _, w := range []int{1, 3} {
					if _, err := pp.plans[w%3].EvalWith(pp.db, cfg); err != nil {
						t.Errorf("churn eval: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	for i, tp := range adopted {
		for j := range tp {
			if tp[j] != copies[i][j] {
				t.Fatalf("adopted tuple %d mutated after pool churn: %v != %v", i, tp, copies[i])
			}
		}
	}
	for i, column := range codes {
		for r := range column {
			if column[r] != codeCopies[i][r] {
				t.Fatalf("adopted encoding column %d mutated after pool churn at row %d", i, r)
			}
		}
	}
}

// TestCodedEligible pins the coded eligibility gate: the structural
// colEligible shape is required, and beyond it every base relation the
// subtree reads must encode cleanly — a single value outside the code
// space (a null with id ≥ 2^62) disqualifies the subtree.
func TestCodedEligible(t *testing.T) {
	join := ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}
	proj := ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}}

	check := func(d *table.Database, q ra.Expr, want bool, label string) {
		t.Helper()
		p, err := Compile(q, d.Schema())
		if err != nil {
			t.Fatalf("%s: compile %s: %v", label, q, err)
		}
		c := newPctx(d, EvalConfig{Coded: true})
		if got := codedEligible(p.root, c); got != want {
			t.Errorf("%s: codedEligible(%s) = %v, want %v\nplan:\n%s", label, q, got, want, p.Describe())
		}
	}

	clean := codedFuzzDB(1)
	check(clean, ra.Base("R"), false, "clean") // not colEligible: adoption is free on the row path
	check(clean, proj, true, "clean")
	check(clean, join, true, "clean")

	huge := hugeNullDB(1)
	check(huge, proj, false, "huge-null")
	check(huge, join, false, "huge-null")

	// The gate is per-relation: a subtree reading only clean relations
	// stays eligible even when another relation of the database does not
	// encode.
	partial := codedFuzzDB(2)
	partial.MustAdd("T", table.NewTuple(value.Null(uint64(1)<<62), value.Int(1)))
	check(partial, join, true, "partial")
	check(partial, ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}}, false, "partial")
}

// TestCodedFallbackMidDictionary pins correctness when predicate
// constants miss the dictionary: a filter comparing against a string the
// database never mentions must keep nothing on =, everything on ≠, on
// every path.
func TestCodedFallbackMidDictionary(t *testing.T) {
	d := largeStringDB(600, 23)
	absent := ra.Select{
		Input: ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}},
		Pred:  ra.Eq(ra.Attr("a"), ra.LitString("never-in-db")),
	}
	absentNeq := ra.Select{
		Input: ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}},
		Pred:  ra.Neq(ra.Attr("a"), ra.LitString("never-in-db")),
	}
	mustSameCoded(t, absent, d, "absent-eq")
	mustSameCoded(t, absentNeq, d, "absent-neq")
}

// gatherDB builds R(a, b), S(b, c), T(a, b) of the given size: a runs over
// distinct string keys (every projection on it is distinct-heavy), b over
// sixteen labels with a null in every fiftieth row (projections on it are
// dup-heavy), c over integers on both sides of the inline code range.
func gatherDB(rows int) *table.Database {
	d := table.NewDatabase(fuzzSchema())
	for i := 0; i < rows; i++ {
		b := value.String(fmt.Sprintf("label-%d", i%16))
		if i%50 == 7 {
			b = value.Null(uint64(i%3 + 1))
		}
		d.MustAdd("R", table.NewTuple(value.String(fmt.Sprintf("key-%05d", i)), b))
		d.MustAdd("T", table.NewTuple(value.String(fmt.Sprintf("key-%05d", i/2)), b))
		c := value.Int(int64(i % 40))
		if i%9 == 0 {
			c = value.Int(int64(1)<<62 + int64(i%40)) // beyond the inline range: dictionary-coded
		}
		d.MustAdd("S", table.NewTuple(b, c))
	}
	return d
}

// TestTwoPhaseMaterializeMatchesOracle holds the two-phase gather against
// ra.Eval — not against another tier: the tiers share the gather — by
// CanonicalKey, raw and certain, for the result shapes the gather treats
// differently: dup-heavy and distinct-heavy, empty (no expression has arity
// 0: TestGatherArityZero drives the gather over that shape), a union of
// coded branches (one set), unions mixing a coded branch with one that has no
// coded form in either order (the relation holds tuples the set never saw),
// and a derived join build side (the set feeds an index); unbounded and
// budgeted (the row path: no set at all).
func TestTwoPhaseMaterializeMatchesOracle(t *testing.T) {
	proj := func(rel string, attrs ...string) ra.Expr {
		return ra.Project{Input: ra.Base(rel), Attrs: attrs}
	}
	queries := map[string]ra.Expr{
		"dup-heavy":      proj("R", "b"),
		"distinct-heavy": proj("R", "a"),
		"dup-heavy-join": ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"b", "c"}},
		"empty":          ra.Select{Input: proj("R", "a"), Pred: ra.Eq(ra.Attr("a"), ra.LitString("no-such-key"))},
		"union-coded":    ra.Union{Left: proj("R", "a"), Right: proj("T", "a")},
		"union-mixed":    ra.Union{Left: ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "b"}}, Right: ra.Base("T")},
		"union-mixed-rev": ra.Union{Left: ra.Base("T"), Right: ra.Union{
			Left:  ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "b"}},
			Right: ra.Base("R")}},
		"derived-build": ra.Project{
			Input: ra.Join{Left: ra.Base("R"), Right: ra.Rename{Input: proj("S", "b"), As: "S1", Attrs: []string{"b"}}},
			Attrs: []string{"a"}},
		"diff-derived": ra.Diff{Left: proj("R", "b"), Right: ra.Project{
			Input: ra.Select{Input: ra.Base("S"), Pred: ra.Lt(ra.Attr("c"), ra.LitInt(20))}, Attrs: []string{"b"}}},
	}
	for _, rows := range []int{0, 1, 40, 3000} {
		d := gatherDB(rows)
		for name, q := range queries {
			want, err := ra.Eval(q, d)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			wantRaw, wantCertain := want.CanonicalKey(), want.CompletePart().CanonicalKey()
			p, err := Compile(q, d.Schema())
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			for _, budget := range []int64{0, 1 << 16} {
				cfg := EvalConfig{Coded: true, MemBudget: budget}
				label := fmt.Sprintf("%s rows=%d budget=%d", name, rows, budget)
				got, err := p.EvalWith(d, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got.CanonicalKey() != wantRaw {
					t.Fatalf("%s: EvalWith holds %d tuples, oracle %d\nplan:\n%s", label, got.Len(), want.Len(), p.Describe())
				}
				got, err = p.EvalCertainWith(d, cfg)
				if err != nil {
					t.Fatalf("%s: certain: %v", label, err)
				}
				if got.CanonicalKey() != wantCertain {
					t.Fatalf("%s: EvalCertainWith holds %d tuples, oracle %d\nplan:\n%s", label, got.Len(), want.CompletePart().Len(), p.Describe())
				}
			}
		}
	}
}

// TestGatherAdoptsEncoding pins what the set hands a temporary besides its
// tuples: the codes, published as the relation's encoding, row for row the
// tuples the relation holds — and only when every tuple came from the set.
func TestGatherAdoptsEncoding(t *testing.T) {
	d := gatherDB(700)
	for name, tc := range map[string]struct {
		q       ra.Expr
		adopted bool
	}{
		"coded":       {ra.Project{Input: ra.Base("R"), Attrs: []string{"b"}}, true},
		"union-coded": {ra.Union{Left: ra.Project{Input: ra.Base("R"), Attrs: []string{"a"}}, Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}}}, true},
		"union-mixed": {ra.Union{Left: ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "b"}}, Right: ra.Base("T")}, false},
	} {
		p, err := Compile(tc.q, d.Schema())
		if err != nil {
			t.Fatal(err)
		}
		c := newPctx(d, EvalConfig{Coded: true})
		out := table.NewRelation(p.root.out())
		if err := materializeIntoAdopt(p.root, c, false, true, out); err != nil {
			t.Fatal(err)
		}
		want, err := ra.Eval(tc.q, d)
		if err != nil {
			t.Fatal(err)
		}
		if out.CanonicalKey() != want.CanonicalKey() {
			t.Fatalf("%s: materialized %d tuples, oracle %d", name, out.Len(), want.Len())
		}
		builds := out.EncodingStats().Builds
		enc := out.Encoding(d.Dict())
		if adopted := out.EncodingStats().Builds == builds; adopted != tc.adopted {
			t.Fatalf("%s: encoding adopted = %v, want %v", name, adopted, tc.adopted)
		}
		// Adopted or built, the encoding's rows are the relation's tuples.
		seen := map[string]bool{}
		for b := 0; b < enc.Blocks(); b++ {
			blk := enc.Block(b)
			for i := 0; i < blk.Rows(); i++ {
				row := make(table.Tuple, out.Arity())
				for j := range row {
					row[j] = d.Dict().Decode(blk.Col(j)[i])
				}
				if !out.Contains(row) || seen[row.Key()] {
					t.Fatalf("%s: encoding row %s is not a tuple of the relation, or is there twice", name, row)
				}
				seen[row.Key()] = true
			}
		}
		if len(seen) != out.Len() {
			t.Fatalf("%s: encoding has %d rows, relation %d tuples", name, len(seen), out.Len())
		}
	}
}

// TestGatherArityZero drives the gather over the one result shape no plan
// produces (ra rejects a projection onto no attributes and a division by
// every attribute): the relation of arity 0, which holds the empty tuple or
// nothing.
func TestGatherArityZero(t *testing.T) {
	d := gatherDB(10)
	for _, held := range []bool{false, true} {
		out := table.NewRelation(schema.NewRelation("Z"))
		if held {
			out.MustAdd(table.Tuple{}) // a tuple the set never saw: the gather must look before it inserts
		}
		g := gather{c: newPctx(d, EvalConfig{Coded: true}), out: out, adopt: true}
		g.finish() // no coded branch ran: nothing to do
		if want := map[bool]int{false: 0, true: 1}[held]; out.Len() != want {
			t.Fatalf("held=%v: an idle gather left %d tuples, want %d", held, out.Len(), want)
		}
		g.set = newCodedSet(0)
		for i := 0; i < 3; i++ {
			if isNew := g.set.insert(value.CodeHashSeed, nil); isNew != (i == 0) {
				t.Fatalf("insert %d of the empty tuple reported new = %v", i, isNew)
			}
		}
		g.finish()
		if out.Len() != 1 || !out.Contains(table.Tuple{}) {
			t.Fatalf("held=%v: the relation holds %d tuples, want the empty tuple once", held, out.Len())
		}
	}
}

// TestCodedSetModel holds codedSet against a map of keys for the widths its
// probe treats differently — 0 (one possible tuple), 1 (the hash is the key:
// real hashes only) and 3 (verified against the stored codes, here with the
// hash cut to four bits so that every slot walk meets foreign tuples) —
// through every doubling up to 10⁵ tuples.
func TestCodedSetModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	for _, width := range []int{0, 1, 3} {
		for _, forced := range []bool{false, true} {
			if forced && width <= 1 {
				continue // a width-1 probe relies on the hash being the key's own
			}
			n := 100_000
			if forced {
				n = 2_000 // sixteen hashes for all: every walk is long
			}
			set := newCodedSet(width)
			model := map[string]int{}
			key := make([]uint64, width)
			hashOf := func() uint64 {
				h := value.CodeHashSeed
				for _, c := range key {
					h = value.HashCode(h, c)
				}
				if forced {
					h &= 0xF
				}
				return h
			}
			for i := 0; i < n; i++ {
				for j := range key {
					key[j] = uint64(rnd.Intn(n/4 + 1))
				}
				h := hashOf()
				id := fmt.Sprint(key)
				_, had := model[id]
				if set.contains(h, key) != had {
					t.Fatalf("width %d: contains(%v) = %v, model %v", width, key, !had, had)
				}
				if set.insert(h, key) == had {
					t.Fatalf("width %d: insert(%v) reported new = %v, model had it: %v", width, key, had, had)
				}
				if !had {
					model[id] = set.size() - 1
				}
				if set.size() != len(model) {
					t.Fatalf("width %d: size %d, model %d", width, set.size(), len(model))
				}
			}
			for id, r := range model {
				if got := fmt.Sprint(set.row(r)); got != id {
					t.Fatalf("width %d: row %d holds %s, model %s", width, r, got, id)
				}
			}
			for j := range key {
				key[j] = uint64(n) + 5 // no key of the model reaches it
			}
			if width > 0 && set.contains(hashOf(), key) {
				t.Fatalf("width %d: contains of a key never inserted", width)
			}
		}
	}
}
