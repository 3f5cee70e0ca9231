package plan

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/semantics"
	"incdata/internal/table"
	"incdata/internal/valuation"
	"incdata/internal/value"
)

// checkWorlds asserts that for every valuation over the enumeration
// domain, the factored evaluation (Stable ∪ Delta for splittable plans,
// Answer for all plans) is bit-identical to evaluating the query on the
// materialized world with the oracle.
func checkWorlds(t *testing.T, q ra.Expr, d *table.Database, label string) {
	t.Helper()
	checkWorldsOver(t, q, d, semantics.DomainOf(d, 2).Values(), label)
}

// checkWorldsOver is checkWorlds over an explicit constant domain.  One
// session serves every world, Answer and Delta taking turns on it, and the
// result contract of Delta is checked on the way: a Clone() of a world's
// delta, and the tuples taken from it, must read the same after the
// session has moved on to the next world (checked on the first
// contractWorlds worlds).
func checkWorldsOver(t *testing.T, q ra.Expr, d *table.Database, dom []value.Value, label string) {
	t.Helper()
	wp, err := ForWorlds(q, d)
	if err != nil {
		// The oracle must reject the query too (on any world).
		v := valuation.New()
		if _, oerr := ra.Eval(q, v.ApplyDatabase(d)); oerr == nil {
			t.Fatalf("%s: ForWorlds failed (%v) but oracle evaluates %s", label, err, q)
		}
		return
	}
	sess := wp.NewSession()
	var kept *table.Relation // a clone of the previous world's delta,
	var keptTuples []table.Tuple
	var keptText string // and what it and its tuples read then
	worlds := 0
	valuation.Enumerate(d.SortedNulls(), dom, func(v valuation.Valuation) bool {
		worlds++
		world := v.ApplyDatabase(d)
		want, err := ra.Eval(q, world)
		if err != nil {
			t.Fatalf("%s: oracle failed on world %s: %v", label, v, err)
		}
		got, err := sess.Answer(v)
		if err != nil {
			t.Fatalf("%s: Answer failed on world %s: %v", label, v, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: Answer differs on world %s for %s\ngot:  %s\nwant: %s",
				label, v, q, got, want)
		}
		if wp.Splittable() {
			stable, err := wp.Stable()
			if err != nil {
				t.Fatalf("%s: Stable failed: %v", label, err)
			}
			delta, err := sess.Delta(v)
			if err != nil {
				t.Fatalf("%s: Delta failed on world %s: %v", label, v, err)
			}
			if kept != nil && (tuplesText(kept.SortedTuples()) != keptText || tuplesText(keptTuples) != keptText) {
				t.Fatalf("%s: the delta kept from the world before %s changed under the next Delta:\nclone:  %s\ntuples: %s\nwas:    %s",
					label, v, kept, tuplesText(keptTuples), keptText)
			}
			if kept = nil; worlds <= contractWorlds {
				kept, keptTuples = delta.Clone(), delta.SortedTuples()
				keptText = tuplesText(keptTuples)
			}
			merged := table.NewRelation(stable.Schema())
			if err := merged.AddAll(stable); err != nil {
				t.Fatal(err)
			}
			if err := merged.AddAll(delta); err != nil {
				t.Fatal(err)
			}
			if !merged.Equal(want) {
				t.Fatalf("%s: Stable∪Delta differs on world %s for %s\nstable: %s\ndelta:  %s\nwant:   %s",
					label, v, q, stable, delta, want)
			}
			// The stable part must be a subset of every world's answer.
			stable.Each(func(tp table.Tuple) bool {
				if !want.Contains(tp) {
					t.Fatalf("%s: stable tuple %s not in world %s answer for %s", label, tp, v, q)
				}
				return true
			})
		}
		return true
	})
	if worlds == 0 {
		t.Fatalf("%s: no worlds enumerated", label)
	}
}

// contractWorlds is how many worlds of a checkWorlds call hold Delta to its
// result contract: the first few of every query, not all of the fuzz corpus.
const contractWorlds = 12

// tuplesText renders tuples one after the other.
func tuplesText(ts []table.Tuple) string {
	var b strings.Builder
	for _, t := range ts {
		b.WriteString(t.String())
	}
	return b.String()
}

// collapseDB is a database over the fuzz schema built to make valuations
// collapse tuples: string and integer constants side by side; in every
// relation null tuples that some valuation maps onto a complete tuple of
// the relation ((x, ⊥1) beside (x, k)) and onto each other ((x, ⊥1) beside
// (x, ⊥2), (⊥1, ⊥2) beside (⊥2, ⊥1)); and few distinct values per column,
// so that projections under a join are mostly duplicates.
func collapseDB(seed int64) *table.Database {
	rnd := rand.New(rand.NewSource(seed))
	consts := []value.Value{value.Int(0), value.Int(1), value.String("p"), value.String("q r")}
	c := func() value.Value { return consts[rnd.Intn(len(consts))] }
	null := func() value.Value { return value.Null(uint64(rnd.Intn(2) + 1)) }
	d := table.NewDatabase(fuzzSchema())
	for _, name := range []string{"R", "S", "T"} {
		x := c()
		d.MustAdd(name, table.NewTuple(x, c()))
		d.MustAdd(name, table.NewTuple(x, value.Null(1)))
		d.MustAdd(name, table.NewTuple(x, value.Null(2)))
		d.MustAdd(name, table.NewTuple(value.Null(1), value.Null(2)))
		d.MustAdd(name, table.NewTuple(value.Null(2), value.Null(1)))
		for i := 0; i < 3; i++ {
			d.MustAdd(name, table.NewTuple(c(), c()))
			d.MustAdd(name, table.NewTuple(null(), c()))
		}
	}
	return d
}

// TestWorldPlanMatchesOracleFuzz fuzzes the factored world evaluation
// against per-world oracle evaluation, on random databases and on ones
// built to collapse.
func TestWorldPlanMatchesOracleFuzz(t *testing.T) {
	trials := 150
	if testing.Short() {
		trials = 30
	}
	s := fuzzSchema()
	for i := 0; i < trials; i++ {
		g := &exprGen{rnd: rand.New(rand.NewSource(int64(1000 + i))), s: s}
		q := g.expr(3)
		checkWorlds(t, q, fuzzDB(int64(i%5)+3), "world-fuzz")
		if i%3 == 0 {
			checkWorlds(t, q, collapseDB(int64(i)), "world-fuzz-collapse")
		}
	}
}

// TestWorldPlanSplitExamples pins the splittability classification and the
// factored evaluation on the experiment queries.
func TestWorldPlanSplitExamples(t *testing.T) {
	d := fuzzDB(1)
	ucq := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a", "c"},
	}
	wp, err := ForWorlds(ucq, d)
	if err != nil {
		t.Fatal(err)
	}
	if !wp.Splittable() {
		t.Fatalf("UCQ plan should be splittable")
	}
	checkWorlds(t, ucq, d, "ucq")

	diff := ra.Diff{Left: ra.Base("R"), Right: ra.Base("T")}
	checkWorlds(t, diff, d, "diff")

	delta := ra.Delta{Attr1: "d1", Attr2: "d2"}
	checkWorlds(t, delta, d, "delta")

	inter := ra.Intersect{Left: ra.Base("R"), Right: ra.Base("T")}
	checkWorlds(t, inter, d, "intersect")
}

// TestWorldDeltaOperators covers every operator that has a per-world delta
// by name: a query whose factored plan has that operator at the root, with
// a world-dependent input, against ra.Eval in every world of databases
// built to collapse — and the same operator under a projection that
// multiplies duplicates and a join that would multiply them further.
func TestWorldDeltaOperators(t *testing.T) {
	r, s, tt := ra.Base("R"), ra.Base("S"), ra.Base("T")
	sAs := func(as string, attrs ...string) ra.Expr { return ra.Rename{Input: s, As: as, Attrs: attrs} }
	for _, c := range []struct {
		name string
		kind wkind
		q    ra.Expr
	}{
		{"rel", wRel, r},
		{"σ", wSelect, ra.Select{Input: r, Pred: ra.Neq(ra.Attr("a"), ra.Attr("b"))}},
		{"σ string", wSelect, ra.Select{Input: r, Pred: ra.Eq(ra.Attr("b"), ra.LitString("q r"))}},
		{"π", wProject, ra.Project{Input: r, Attrs: []string{"b"}}},
		{"ρ", wRename, ra.Rename{Input: r, As: "X", Attrs: []string{"u", "v"}}},
		{"×", wProduct, ra.Product{Left: ra.Project{Input: r, Attrs: []string{"a"}}, Right: sAs("S2", "u", "v")}},
		{"⋈", wJoin, ra.Join{Left: r, Right: s}},
		{"⋈ of σ×", wJoin, ra.Select{Input: ra.Product{Left: r, Right: sAs("S2", "u", "v")}, Pred: ra.Eq(ra.Attr("b"), ra.Attr("u"))}},
		{"⋈ two keys", wJoin, ra.Join{Left: r, Right: tt}},
		{"∪", wUnion, ra.Union{Left: r, Right: tt}},
		{"∩", wIntersect, ra.Intersect{Left: r, Right: tt}},
		{"− invariant right", wDiff, ra.Diff{Left: r, Right: ra.Select{Input: tt, Pred: ra.Eq(ra.Attr("a"), ra.LitInt(7))}}},
		{"Δ", wDelta, ra.Delta{Attr1: "d1", Attr2: "d2"}},
		{"empty", wEmpty, ra.Select{Input: r, Pred: ra.False{}}},
		{"π dups under ⋈", wJoin, ra.Join{Left: ra.Project{Input: r, Attrs: []string{"b"}}, Right: ra.Project{Input: s, Attrs: []string{"b"}}}},
		{"∪ of π under ⋈", wJoin, ra.Join{
			Left:  ra.Union{Left: ra.Project{Input: r, Attrs: []string{"b"}}, Right: ra.Project{Input: tt, Attrs: []string{"b"}}},
			Right: s,
		}},
	} {
		for seed := int64(0); seed < 4; seed++ {
			d := collapseDB(seed)
			if c.kind == wDiff {
				// Make the right side the same in every world: no nulls in T.
				d = v0(d, "T")
			}
			wp, err := ForWorlds(c.q, d)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if wp.root.kind != c.kind || !wp.root.splittable || (wp.root.invariant != (c.kind == wEmpty)) {
				t.Fatalf("%s: the plan's root is operator %d (splittable %v, invariant %v), want %d with a delta",
					c.name, wp.root.kind, wp.root.splittable, wp.root.invariant, c.kind)
			}
			checkWorlds(t, c.q, d, c.name)
		}
	}
}

// v0 returns d with every null of the named relation replaced by 0.
func v0(d *table.Database, name string) *table.Database {
	zero := func(v value.Value) value.Value {
		if v.IsNull() {
			return value.Int(0)
		}
		return v
	}
	out := table.NewDatabase(d.Schema())
	for _, n := range d.RelationNames() {
		rel := d.Relation(n)
		if n == name {
			rel = rel.Map(zero)
		}
		rel.Each(func(t table.Tuple) bool {
			out.MustAdd(n, t)
			return true
		})
	}
	return out
}

// TestWorldDeltaManyNullTuples drives a node's buffer and dedup table
// through several doublings: 700 null tuples in one relation, which a
// projection then collapses to a handful of rows under a join.
func TestWorldDeltaManyNullTuples(t *testing.T) {
	d := table.NewDatabase(schema.MustNew(schema.NewRelation("R", "a", "b"), schema.NewRelation("S", "b", "c")))
	for i := 0; i < 700; i++ {
		d.MustAdd("R", table.NewTuple(value.Int(int64(i%350)), value.Null(uint64(1+i%2))))
	}
	d.MustAdd("R", table.NewTuple(value.Int(3), value.Int(1)))
	d.MustAdd("S", table.NewTuple(value.Int(1), value.String("x")))
	d.MustAdd("S", table.NewTuple(value.Null(2), value.String("y")))
	dom := []value.Value{value.Int(1), value.Int(2), value.String("x")}
	for name, q := range map[string]ra.Expr{
		"rel":        ra.Base("R"),
		"join":       ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
		"π under ⋈":  ra.Join{Left: ra.Project{Input: ra.Base("R"), Attrs: []string{"b"}}, Right: ra.Base("S")},
		"π over ⋈":   ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"c"}},
		"self-union": ra.Union{Left: ra.Base("R"), Right: ra.Rename{Input: ra.Base("R"), As: "R2", Attrs: []string{"a", "b"}}},
	} {
		checkWorldsOver(t, q, d, dom, name)
	}
}

// TestPooledSessionReuse runs a plan's pooled sessions the way the sweeps
// do — acquired, used for Delta and Answer in any order, released, and
// acquired again by the next caller — and requires every call to give what
// a fresh session gives.  A released session must not hold on to the
// caller's valuation: the caller goes on mutating it.
func TestPooledSessionReuse(t *testing.T) {
	d := collapseDB(2)
	q := ra.Union{
		Left:  ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a"}},
		Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
	}
	wp, err := ForWorlds(q, d)
	if err != nil {
		t.Fatal(err)
	}
	var vals []valuation.Valuation
	valuation.Enumerate(wp.SortedNulls(), semantics.DomainOf(d, 1).Values(), func(v valuation.Valuation) bool {
		vals = append(vals, v.Clone())
		return true
	})
	rnd := rand.New(rand.NewSource(1))
	sess := wp.AcquireSession()
	for i := 0; i < 400; i++ {
		v := vals[rnd.Intn(len(vals))].Clone()
		fresh := wp.NewSession()
		var got, want *table.Relation
		var err1, err2 error
		if rnd.Intn(2) == 0 {
			got, err1 = sess.Delta(v)
			want, err2 = fresh.Delta(v)
		} else {
			got, err1 = sess.Answer(v)
			want, err2 = fresh.Answer(v)
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !got.Equal(want) {
			t.Fatalf("call %d on a reused session: %s, a fresh session gives %s", i, got, want)
		}
		if rnd.Intn(4) == 0 {
			wp.ReleaseSession(sess)
			clear(v) // the caller's map is the caller's again
			if rnd.Intn(2) == 0 {
				runtime.GC() // empties the pool: the next session is a new one
			}
			sess = wp.AcquireSession()
		}
	}
}

// TestWorldDeltaAllocs pins what a world costs in steady state: nothing
// below the root, and for the relation Delta returns one block for its
// tuples.  The relation, reset per world, keeps its slots and rows and
// stores no key.
func TestWorldDeltaAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	d := collapseDB(5)
	q := ra.Union{
		Left:  ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a"}},
		Right: ra.Project{Input: ra.Base("T"), Attrs: []string{"a"}},
	}
	wp, err := ForWorlds(q, d)
	if err != nil {
		t.Fatal(err)
	}
	var vals []valuation.Valuation
	valuation.Enumerate(wp.SortedNulls(), semantics.DomainOf(d, 1).Values(), func(v valuation.Valuation) bool {
		vals = append(vals, v.Clone())
		return true
	})
	sess := wp.NewSession()
	i, rows := 0, 0
	world := func() {
		delta, err := sess.Delta(vals[i%len(vals)])
		if err != nil {
			t.Fatal(err)
		}
		rows += delta.Len()
		i++
	}
	for range vals {
		world() // every buffer has seen its largest world
	}
	rows = 0
	const runs = 200
	allocs := testing.AllocsPerRun(runs, world)
	perWorld := float64(rows) / (runs + 1) // AllocsPerRun makes one warm-up call
	t.Logf("%.1f allocations per world for %.1f root tuples", allocs, perWorld)
	if perWorld < 2 || allocs > 1 {
		t.Errorf("a world takes %.1f allocations for %.1f root tuples, want at most one", allocs, perWorld)
	}
}

// TestRowsSetModel checks a node buffer against a map: rows of every small
// arity (zero included) over integers, strings and nulls, added with many
// repeats through several doublings of the table, across resets that keep
// the allocations.
func TestRowsSetModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	val := func() value.Value {
		switch k := int64(rnd.Intn(40)); rnd.Intn(3) {
		case 0:
			return value.Int(k)
		case 1:
			return value.String(string(rune('a' + k)))
		default:
			return value.Null(uint64(k))
		}
	}
	var b rows
	for round := 0; round < 60; round++ {
		arity := round % 4
		b.reset(arity)
		model := map[string]bool{}
		for i := rnd.Intn(1500); i > 0; i-- {
			tp := make(table.Tuple, arity)
			for j := range tp {
				tp[j] = val()
			}
			if b.has(tp) != model[tp.Key()] {
				t.Fatalf("round %d: has(%s) = %v, the model says %v", round, tp, b.has(tp), model[tp.Key()])
			}
			if rnd.Intn(2) == 0 {
				b.add(tp)
			} else {
				b.concat(tp[:arity/2], tp, allPositions(arity)[arity/2:])
			}
			model[tp.Key()] = true
		}
		if b.n != len(model) {
			t.Fatalf("round %d: %d rows, the model holds %d", round, b.n, len(model))
		}
		for i := 0; i < b.n; i++ {
			if !model[b.row(i).Key()] {
				t.Fatalf("round %d: row %s was never added", round, b.row(i))
			}
			delete(model, b.row(i).Key()) // a second copy of the row would not find it
		}
	}
}
