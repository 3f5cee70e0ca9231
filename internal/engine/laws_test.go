package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/table"
	"incdata/internal/value"
)

// positiveGen draws random positive relational algebra over the test
// schema: selections with equalities between attributes and constants under
// ∧ and ∨, projections, renamings, products, natural joins, unions and
// intersections — the fragment for which the paper proves naïve evaluation
// exact (§6).
type positiveGen struct {
	rnd  *rand.Rand
	seq  int
	cons []value.Value
}

func (g *positiveGen) attr() string { g.seq++; return fmt.Sprint("x", g.seq) }

// expr returns an expression and its output attributes.
func (g *positiveGen) expr(depth int) (ra.Expr, []string) {
	if depth == 0 {
		switch g.rnd.Intn(3) {
		case 0:
			return ra.Base("R"), []string{"a", "b"}
		case 1:
			return ra.Base("S"), []string{"b", "c"}
		default:
			return ra.Base("T"), []string{"a", "b"}
		}
	}
	in, attrs := g.expr(depth - 1)
	switch g.rnd.Intn(7) {
	case 0:
		return ra.Select{Input: in, Pred: g.pred(attrs, 2)}, attrs
	case 1:
		var keep []string
		for _, a := range attrs {
			if g.rnd.Intn(3) > 0 {
				keep = append(keep, a)
			}
		}
		if len(keep) == 0 {
			keep = attrs[:1]
		}
		return ra.Project{Input: in, Attrs: keep}, keep
	case 2:
		return g.renamed(in, attrs)
	case 3:
		r, rattrs := g.renamed(g.expr(min(depth-1, 1))) // products of products make a world cost milliseconds
		return ra.Product{Left: in, Right: r}, append(append([]string(nil), attrs...), rattrs...)
	case 4:
		r, rattrs := g.expr(depth - 1)
		out := append([]string(nil), attrs...)
		for _, a := range rattrs {
			shared := false
			for _, b := range attrs {
				shared = shared || a == b
			}
			if !shared {
				out = append(out, a)
			}
		}
		return ra.Join{Left: in, Right: r}, out
	default:
		// ∪ and ∩ of two expressions cut to one arity by projection.
		r, rattrs := g.expr(depth - 1)
		n := min(len(attrs), len(rattrs))
		l := ra.Expr(ra.Project{Input: in, Attrs: attrs[:n]})
		r = ra.Project{Input: r, Attrs: rattrs[:n]}
		if g.rnd.Intn(3) == 0 {
			return ra.Intersect{Left: l, Right: r}, attrs[:n]
		}
		return ra.Union{Left: l, Right: r}, attrs[:n]
	}
}

func (g *positiveGen) renamed(in ra.Expr, attrs []string) (ra.Expr, []string) {
	fresh := make([]string, len(attrs))
	for i := range fresh {
		fresh[i] = g.attr()
	}
	return ra.Rename{Input: in, As: g.attr(), Attrs: fresh}, fresh
}

func (g *positiveGen) pred(attrs []string, depth int) ra.Predicate {
	if depth > 0 && g.rnd.Intn(3) == 0 {
		l, r := g.pred(attrs, depth-1), g.pred(attrs, depth-1)
		if g.rnd.Intn(2) == 0 {
			return ra.AllOf(l, r)
		}
		return ra.AnyOf(l, r)
	}
	a := ra.Attr(attrs[g.rnd.Intn(len(attrs))])
	if g.rnd.Intn(3) == 0 {
		return ra.Eq(a, ra.Attr(attrs[g.rnd.Intn(len(attrs))]))
	}
	return ra.Eq(a, ra.Lit(g.cons[g.rnd.Intn(len(g.cons))]))
}

// TestPositiveQueryLaws holds the whole stack to the paper's laws for
// positive queries, through Engine.Eval at every worker count: the
// intersection over all worlds (equation (1), ModeCertainCWA — the planned
// sweep, serial and pooled) equals naïve evaluation with the null tuples
// dropped (equation (4), ModeCertain), which is contained in the naïve
// answer (ModeNaive).  The sweeps get as many fresh constants as the
// database has nulls, which is what makes a finite enumeration exact.
func TestPositiveQueryLaws(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	cons := []value.Value{value.Int(0), value.Int(1), value.String("p"), value.String("q")}
	var worlds, nonempty uint64
	for i := 0; i < trials; i++ {
		rnd := rand.New(rand.NewSource(int64(i)))
		d := table.NewDatabase(testSchema())
		for _, name := range []string{"R", "S", "T"} {
			for k := 0; k < 5; k++ {
				tp := make(table.Tuple, 2)
				for j := range tp {
					if rnd.Intn(4) == 0 {
						tp[j] = value.Null(uint64(rnd.Intn(3) + 1))
					} else {
						tp[j] = cons[rnd.Intn(len(cons))]
					}
				}
				d.MustAdd(name, tp)
			}
			if i%2 == 0 {
				// A constant no other tuple has beside a null: whatever keeps
				// the first column keeps a tuple in every world's delta, and
				// the sweep cannot stop before its last world.
				d.MustAdd(name, table.NewTuple(value.String("only-"+name), value.Null(uint64(rnd.Intn(3)+1))))
			}
		}
		g := &positiveGen{rnd: rnd, cons: cons}
		q, _ := g.expr(1 + rnd.Intn(3))
		eng := New(d)
		for _, workers := range []int{1, 2, 4} {
			cwa, err := eng.Eval(q, Options{Mode: ModeCertainCWA, Workers: workers, ExtraFresh: len(d.Nulls())})
			if err != nil {
				t.Fatalf("trial %d: %s: %v", i, q, err)
			}
			certain, err := eng.Eval(q, Options{Mode: ModeCertain, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			naive, err := eng.Eval(q, Options{Mode: ModeNaive, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !cwa.Equal(certain) {
				t.Fatalf("trial %d workers=%d: eq. (1) ≠ eq. (4) on %s over %s\nworlds: %s\nnaïve:  %s", i, workers, q, d, cwa, certain)
			}
			certain.Each(func(tp table.Tuple) bool {
				if !naive.Contains(tp) || !tp.IsComplete() {
					t.Fatalf("trial %d workers=%d: certain tuple %s of %s is not a complete naïve answer", i, workers, tp, q)
				}
				return true
			})
			if certain.Len() > 0 {
				nonempty++
			}
		}
		worlds += eng.Stats().Planned.WorldsEvaluated
	}
	// The generator must not drift into trivia: most trials have a certain
	// answer to find, and their sweeps run into the thousands of worlds.
	t.Logf("%d trials: %d worlds evaluated, %d of %d evaluations with a nonempty certain answer", trials, worlds, nonempty, 3*trials)
	if worlds < 100*uint64(trials) || nonempty < uint64(trials) {
		t.Errorf("the random queries have become trivial: %d worlds, %d nonempty answers over %d trials", worlds, nonempty, trials)
	}
}
