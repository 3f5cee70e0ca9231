// Package incdata's root-level benchmarks: one Benchmark per reproduction
// experiment (E1–E12, see the "Experiments" section of README.md).  Each benchmark
// re-runs the corresponding experiment's workload at a representative
// parameter point; cmd/incbench prints the full sweeps as tables.
package incdata_test

import (
	"testing"

	"incdata/internal/certain"
	"incdata/internal/cq"
	"incdata/internal/ctable"
	"incdata/internal/exchange"
	"incdata/internal/experiments"
	"incdata/internal/order"
	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/sqlx"
	"incdata/internal/table"
	"incdata/internal/value"
	"incdata/internal/workload"
)

// planned is the planner-on evaluator the benchmarks evaluate through.
var planned = certain.NewEvaluator(true)

// ordersDB builds the E1/E2/E3 workload once per benchmark.
func ordersDB(b *testing.B, n int, nullRate float64) *table.Database {
	b.Helper()
	d, _ := workload.Orders(workload.OrdersConfig{Orders: n, PaidFraction: 0.7, NullRate: nullRate, Seed: 42})
	return d
}

func BenchmarkE1UnpaidOrders(b *testing.B) {
	d := ordersDB(b, 2000, 0.3)
	sqlQ := sqlx.Query{
		Select: []string{"o_id"},
		From:   "Order",
		Where:  sqlx.In{Term: sqlx.Col("o_id"), Sub: sqlx.Subquery{Select: "order", From: "Pay"}, Negate: true},
	}
	raQ := ra.Diff{
		Left:  ra.Rename{Input: ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}}, As: "O", Attrs: []string{"id"}},
		Right: ra.Rename{Input: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}}, As: "P", Attrs: []string{"id"}},
	}
	b.Run("sql-not-in", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sqlx.Eval(sqlQ, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-certain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := planned.Naive(raQ, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE2DifferenceAnomaly(b *testing.B) {
	d := workload.Pairs(workload.PairsConfig{RSize: 5000, SSize: 1, SNulls: 1, DomainSize: 50000, Seed: 7})
	sqlQ := sqlx.Query{
		Select: []string{"A"},
		From:   "R",
		Where:  sqlx.In{Term: sqlx.Col("A"), Sub: sqlx.Subquery{Select: "A", From: "S"}, Negate: true},
	}
	raQ := ra.Diff{Left: ra.Base("R"), Right: ra.Base("S")}
	b.Run("sql-not-in", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sqlx.Eval(sqlQ, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-diff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ra.Eval(raQ, d); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE3Tautology(b *testing.B) {
	d := ordersDB(b, 1000, 0.5)
	sqlQ := sqlx.Query{
		Select: []string{"p_id"},
		From:   "Pay",
		Where: sqlx.AnyOf(
			sqlx.Eq(sqlx.Col("order"), sqlx.ValString("oid1")),
			sqlx.Neq(sqlx.Col("order"), sqlx.ValString("oid1")),
		),
	}
	for i := 0; i < b.N; i++ {
		if _, err := sqlx.Eval(sqlQ, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4CTableStrong(b *testing.B) {
	rRel := table.NewRelation(schema.NewRelation("R", "A"))
	for i := 0; i < 12; i++ {
		rRel.MustAdd(table.NewTuple(value.Int(int64(i + 1))))
	}
	sRel := table.NewRelation(schema.NewRelation("S", "A"))
	sRel.MustAdd(table.NewTuple(value.Null(1)))
	dom := make([]value.Value, 0, 13)
	for i := 0; i < 13; i++ {
		dom = append(dom, value.Int(int64(i+1)))
	}
	for i := 0; i < b.N; i++ {
		diff, err := ctable.Diff(ctable.FromRelation(rRel), ctable.FromRelation(sRel))
		if err != nil {
			b.Fatal(err)
		}
		diff.Worlds(dom, func(*table.Relation) bool { return true })
	}
}

func BenchmarkE5NaiveUCQ(b *testing.B) {
	d := workload.Random(workload.RandomConfig{
		Relations: map[string]int{"R": 2, "S": 2}, TuplesPerRelation: 8,
		DomainSize: 5, Nulls: 3, NullRate: 0.3, Seed: 11,
	})
	q := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a", "c"},
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := planned.Naive(q, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("world-enumeration", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := planned.ByWorldsCWA(q, d, certain.Options{ExtraFresh: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE6Complexity(b *testing.B) {
	q := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a", "c"},
	}
	for _, nulls := range []int{1, 2, 3} {
		d := workload.Random(workload.RandomConfig{
			Relations: map[string]int{"R": 2, "S": 2}, TuplesPerRelation: 20,
			DomainSize: 10, Nulls: nulls, NullRate: 0.2, Seed: int64(nulls),
		})
		b.Run("naive/nulls="+itoa(nulls), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := planned.Naive(q, d); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("worlds/nulls="+itoa(nulls), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := planned.ByWorldsCWA(q, d, certain.Options{ExtraFresh: 1, Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(i int) string {
	return string(rune('0' + i))
}

func BenchmarkE7Duality(b *testing.B) {
	s := schema.MustNew(schema.WithArity("R", 2))
	d := workload.Random(workload.RandomConfig{
		Relations: map[string]int{"R": 2}, TuplesPerRelation: 12,
		DomainSize: 5, Nulls: 3, NullRate: 0.3, Seed: 17,
	})
	q := cq.Query{Body: []cq.Atom{
		cq.NewAtom("R", cq.V("x"), cq.V("y")),
		cq.NewAtom("R", cq.V("y"), cq.V("z")),
		cq.NewAtom("R", cq.V("z"), cq.V("w")),
	}}
	b.Run("naive-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := q.EvalBool(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("containment", func(b *testing.B) {
		qd := cq.FromDatabase(d)
		for i := 0; i < b.N; i++ {
			if _, err := cq.Contained(qd, q, s); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE8CertainO(b *testing.B) {
	s := schema.MustNew(schema.WithArity("R", 2))
	d := table.NewDatabase(s)
	d.MustAddRow("R", "1", "2")
	d.MustAddRow("R", "2", "⊥1")
	q := ra.Base("R")
	b.Run("intersection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := planned.ByWorldsCWA(q, d, certain.Options{ExtraFresh: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("certainO-glb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := planned.CertainObjectCWA(q, d, certain.Options{ExtraFresh: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE9DivisionCWA(b *testing.B) {
	d, _ := workload.Enroll(workload.EnrollConfig{Students: 2000, Courses: 4, EnrollRate: 0.85, NullRate: 0.02, Seed: 5})
	q := ra.Division{Left: ra.Base("Enroll"), Right: ra.Base("Course")}
	for i := 0; i < b.N; i++ {
		if _, err := planned.Naive(q, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10Exchange(b *testing.B) {
	src := table.NewDatabase(schema.MustNew(schema.NewRelation("Order", "o_id", "product")))
	for i := 0; i < 5000; i++ {
		src.MustAddRow("Order", "oid"+itoa5(i), "pr"+itoa5(i%97))
	}
	m := exchange.Mapping{
		Source: schema.MustNew(schema.NewRelation("Order", "o_id", "product")),
		Target: schema.MustNew(schema.NewRelation("Cust", "cust"), schema.NewRelation("Pref", "cust", "product")),
		Dependencies: []exchange.Dependency{{
			Name:        "order-to-cust",
			Body:        []cq.Atom{cq.NewAtom("Order", cq.V("i"), cq.V("p"))},
			Head:        []cq.Atom{cq.NewAtom("Cust", cq.V("x")), cq.NewAtom("Pref", cq.V("x"), cq.V("p"))},
			Existential: []string{"x"},
		}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Chase(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11Theorem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E11Theorem(5)
	}
}

func BenchmarkE12Orderings(b *testing.B) {
	a := workload.Random(workload.RandomConfig{Relations: map[string]int{"R": 2}, TuplesPerRelation: 8, DomainSize: 4, Nulls: 3, NullRate: 0.3, Seed: 1})
	c := workload.Random(workload.RandomConfig{Relations: map[string]int{"R": 2}, TuplesPerRelation: 8, DomainSize: 4, Nulls: 3, NullRate: 0.1, Seed: 2})
	b.Run("leq-owa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order.LeqOWA(a, c)
		}
	})
	b.Run("leq-cwa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			order.LeqCWA(a, c)
		}
	})
	b.Run("glb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := order.GLBOWA([]*table.Database{a, c}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- small helpers kept out of the library ---

func itoa5(i int) string {
	digits := "0123456789"
	if i == 0 {
		return "0"
	}
	var out []byte
	for i > 0 {
		out = append([]byte{digits[i%10]}, out...)
		i /= 10
	}
	return string(out)
}
