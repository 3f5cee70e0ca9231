package queryparse

import (
	"testing"

	"incdata/internal/plan"
	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
)

func exampleSchema() *schema.Schema {
	return schema.MustNew(
		schema.NewRelation("Order", "o_id", "product"),
		schema.NewRelation("Paid", "o_id"),
	)
}

func exampleDB(t *testing.T) *table.Database {
	t.Helper()
	d := table.NewDatabase(exampleSchema())
	d.MustAddRow("Order", "oid1", "pr1")
	d.MustAddRow("Order", "oid2", "pr2")
	d.MustAddRow("Paid", "oid1")
	return d
}

// parseCases are well-formed queries and their canonical ra String
// renderings.
var parseCases = []struct {
	in   string
	want string
}{
	{"Order", "Order"},
	{"project(Order; o_id)", "π[o_id](Order)"},
	{"project(Order ; o_id , product)", "π[o_id,product](Order)"},
	{"select(Order; product = 'pr1')", "σ[product=pr1](Order)"},
	{"select(Order; o_id != 'x' & product = 'pr1')", "σ[(o_id≠x ∧ product=pr1)](Order)"},
	{"select(Order; product = 'pr1' | product = 'pr2')", "σ[(product=pr1 ∨ product=pr2)](Order)"},
	{"select(Order; o_id < 10)", "σ[o_id<10](Order)"},
	{"select(Order; o_id >= -3)", "σ[o_id≥-3](Order)"},
	{"select(Order; o_id <= 3)", "σ[o_id≤3](Order)"},
	{"select(Order; o_id > 3)", "σ[o_id>3](Order)"},
	{"rename(Order; O2)", "ρ[O2](Order)"},
	{"rename(Order; O2; a, b)", "ρ[O2(a,b)](Order)"},
	{"join(Order, Paid)", "(Order ⋈ Paid)"},
	{"product(Order, rename(Paid; P2; pid))", "(Order × ρ[P2(pid)](Paid))"},
	{"union(Paid, Paid)", "(Paid ∪ Paid)"},
	{"diff(project(Order; o_id), Paid)", "(π[o_id](Order) − Paid)"},
	{"intersect(Paid, Paid)", "(Paid ∩ Paid)"},
	{"divide(Order, rename(Paid; P; product))", "(Order ÷ ρ[P(product)](Paid))"},
}

// badQueries are malformed queries Parse must refuse.
var badQueries = []string{
	"",
	"project(Order)",
	"project(Order; )",
	"project(Order; a b)",
	"select(Order)",
	"select(Order; product)",
	"select(Order; product = )",
	"select(Order; product = 'x' & o_id = 1 | a = 2)",
	"select(Order; product = 'unterminated)",
	"rename(Order)",
	"rename(Order; )",
	"join(Order)",
	"join(Order, )",
	"join(Order, Paid",
	"frobnicate(Order, Paid)",
	"Order extra",
	"union(Order Paid)",
	"select(Order; o_id = 99999999999999999999)",
}

func TestParseBaseAndOperators(t *testing.T) {
	for _, c := range parseCases {
		e, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if e.String() != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.in, e.String(), c.want)
		}
	}
}

func TestParsedQueriesEvaluate(t *testing.T) {
	d := exampleDB(t)
	// Unpaid orders, written in the query language.
	q, err := Parse("diff(project(Order; o_id), Paid)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ra.Eval(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Contains(table.MustParseTuple("oid2")) {
		t.Errorf("unpaid orders = %v", res)
	}
	q2, err := Parse("project(select(Order; product = 'pr1'); o_id)")
	if err != nil {
		t.Fatal(err)
	}
	res2, _ := ra.Eval(q2, d)
	if res2.Len() != 1 || !res2.Contains(table.MustParseTuple("oid1")) {
		t.Errorf("selection result = %v", res2)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range badQueries {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}

func TestParsedFragmentsClassify(t *testing.T) {
	pos, err := Parse("project(join(Order, Paid); o_id)")
	if err != nil {
		t.Fatal(err)
	}
	if !ra.IsPositive(pos) {
		t.Error("parsed SPJ query should be positive")
	}
	div, err := Parse("divide(Order, rename(Paid; P; product))")
	if err != nil {
		t.Fatal(err)
	}
	if ra.IsPositive(div) || !ra.IsRAcwa(div) {
		t.Error("parsed division should classify as RAcwa")
	}
	diff, err := Parse("diff(Paid, Paid)")
	if err != nil {
		t.Fatal(err)
	}
	if ra.IsRAcwa(diff) {
		t.Error("parsed difference should be full RA")
	}
}

// FuzzQueryParse: Parse never panics, and a query it accepts either
// compiles against the example schema or is refused with an error, so no
// query text reaches the planner in a shape it panics on.
func FuzzQueryParse(f *testing.F) {
	for _, c := range parseCases {
		f.Add(c.in)
	}
	for _, in := range badQueries {
		f.Add(in)
	}
	f.Add("project(select(diff(project(Order; o_id), Paid); o_id = 'oid1'); o_id)")
	sc := exampleSchema()
	f.Fuzz(func(t *testing.T, in string) {
		e, err := Parse(in)
		if err != nil {
			return
		}
		if e == nil {
			t.Fatalf("Parse(%q) accepted the text but returned no expression", in)
		}
		if p, err := plan.Compile(e, sc); err == nil && p == nil {
			t.Fatalf("Compile(%s) returned neither a plan nor an error", e)
		}
	})
}
