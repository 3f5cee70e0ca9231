package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, r Result, row int, col string) string {
	t.Helper()
	for i, h := range r.Header {
		if h == col {
			return r.Rows[row][i]
		}
	}
	t.Fatalf("%s: no column %q", r.ID, col)
	return ""
}

func atoiCell(t *testing.T, r Result, row int, col string) int {
	t.Helper()
	n, err := strconv.Atoi(cell(t, r, row, col))
	if err != nil {
		t.Fatalf("%s: column %q row %d is not an int: %v", r.ID, col, row, err)
	}
	return n
}

func TestE1ShapeMatchesPaper(t *testing.T) {
	r := E1UnpaidOrders([]int{200}, []float64{0, 0.4})
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// With no nulls SQL NOT IN finds every truly unpaid order.
	if atoiCell(t, r, 0, "sqlNotIn") != atoiCell(t, r, 0, "trulyUnpaid") {
		t.Error("without nulls SQL should match the ground truth")
	}
	if atoiCell(t, r, 0, "notInFalseNeg") != 0 {
		t.Error("without nulls there are no false negatives")
	}
	// With nulls SQL NOT IN collapses to zero and misses every unpaid order.
	if atoiCell(t, r, 1, "sqlNotIn") != 0 {
		t.Error("with nulls SQL NOT IN must return the empty answer")
	}
	if atoiCell(t, r, 1, "notInFalseNeg") != atoiCell(t, r, 1, "trulyUnpaid") {
		t.Error("false negatives should equal the number of truly unpaid orders")
	}
	// NOT EXISTS over-approximates: at least as many as the ground truth.
	if atoiCell(t, r, 1, "sqlNotExists") < atoiCell(t, r, 1, "trulyUnpaid") {
		t.Error("NOT EXISTS should be a sound over-approximation of unpaid orders")
	}
	if !strings.Contains(r.String(), "E1") {
		t.Error("String should include the experiment id")
	}
}

func TestE2Shape(t *testing.T) {
	r := E2Difference([]int{10, 100})
	for i := range r.Rows {
		if atoiCell(t, r, i, "sqlAnswer") != 0 {
			t.Error("SQL answer must be empty whenever S contains a null")
		}
		if cell(t, r, i, "certainNonempty") != "true" {
			t.Error("|R| > |S| forces nonemptiness")
		}
	}
}

func TestE3Shape(t *testing.T) {
	r := E3Tautology()
	if cell(t, r, 0, "contains pid1") != "false" || cell(t, r, 1, "contains pid1") != "true" {
		t.Errorf("tautology experiment wrong: %v", r.Rows)
	}
}

func TestE4Shape(t *testing.T) {
	r := E4CTables([]int{2, 4})
	for i := range r.Rows {
		if cell(t, r, i, "matchesDirect") != "true" {
			t.Error("c-table worlds must match direct evaluation")
		}
		// |R| values + 1 fresh constant, but worlds dedupe to |R|+1 possibilities.
		if atoiCell(t, r, i, "worlds") < 2 {
			t.Error("expected multiple worlds")
		}
	}
}

func TestE5Shape(t *testing.T) {
	r := E5NaiveUCQ(5, []int{1, 2})
	for i := range r.Rows {
		if atoiCell(t, r, i, "ucqDisagree") != 0 {
			t.Error("naïve evaluation must agree with certain answers for UCQs")
		}
	}
}

func TestE7Shape(t *testing.T) {
	r := E7Duality([]int{2, 3}, 3)
	for i := range r.Rows {
		if cell(t, r, i, "allAgree") != "true" {
			t.Error("the three routes to CQ certain answers must agree")
		}
	}
}

func TestE8Shape(t *testing.T) {
	r := E8CertainO()
	if cell(t, r, 0, "⪯cwa lower bound") != "false" {
		t.Error("intersection must not be a ⪯cwa lower bound (the paper's point)")
	}
	if cell(t, r, 1, "≡ naïve answer") != "true" {
		t.Error("certainO must be hom-equivalent to the naïve answer")
	}
	if cell(t, r, 0, "⪯owa lower bound") != "true" || cell(t, r, 1, "⪯owa lower bound") != "true" {
		t.Error("both objects are ⪯owa lower bounds")
	}
}

func TestE9Shape(t *testing.T) {
	r := E9Division([]int{30}, []float64{0, 0.05})
	for i := range r.Rows {
		if got := cell(t, r, i, "agreesWithWorlds"); got != "true" && got != "skipped" {
			t.Errorf("division naïve evaluation must agree with world enumeration, got %q", got)
		}
	}
}

func TestE10Shape(t *testing.T) {
	r := E10Exchange([]int{50})
	if atoiCell(t, r, 0, "targetTuples") != 100 {
		t.Errorf("chase of 50 orders should create 100 target tuples, got %s", cell(t, r, 0, "targetTuples"))
	}
	if atoiCell(t, r, 0, "inventedNulls") != 50 {
		t.Error("one invented null per order expected")
	}
	if atoiCell(t, r, 0, "certainPrefs") == 0 {
		t.Error("product preferences are certain")
	}
}

func TestE11Shape(t *testing.T) {
	r := E11Theorem(10)
	if atoiCell(t, r, 0, "certainO = Q(D)") != atoiCell(t, r, 0, "instances") {
		t.Error("the theorem must hold on every instance for the monotone query")
	}
}

func TestE12AndE6Smoke(t *testing.T) {
	r := E12Orderings([]int{3}, 3)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	r6 := E6Complexity([]int{10}, []int{1, 2})
	if len(r6.Rows) != 2 {
		t.Fatalf("E6 rows = %d", len(r6.Rows))
	}
	if !strings.Contains(r6.String(), "naiveTime") {
		t.Error("E6 table should include naiveTime column")
	}
}

func TestConfigsAndAll(t *testing.T) {
	q := QuickConfig()
	f := FullConfig()
	if q.E11Instances >= f.E11Instances || len(q.E1Sizes) > len(f.E1Sizes) {
		t.Error("FullConfig should be at least as large as QuickConfig")
	}
	// Smoke-run All with a tiny config to exercise the registry end to end.
	tiny := Config{
		E1Sizes: []int{50}, E1NullRates: []float64{0.3},
		E2Sizes: []int{10}, E4Sizes: []int{2},
		E5Trials: 2, E5NullCounts: []int{1},
		E6DBSizes: []int{5}, E6NullCounts: []int{1},
		E7AtomCounts: []int{2}, E7Trials: 2,
		E9Students: []int{10}, E9NullRates: []float64{0},
		E10Orders: []int{10}, E11Instances: 3,
		E12Sizes: []int{3}, E12Pairs: 2,
	}
	results := All(tiny)
	if len(results) != 12 {
		t.Fatalf("All should run 12 experiments, got %d", len(results))
	}
	ids := map[string]bool{}
	for _, r := range results {
		if r.ID == "" || len(r.Header) == 0 || len(r.Rows) == 0 {
			t.Errorf("experiment %q has an empty result", r.ID)
		}
		ids[r.ID] = true
		if !strings.HasPrefix(r.String(), "== "+r.ID) {
			t.Errorf("String of %s malformed", r.ID)
		}
	}
	for i := 1; i <= 12; i++ {
		if !ids["E"+strconv.Itoa(i)] {
			t.Errorf("missing experiment E%d", i)
		}
	}
}
