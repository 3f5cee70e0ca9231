package experiments

import (
	"incdata/internal/cq"
	"incdata/internal/exchange"
	"incdata/internal/schema"
	"incdata/internal/table"
)

// paperMapping is the schema mapping of the paper's introduction:
// Order(i,p) → ∃x Cust(x) ∧ Pref(x,p).
func paperMapping() exchange.Mapping {
	src := schema.MustNew(schema.NewRelation("Order", "o_id", "product"))
	tgt := schema.MustNew(
		schema.NewRelation("Cust", "cust"),
		schema.NewRelation("Pref", "cust", "product"),
	)
	return exchange.Mapping{
		Source: src,
		Target: tgt,
		Dependencies: []exchange.Dependency{{
			Name: "order-to-cust",
			Body: []cq.Atom{cq.NewAtom("Order", cq.V("i"), cq.V("p"))},
			Head: []cq.Atom{
				cq.NewAtom("Cust", cq.V("x")),
				cq.NewAtom("Pref", cq.V("x"), cq.V("p")),
			},
			Existential: []string{"x"},
		}},
	}
}

// projectOrders restricts an orders/payments database to its Order relation
// so that it matches the source schema of paperMapping.
func projectOrders(d *table.Database) *table.Database {
	src := schema.MustNew(schema.NewRelation("Order", "o_id", "product"))
	out := table.NewDatabase(src)
	d.Relation("Order").Each(func(t table.Tuple) bool {
		out.MustAdd("Order", t)
		return true
	})
	return out
}

// Config bundles the sweep parameters of all experiments so that the CLI
// and the benchmarks can choose between a quick and a full run.
type Config struct {
	E1Sizes      []int
	E1NullRates  []float64
	E2Sizes      []int
	E4Sizes      []int
	E5Trials     int
	E5NullCounts []int
	E6DBSizes    []int
	E6NullCounts []int
	E7AtomCounts []int
	E7Trials     int
	E9Students   []int
	E9NullRates  []float64
	E10Orders    []int
	E11Instances int
	E12Sizes     []int
	E12Pairs     int
}

// QuickConfig keeps every experiment under a few seconds; it is the default
// for cmd/incbench and for the Go benchmarks.
func QuickConfig() Config {
	return Config{
		E1Sizes:      []int{100, 500, 2000},
		E1NullRates:  []float64{0, 0.1, 0.3, 0.5},
		E2Sizes:      []int{10, 100, 1000, 5000},
		E4Sizes:      []int{2, 4, 8, 16},
		E5Trials:     20,
		E5NullCounts: []int{1, 2, 3},
		E6DBSizes:    []int{20, 80},
		E6NullCounts: []int{1, 2, 3, 4},
		E7AtomCounts: []int{2, 4, 8},
		E7Trials:     10,
		E9Students:   []int{50, 200, 1000},
		E9NullRates:  []float64{0, 0.05},
		E10Orders:    []int{100, 1000, 10000},
		E11Instances: 40,
		E12Sizes:     []int{4, 8},
		E12Pairs:     10,
	}
}

// FullConfig runs larger sweeps (minutes, not seconds); README.md
// records QuickConfig numbers so results are reproducible everywhere.
func FullConfig() Config {
	return Config{
		E1Sizes:      []int{100, 1000, 10000, 50000},
		E1NullRates:  []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5},
		E2Sizes:      []int{10, 100, 1000, 10000, 100000},
		E4Sizes:      []int{2, 4, 8, 16, 32},
		E5Trials:     100,
		E5NullCounts: []int{1, 2, 3, 4},
		E6DBSizes:    []int{20, 80, 320},
		E6NullCounts: []int{1, 2, 3, 4, 5, 6},
		E7AtomCounts: []int{2, 4, 8, 12},
		E7Trials:     50,
		E9Students:   []int{50, 200, 1000, 5000},
		E9NullRates:  []float64{0, 0.05, 0.1},
		E10Orders:    []int{100, 1000, 10000, 100000},
		E11Instances: 200,
		E12Sizes:     []int{4, 8, 16},
		E12Pairs:     25,
	}
}

// All runs every experiment with the given configuration, in order.
func All(cfg Config) []Result { return Run(cfg, nil) }

// Run executes the selected experiments (nil or empty selects all) in
// order.
func Run(cfg Config, ids map[string]bool) []Result {
	runs := []struct {
		id  string
		run func() Result
	}{
		{"E1", func() Result { return E1UnpaidOrders(cfg.E1Sizes, cfg.E1NullRates) }},
		{"E2", func() Result { return E2Difference(cfg.E2Sizes) }},
		{"E3", E3Tautology},
		{"E4", func() Result { return E4CTables(cfg.E4Sizes) }},
		{"E5", func() Result { return E5NaiveUCQ(cfg.E5Trials, cfg.E5NullCounts) }},
		{"E6", func() Result { return E6Complexity(cfg.E6DBSizes, cfg.E6NullCounts) }},
		{"E7", func() Result { return E7Duality(cfg.E7AtomCounts, cfg.E7Trials) }},
		{"E8", E8CertainO},
		{"E9", func() Result { return E9Division(cfg.E9Students, cfg.E9NullRates) }},
		{"E10", func() Result { return E10Exchange(cfg.E10Orders) }},
		{"E11", func() Result { return E11Theorem(cfg.E11Instances) }},
		{"E12", func() Result { return E12Orderings(cfg.E12Sizes, cfg.E12Pairs) }},
	}
	var out []Result
	for _, r := range runs {
		if len(ids) > 0 && !ids[r.id] {
			continue
		}
		out = append(out, r.run())
	}
	return out
}
