// Package certain computes certain answers to relational-algebra queries
// over incomplete databases, in the three ways the paper discusses:
//
//  1. Intersection-based certain answers (equation (1)): ⋂ { Q(D') | D' ∈
//     [[D]] }, computed here as ground truth by enumerating worlds over a
//     finite constant domain (adom plus fresh constants), which is exact for
//     generic queries.
//  2. Naïve evaluation followed by null stripping (equation (4)): the cheap
//     route that the results of Section 6 prove correct for positive queries
//     under OWA/CWA and for RAcwa queries under CWA.
//  3. Ordering-based certainty (Section 5.3): certainO as the greatest lower
//     bound of the answer set in the information ordering, computed through
//     the direct-product construction of package order.
//
// Cross-checking these three against each other — where they must agree and
// where they provably differ — is the substance of experiments E1–E9.
//
// Every world enumeration (routes 1 and 3, and Boolean certainty) runs on
// one loop, runPool: the worlds of a sweep are the valuations in
// valuation.Enumerate's order, or a list of materialized OWA worlds, and
// each worker steps through a contiguous range of them.
package certain

import (
	"fmt"

	"incdata/internal/ra"
	"incdata/internal/semantics"
	"incdata/internal/table"
	"incdata/internal/value"
)

// Options controls world enumeration.
type Options struct {
	// ExtraFresh is the number of fresh constants (outside adom and the
	// query constants) added to the enumeration domain.  Genericity of RA
	// queries makes #nulls fresh constants sufficient; 1 is enough for
	// tuple-level certainty of most queries and is the default when the
	// value is 0 and the database has nulls.
	ExtraFresh int
	// MaxExtraTuples bounds the additional tuples considered in OWA world
	// enumeration (0 enumerates only minimal worlds, which is exact for
	// monotone queries).
	MaxExtraTuples int
	// ExtraConstants are added to the enumeration domain (e.g. constants
	// mentioned by the query).
	ExtraConstants []value.Value
	// Workers sizes the world pool: a sweep's worlds are split into
	// contiguous ranges, one per worker, and one worker runs on the
	// caller's goroutine (≤ 0 means GOMAXPROCS).
	Workers int
	// MaxWorlds aborts enumeration when the sweep that would run exceeds
	// the bound (0 means no bound): its valuations — of the nulls the
	// query reads, on a world plan — or materialized worlds under
	// MaxExtraTuples.  This keeps experiment sweeps from running forever
	// on instances with many nulls.
	MaxWorlds int
}

func (o Options) withDefaults(d *table.Database) Options {
	if o.ExtraFresh == 0 && len(d.Nulls()) > 0 {
		o.ExtraFresh = 1
	}
	return o
}

// domain builds the enumeration domain for a database under the options.
func (o Options) domain(d *table.Database) semantics.Domain {
	return semantics.DomainOf(d, o.ExtraFresh, o.ExtraConstants...)
}

// queryConstants collects the constants mentioned by a query's selection
// predicates so they can be added to the enumeration domain.  It walks the
// expression structurally.
func queryConstants(e ra.Expr) []value.Value {
	var out []value.Value
	var walkPred func(p ra.Predicate)
	walkPred = func(p ra.Predicate) {
		switch pp := p.(type) {
		case ra.Cmp:
			if !pp.Left.IsAttr {
				out = append(out, pp.Left.Const)
			}
			if !pp.Right.IsAttr {
				out = append(out, pp.Right.Const)
			}
		case ra.And:
			for _, q := range pp.Preds {
				walkPred(q)
			}
		case ra.Or:
			for _, q := range pp.Preds {
				walkPred(q)
			}
		case ra.Not:
			walkPred(pp.Pred)
		}
	}
	var walk func(e ra.Expr)
	walk = func(e ra.Expr) {
		switch ex := e.(type) {
		case ra.Select:
			walkPred(ex.Pred)
			walk(ex.Input)
		case ra.Project:
			walk(ex.Input)
		case ra.Rename:
			walk(ex.Input)
		case ra.Product:
			walk(ex.Left)
			walk(ex.Right)
		case ra.Join:
			walk(ex.Left)
			walk(ex.Right)
		case ra.Union:
			walk(ex.Left)
			walk(ex.Right)
		case ra.Diff:
			walk(ex.Left)
			walk(ex.Right)
		case ra.Intersect:
			walk(ex.Left)
			walk(ex.Right)
		case ra.Division:
			walk(ex.Left)
			walk(ex.Right)
		}
	}
	walk(e)
	return out
}

// withQueryConstants returns a copy of the options whose ExtraConstants
// additionally contain the constants mentioned by the query.  The original
// slice is never appended to in place: appending could write into the
// caller's backing array and corrupt an Options value reused across calls.
func (o Options) withQueryConstants(q ra.Expr) Options {
	qc := queryConstants(q)
	if len(qc) == 0 {
		return o
	}
	merged := make([]value.Value, 0, len(o.ExtraConstants)+len(qc))
	merged = append(merged, o.ExtraConstants...)
	merged = append(merged, qc...)
	o.ExtraConstants = merged
	return o
}

// ErrTooManyWorlds is returned when world enumeration would exceed
// Options.MaxWorlds.
var ErrTooManyWorlds = fmt.Errorf("certain: world enumeration exceeds the configured bound")

// errNoWorlds is returned when the enumeration domain admits no valuation
// at all (mirrors the "intersection of an empty set" error of package
// order).
var errNoWorlds = fmt.Errorf("certain: no worlds to intersect (empty enumeration domain)")

// collectWorldsOWA enumerates OWA worlds (valuation images plus up to
// MaxExtraTuples additional tuples over the domain).  MaxWorlds bounds both
// the valuations and the worlds materialized: enumeration stops, with
// ErrTooManyWorlds, as soon as one more world than the bound is held.
func collectWorldsOWA(d *table.Database, opts Options) ([]*table.Database, error) {
	dom := opts.domain(d)
	bounded := opts.MaxWorlds > 0
	if bounded && semantics.WorldCount(d, dom) > opts.MaxWorlds {
		return nil, ErrTooManyWorlds
	}
	var worlds []*table.Database
	semantics.EnumerateOWA(d, dom, opts.MaxExtraTuples, func(w *table.Database) bool {
		worlds = append(worlds, w)
		return !bounded || len(worlds) <= opts.MaxWorlds
	})
	if bounded && len(worlds) > opts.MaxWorlds {
		return nil, ErrTooManyWorlds
	}
	return worlds, nil
}

// Comparison is the outcome of comparing naïve-evaluation certain answers
// against world-enumeration ground truth.
type Comparison struct {
	// Agree reports whether the two answer sets are identical.
	Agree bool
	// MissingFromNaive are certain tuples that naïve evaluation failed to
	// return (false negatives; cannot happen for the sound fragments).
	MissingFromNaive []table.Tuple
	// SpuriousInNaive are tuples naïve evaluation returned that are not
	// certain (false positives; the π(R−S) example produces one).
	SpuriousInNaive []table.Tuple
}

func diffRelations(naive, truth *table.Relation) Comparison {
	cmp := Comparison{Agree: naive.Equal(truth)}
	truth.Each(func(t table.Tuple) bool {
		if !naive.Contains(t) {
			cmp.MissingFromNaive = append(cmp.MissingFromNaive, t.Clone())
		}
		return true
	})
	naive.Each(func(t table.Tuple) bool {
		if !truth.Contains(t) {
			cmp.SpuriousInNaive = append(cmp.SpuriousInNaive, t.Clone())
		}
		return true
	})
	return cmp
}

// EvaluationReport compares an arbitrary answer relation (for example the
// output of the SQL baseline) against the certain answers: which certain
// tuples it missed and which uncertain tuples it reported.
func EvaluationReport(answer, certainAnswers *table.Relation) Comparison {
	return diffRelations(answer, certainAnswers)
}
