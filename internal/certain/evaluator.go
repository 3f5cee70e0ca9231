package certain

import (
	"sync/atomic"

	"incdata/internal/order"
	"incdata/internal/plan"
	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
)

// Evaluator is an instance of the certain-answer machinery with its own
// plan caches and planner setting.  The engine facade (internal/engine)
// owns one Evaluator per planner setting, which is what gives every engine
// its own plan cache and session pool instead of the process-wide globals
// this package used to keep; the package-level functions below remain as
// thin wrappers over shared default instances and serve as the reference
// oracle for differential tests.
//
// An Evaluator is safe for concurrent use: the caches are mutex-guarded,
// compiled one-shot plans are stateless with respect to the data, and
// world plans hand out per-worker sessions from a pool.  The databases
// passed to its methods must not be mutated during evaluation — snapshot
// isolation (table.Database.Snapshot, engine.Engine) is the supported way
// to evaluate concurrently with writers.
type Evaluator struct {
	planner bool

	oneShot oneShotCache
	worlds  worldCache

	oneShotHits      atomic.Uint64
	oneShotMisses    atomic.Uint64
	oneShotEvictions atomic.Uint64
	worldHits        atomic.Uint64
	worldMisses      atomic.Uint64
	worldEvictions   atomic.Uint64
	sweeps           atomic.Uint64
	worldsEvaluated  atomic.Uint64
	sweepEarlyExits  atomic.Uint64
}

// NewEvaluator returns an evaluator with empty caches.  With planner set,
// queries compile to physical plans (pushdown, indexed joins) and world
// enumeration runs over factored world plans; without it every path uses
// the naïve-evaluation oracle (ra.Eval), which computes identical results.
func NewEvaluator(planner bool) *Evaluator {
	return &Evaluator{planner: planner}
}

// PlannerEnabled reports whether the evaluator uses the planner fast paths.
func (ev *Evaluator) PlannerEnabled() bool { return ev.planner }

// CacheStats counts plan-cache traffic and world sweeps.  A world "hit"
// means a factored world plan — including its stable subplan results and
// their hash indexes — was reused, possibly across database snapshots.
// Evictions count entries dropped by the caches' LRU cap under many
// distinct queries.  Sweeps counts world enumerations (one per
// ModeCertainCWA / certainO / Boolean evaluation), WorldsEvaluated the
// worlds they evaluated the query on, and SweepEarlyExits those that
// stopped before their last world because the answer was decided (or an
// evaluation failed) — a Boolean query with a nonempty stable part is one
// with zero worlds.
type CacheStats struct {
	OneShotHits      uint64
	OneShotMisses    uint64
	OneShotEvictions uint64
	WorldHits        uint64
	WorldMisses      uint64
	WorldEvictions   uint64
	Sweeps           uint64
	WorldsEvaluated  uint64
	SweepEarlyExits  uint64
}

// Stats returns a point-in-time copy of the cache counters.
func (ev *Evaluator) Stats() CacheStats {
	return CacheStats{
		OneShotHits:      ev.oneShotHits.Load(),
		OneShotMisses:    ev.oneShotMisses.Load(),
		OneShotEvictions: ev.oneShotEvictions.Load(),
		WorldHits:        ev.worldHits.Load(),
		WorldMisses:      ev.worldMisses.Load(),
		WorldEvictions:   ev.worldEvictions.Load(),
		Sweeps:           ev.sweeps.Load(),
		WorldsEvaluated:  ev.worldsEvaluated.Load(),
		SweepEarlyExits:  ev.sweepEarlyExits.Load(),
	}
}

// Explain returns the physical plan the planner path runs q with over a
// database of schema sc (plan.Plan.Describe): the operator tree, the
// sargable conjuncts of every filtered base scan and, once the cached plan
// has been evaluated, the access path each such scan took last.
func (ev *Evaluator) Explain(q ra.Expr, sc *schema.Schema) (string, error) {
	p, err := ev.cachedCompile(q, sc)
	if err != nil {
		return "", err
	}
	return p.Describe(), nil
}

// NaiveRaw evaluates the query naïvely (nulls as values) without stripping
// nulls from the answer; see the package-level NaiveRaw.
func (ev *Evaluator) NaiveRaw(q ra.Expr, d *table.Database) (*table.Relation, error) {
	return ev.evalMaybePlanned(q, d)
}

// Naive computes certain answers by naïve evaluation followed by dropping
// tuples with nulls; see the package-level Naive.
func (ev *Evaluator) Naive(q ra.Expr, d *table.Database) (*table.Relation, error) {
	if ev.planner {
		if p, err := ev.cachedCompile(q, d.Schema()); err == nil {
			return p.EvalCertain(d)
		}
	}
	r, err := ra.Eval(q, d)
	if err != nil {
		return nil, err
	}
	return ra.StripNulls(r), nil
}

// NaiveWorkers is Naive with a worker budget: with the planner on, the
// compiled plan is evaluated morsel-parallel across the pool (partitioned
// hash joins, see plan.EvalCertainWorkers), producing a result bit-identical
// to Naive's.  workers <= 1 and the oracle path are exactly Naive.
func (ev *Evaluator) NaiveWorkers(q ra.Expr, d *table.Database, workers int) (*table.Relation, error) {
	return ev.NaiveWith(q, d, plan.EvalConfig{Workers: workers, Columnar: true, Coded: true})
}

// NaiveWith is Naive with an explicit plan execution configuration
// (worker budget and columnar/row path selection).  With the planner on
// the compiled plan evaluates under cfg; the oracle path ignores cfg.
// The result is bit-identical to Naive's for every configuration.
func (ev *Evaluator) NaiveWith(q ra.Expr, d *table.Database, cfg plan.EvalConfig) (*table.Relation, error) {
	if ev.planner {
		if p, err := ev.cachedCompile(q, d.Schema()); err == nil {
			return p.EvalCertainWith(d, cfg)
		}
	}
	r, err := ra.Eval(q, d)
	if err != nil {
		return nil, err
	}
	return ra.StripNulls(r), nil
}

// NaiveRawWorkers is NaiveRaw with a worker budget, the raw (nulls kept)
// counterpart of NaiveWorkers; the result is bit-identical to NaiveRaw's.
func (ev *Evaluator) NaiveRawWorkers(q ra.Expr, d *table.Database, workers int) (*table.Relation, error) {
	return ev.NaiveRawWith(q, d, plan.EvalConfig{Workers: workers, Columnar: true, Coded: true})
}

// NaiveRawWith is NaiveRaw with an explicit plan execution configuration,
// the raw (nulls kept) counterpart of NaiveWith; the result is
// bit-identical to NaiveRaw's for every configuration.
func (ev *Evaluator) NaiveRawWith(q ra.Expr, d *table.Database, cfg plan.EvalConfig) (*table.Relation, error) {
	if ev.planner {
		if p, err := ev.cachedCompile(q, d.Schema()); err == nil {
			return p.EvalWith(d, cfg)
		}
	}
	return ra.Eval(q, d)
}

// evalMaybePlanned evaluates through the query planner when it is enabled
// and the expression compiles, falling back to the naïve-evaluation oracle
// otherwise (so unsupported expressions and error cases behave exactly as
// before).
func (ev *Evaluator) evalMaybePlanned(q ra.Expr, d *table.Database) (*table.Relation, error) {
	if ev.planner {
		if p, err := ev.cachedCompile(q, d.Schema()); err == nil {
			return p.Eval(d)
		}
	}
	return ra.Eval(q, d)
}

// ByWorldsCWA computes the intersection-based certain answers under CWA;
// see the package-level ByWorldsCWA.
func (ev *Evaluator) ByWorldsCWA(q ra.Expr, d *table.Database, opts Options) (*table.Relation, error) {
	opts = opts.withDefaults(d).withQueryConstants(q)
	dom := opts.domain(d)
	if err := opts.checkWorldBound(d, dom); err != nil {
		return nil, err
	}
	return ev.intersectWorldsCWA(q, d, dom, opts.Workers)
}

// ByWorldsOWA computes intersection-based certain answers under OWA over
// the enumerated (bounded) world set; see the package-level ByWorldsOWA.
func (ev *Evaluator) ByWorldsOWA(q ra.Expr, d *table.Database, opts Options) (*table.Relation, error) {
	opts = opts.withDefaults(d).withQueryConstants(q)
	if opts.MaxExtraTuples <= 0 {
		// The minimal OWA worlds are exactly the CWA worlds; use the
		// streaming valuation-view path.
		dom := opts.domain(d)
		if err := opts.checkWorldBound(d, dom); err != nil {
			return nil, err
		}
		return ev.intersectWorldsCWA(q, d, dom, opts.Workers)
	}
	worlds, err := collectWorldsOWA(d, opts)
	if err != nil {
		return nil, err
	}
	answers, err := answersOnWorlds(q, worlds, opts.Workers)
	if err != nil {
		return nil, err
	}
	return order.IntersectionRelations(answers)
}

// CertainObjectCWA computes certainO(Q,D) under CWA; see the package-level
// CertainObjectCWA.
func (ev *Evaluator) CertainObjectCWA(q ra.Expr, d *table.Database, opts Options) (*table.Relation, error) {
	opts = opts.withDefaults(d).withQueryConstants(q)
	dom := opts.domain(d)
	if err := opts.checkWorldBound(d, dom); err != nil {
		return nil, err
	}
	answers, err := ev.collectAnswersCWA(q, d, dom, opts.Workers)
	if err != nil {
		return nil, err
	}
	return order.GLBRelationsOWA(answers)
}

// BoolCertainCWA computes the certain answer of a Boolean query under CWA;
// see the package-level BoolCertainCWA.
func (ev *Evaluator) BoolCertainCWA(q ra.Expr, d *table.Database, opts Options) (bool, error) {
	opts = opts.withDefaults(d).withQueryConstants(q)
	dom := opts.domain(d)
	if err := opts.checkWorldBound(d, dom); err != nil {
		return false, err
	}
	if wp := ev.worldPlanFor(q, d); wp != nil {
		return ev.boolCertainPlanned(wp, dom, opts.Workers)
	}
	certain := true
	err := ev.forEachWorldAnswer(q, d, dom, func(ans *table.Relation) bool {
		if ans.Len() == 0 {
			certain = false
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	return certain, nil
}

// Compare checks naïve-evaluation certain answers against the
// world-enumeration ground truth under CWA; see the package-level Compare.
func (ev *Evaluator) Compare(q ra.Expr, d *table.Database, opts Options) (Comparison, error) {
	naive, err := ev.Naive(q, d)
	if err != nil {
		return Comparison{}, err
	}
	truth, err := ev.ByWorldsCWA(q, d, opts)
	if err != nil {
		return Comparison{}, err
	}
	return diffRelations(naive, truth), nil
}
