package certain

import (
	"sync/atomic"

	"incdata/internal/order"
	"incdata/internal/plan"
	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/semantics"
	"incdata/internal/table"
)

// Evaluator is an instance of the certain-answer machinery with its own
// plan caches and planner setting.  The engine facade (internal/engine)
// owns one Evaluator per planner setting, which is what gives every engine
// its own plan cache and session pool; NewEvaluator(false) is the reference
// oracle of the differential tests.
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
// nulls from the answer.  It is the certainO representation of the answer
// for monotone generic queries (equation (9)), and the input to the
// null-stripping step.  With the planner enabled the expression is
// compiled to a physical plan (pushdown, indexed joins); results are
// bit-identical to ra.Eval.
func (ev *Evaluator) NaiveRaw(q ra.Expr, d *table.Database) (*table.Relation, error) {
	return ev.evalMaybePlanned(q, d)
}

// Naive computes certain answers by naïve evaluation followed by dropping
// tuples with nulls (equation (4)): Q(D)_cmpl.  The paper's Section 6
// results guarantee this equals the intersection-based certain answers for
// positive queries (under OWA and CWA) and for RAcwa queries (under CWA).
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

// NaiveWith is Naive with an explicit plan execution configuration
// (coded/row path selection and join memory budget; a subtree the coded
// path refuses runs on the row path).  With the planner on the compiled
// plan evaluates serially under cfg; the oracle path ignores cfg.  The
// result is bit-identical to Naive's for every configuration.
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

// sweepPlan prepares a CWA sweep of q over d: the enumeration domain, and
// the world plan the sweep runs on — nil under planner off or when the
// planner rejects q, which is the oracle path.  It fails when the sweep
// would exceed Options.MaxWorlds.
func (ev *Evaluator) sweepPlan(q ra.Expr, d *table.Database, opts Options) (*plan.WorldPlan, semantics.Domain, error) {
	opts = opts.withDefaults(d).withQueryConstants(q)
	dom := opts.domain(d)
	wp := ev.worldPlanFor(q, d)
	return wp, dom, opts.checkWorldBound(wp, d, dom)
}

// ByWorldsCWA computes the intersection-based certain answers under CWA by
// explicit world enumeration:  ⋂ { Q(v(D)) | v valuation into the finite
// domain }.  For generic queries with enough fresh constants in the domain
// this equals certain(Q,D) under [[·]]cwa.
//
// Worlds are never materialized: the query is evaluated under a valuation
// view of the base database, a running intersection is maintained, and the
// enumeration aborts as soon as the intersection is empty.
func (ev *Evaluator) ByWorldsCWA(q ra.Expr, d *table.Database, opts Options) (*table.Relation, error) {
	wp, dom, err := ev.sweepPlan(q, d, opts)
	if err != nil {
		return nil, err
	}
	return ev.intersectWorldsCWA(wp, q, d, dom, opts.Workers)
}

// ByWorldsOWA computes intersection-based certain answers under OWA over
// the enumerated (bounded) world set.  With MaxExtraTuples = 0 the minimal
// worlds are used, which gives the exact certain answers for monotone
// queries; for non-monotone queries the result is an over-approximation of
// the true OWA certain answers (which are undecidable in general), and
// increasing MaxExtraTuples tightens it.
func (ev *Evaluator) ByWorldsOWA(q ra.Expr, d *table.Database, opts Options) (*table.Relation, error) {
	if opts.MaxExtraTuples <= 0 {
		// The minimal OWA worlds are exactly the CWA worlds; use the
		// streaming valuation-view path.
		return ev.ByWorldsCWA(q, d, opts)
	}
	opts = opts.withDefaults(d).withQueryConstants(q)
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

// CertainObjectCWA computes certainO(Q,D) under CWA: the greatest lower
// bound, in the ⪯owa ordering on answers, of { Q(D') | D' ∈ [[D]]cwa } over
// the enumerated worlds.  For monotone generic queries the theorem of
// Section 6.1 says this equals Q(D) itself (naïve evaluation, nulls kept);
// experiment E8/E11 verify the equality.
func (ev *Evaluator) CertainObjectCWA(q ra.Expr, d *table.Database, opts Options) (*table.Relation, error) {
	wp, dom, err := ev.sweepPlan(q, d, opts)
	if err != nil {
		return nil, err
	}
	answers, err := ev.collectAnswersCWA(wp, q, d, dom, opts.Workers)
	if err != nil {
		return nil, err
	}
	return order.GLBRelationsOWA(answers)
}

// BoolCertainCWA computes the certain answer of a Boolean query under CWA
// by world enumeration: true iff the query is nonempty in every world.  It
// evaluates through a valuation view (no world materialization) and stops
// at the first counterexample world.
func (ev *Evaluator) BoolCertainCWA(q ra.Expr, d *table.Database, opts Options) (bool, error) {
	wp, dom, err := ev.sweepPlan(q, d, opts)
	if err != nil {
		return false, err
	}
	if wp != nil {
		return ev.boolCertainPlanned(wp, dom)
	}
	certain := true
	err = ev.forEachWorldAnswer(q, d, dom, func(ans *table.Relation) bool {
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
// world-enumeration ground truth under CWA.
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
