package certain

import (
	"incdata/internal/plan"
	"incdata/internal/ra"
	"incdata/internal/table"
	"incdata/internal/valuation"
)

// Planner-backed world enumeration.  plan.ForWorlds factors the query into
// a world-invariant stable part, evaluated once, and a per-valuation delta
// plan; the certain-answer combinators exploit the factorization directly:
//
//   - Intersection: ⋂_v (S ∪ D_v) = S ∪ ⋂_v D_v, so the running
//     intersection touches only the (tiny) deltas.
//   - Boolean certainty: a nonempty stable part is a lower bound of every
//     world's answer, so the query is certainly true without enumerating a
//     single world; otherwise only the delta decides each world.
//   - certainO answer collection: worlds are deduplicated by the canonical
//     key of the normalized delta (the stable part is fixed), so full
//     answers are materialized once per distinct answer, not per world.
//
// Non-splittable plans (difference with a world-dependent right side,
// division) fall back to per-world full evaluation, which still reuses
// every world-invariant subtree and its hash indexes.

// worldPlanFor returns the factored world plan for q over d, or nil when
// the planner is disabled or cannot compile the expression (the caller
// then uses the oracle path, preserving error behavior exactly).
func (ev *Evaluator) worldPlanFor(q ra.Expr, d *table.Database) *plan.WorldPlan {
	if !ev.planner {
		return nil
	}
	wp, err := ev.cachedForWorlds(q, d)
	if err != nil {
		return nil
	}
	return wp
}

// plannedEval gives a worker a session of its own on wp, handed back to the
// plan's pool at the end.  A world's result is its delta when the plan is
// splittable, its full answer otherwise; either is the session's, valid
// until its next call.
func plannedEval(wp *plan.WorldPlan) func() (worldEval, func()) {
	return func() (worldEval, func()) {
		sess := wp.AcquireSession()
		release := func() { wp.ReleaseSession(sess) }
		if wp.Splittable() {
			return sess.Delta, release
		}
		return sess.Answer, release
	}
}

// noteSweep counts one world enumeration: how many worlds it evaluated, and
// whether it stopped before the last one (the answer was already decided,
// or an evaluation failed).
func (ev *Evaluator) noteSweep(worlds int, early bool) {
	ev.sweeps.Add(1)
	ev.worldsEvaluated.Add(uint64(worlds))
	if early {
		ev.sweepEarlyExits.Add(1)
	}
}

// sweep is a world loop ready to run: its n worlds and how a worker
// evaluates them.  A CWA sweep ranges over valuations, on a world plan of
// wp.SortedNulls() only: the nulls of the relations the query reads, since
// a valuation of any other null cannot change the answer.  On a
// splittable plan the workers yield deltas, to be combined with
// wp.Stable().
type sweep struct {
	n      int
	worker worldWorker
	wp     *plan.WorldPlan // nil on the oracle path and over materialized worlds
	split  bool
}

// cwaSweep prepares the CWA sweep of q over d: on the world plan, or on
// the oracle under planner off or when the planner rejects q.  It fails
// when the sweep would exceed Options.MaxWorlds.
func (ev *Evaluator) cwaSweep(q ra.Expr, d *table.Database, opts Options) (sweep, error) {
	opts = opts.withDefaults(d).withQueryConstants(q)
	dom := opts.domain(d)
	s := sweep{wp: ev.worldPlanFor(q, d)}
	nulls, eval := d.SortedNulls(), oracleEval(q, d)
	if s.wp != nil {
		nulls, eval, s.split = s.wp.SortedNulls(), plannedEval(s.wp), s.wp.Splittable()
	}
	s.n = valuation.Count(len(nulls), len(dom))
	if opts.MaxWorlds > 0 && s.n > opts.MaxWorlds {
		return s, ErrTooManyWorlds
	}
	s.worker = valuationWorker(nulls, dom, eval)
	return s, nil
}

// intersect computes ⋂ { Q(v(D)) | v } over the sweep, aborting as soon as
// the intersection is empty (sound for any query: intersecting further
// worlds cannot grow it).  On a splittable plan only the deltas are
// intersected, and the stable part is added at the end.
func (ev *Evaluator) intersect(s sweep, workers int) (*table.Relation, error) {
	cands, rs, err := ev.poolIntersect(s.n, workers, s.worker)
	if err != nil {
		return nil, err
	}
	if s.wp != nil {
		rs = s.wp.OutSchema()
	}
	out := table.NewRelation(rs)
	if s.split {
		stable, err := s.wp.Stable()
		if err != nil {
			return nil, err
		}
		if err := out.AddAll(stable); err != nil {
			return nil, err
		}
	}
	for _, t := range cands {
		out.MustAdd(t)
	}
	return out, nil
}

// collectAnswers evaluates the query on every world of the sweep and
// returns the distinct answers (deduplicated by canonical key; duplicate
// worlds and worlds with equal answers collapse).  The GLB construction is
// invariant under duplicates, so deduplication is purely an optimization.
func (ev *Evaluator) collectAnswers(s sweep, workers int) ([]*table.Relation, error) {
	var stable *table.Relation
	var normalize func(*table.Relation)
	if s.split {
		var err error
		if stable, err = s.wp.Stable(); err != nil {
			return nil, err
		}
		// So that the delta's key identifies the full answer.
		normalize = func(delta *table.Relation) {
			delta.Retain(func(t table.Tuple) bool { return !stable.Contains(t) })
		}
	}
	answers, err := ev.poolCollect(s.n, workers, s.worker, normalize)
	if err != nil || stable == nil {
		return answers, err
	}
	for i, delta := range answers {
		out := table.NewRelation(s.wp.OutSchema())
		if err := out.AddAll(stable); err != nil {
			return nil, err
		}
		if err := out.AddAll(delta); err != nil {
			return nil, err
		}
		answers[i] = out
	}
	return answers, nil
}

// allNonempty decides Boolean certainty over the sweep: true iff the query
// is nonempty in every world.
func (ev *Evaluator) allNonempty(s sweep, workers int) (bool, error) {
	if s.split {
		stable, err := s.wp.Stable()
		if err != nil {
			return false, err
		}
		if stable.Len() > 0 {
			// The stable part is contained in every world's answer: the
			// query is certainly true with zero worlds evaluated.
			ev.noteSweep(0, true)
			return true, nil
		}
		// With an empty stable part the delta alone decides a world.
	}
	return ev.poolAllNonempty(s.n, workers, s.worker)
}
