package certain

import (
	"incdata/internal/plan"
	"incdata/internal/ra"
	"incdata/internal/semantics"
	"incdata/internal/table"
	"incdata/internal/valuation"
	"incdata/internal/value"
)

// Planner-backed world enumeration.  plan.ForWorlds factors the query into
// a world-invariant stable part, evaluated once, and a per-valuation delta
// plan; the certain-answer combinators below exploit the factorization
// directly:
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

// enumerate calls fn with every valuation of nulls into dom until fn returns
// false, records the sweep in the evaluator's counters (one update per
// sweep) and returns the number of worlds fn saw.
func (ev *Evaluator) enumerate(nulls []value.Value, dom semantics.Domain, fn func(valuation.Valuation) bool) int {
	worlds := 0
	all := valuation.Enumerate(nulls, dom.Values(), func(v valuation.Valuation) bool {
		worlds++
		return fn(v)
	})
	ev.noteSweep(worlds, !all)
	return worlds
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

// intersectWorldsPlanned computes ⋂ { Q(v(D)) | v } through the factored
// plan.  Every planned sweep ranges over wp.SortedNulls(), the nulls of the
// relations the query reads: a valuation of any other null cannot change
// the answer.
func (ev *Evaluator) intersectWorldsPlanned(wp *plan.WorldPlan, dom semantics.Domain, workers int) (*table.Relation, error) {
	if workers > 1 {
		return ev.parallelIntersectPlanned(wp, dom, workers)
	}
	sess := wp.AcquireSession()
	defer wp.ReleaseSession(sess)
	var evalErr error
	if wp.Splittable() {
		// Running intersection of the deltas as a slice of tuples: per world
		// only membership probes against the current delta, no map copying.
		// A delta's tuples are immutable and freshly allocated, so keeping
		// them across the session's next call is safe.
		var cands []table.Tuple
		first := true
		worlds := ev.enumerate(wp.SortedNulls(), dom, func(v valuation.Valuation) bool {
			delta, err := sess.Delta(v)
			if err != nil {
				evalErr = err
				return false
			}
			if first {
				first = false
				delta.Each(func(t table.Tuple) bool {
					cands = append(cands, t)
					return true
				})
			} else {
				w := 0
				for _, t := range cands {
					if delta.Contains(t) {
						cands[w] = t
						w++
					}
				}
				cands = cands[:w]
			}
			// Once the delta intersection is empty the result is exactly the
			// stable part; further worlds cannot change it.
			return len(cands) > 0
		})
		if evalErr != nil {
			return nil, evalErr
		}
		if worlds == 0 {
			return nil, errNoWorlds
		}
		stable, err := wp.Stable()
		if err != nil {
			return nil, err
		}
		out := table.NewRelation(wp.OutSchema())
		if err := out.AddAll(stable); err != nil {
			return nil, err
		}
		for _, t := range cands {
			out.MustAdd(t)
		}
		return out, nil
	}
	var running *table.Relation
	worlds := ev.enumerate(wp.SortedNulls(), dom, func(v valuation.Valuation) bool {
		ans, err := sess.Answer(v)
		if err != nil {
			evalErr = err
			return false
		}
		if running == nil {
			running = ans.Clone()
		} else {
			running.Retain(ans.Contains)
		}
		return running.Len() > 0
	})
	if evalErr != nil {
		return nil, evalErr
	}
	if worlds == 0 {
		return nil, errNoWorlds
	}
	return running.WithSchema(wp.OutSchema()), nil
}

// mergeStableDelta materializes stable ∪ delta under the plan's output
// schema; delta may be nil (no surviving delta tuples).
func mergeStableDelta(wp *plan.WorldPlan, stable, delta *table.Relation) (*table.Relation, error) {
	out := table.NewRelation(wp.OutSchema())
	if err := out.AddAll(stable); err != nil {
		return nil, err
	}
	if delta != nil && delta.Len() > 0 {
		if err := out.AddAll(delta); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// boolCertainPlanned decides Boolean certainty through the factored plan.
func (ev *Evaluator) boolCertainPlanned(wp *plan.WorldPlan, dom semantics.Domain) (bool, error) {
	split := wp.Splittable()
	if split {
		stable, err := wp.Stable()
		if err != nil {
			return false, err
		}
		if stable.Len() > 0 {
			// The stable part is contained in every world's answer: the
			// query is certainly true with zero worlds evaluated.
			ev.noteSweep(0, true)
			return true, nil
		}
	}
	sess := wp.AcquireSession()
	defer wp.ReleaseSession(sess)
	certain := true
	var evalErr error
	ev.enumerate(wp.SortedNulls(), dom, func(v valuation.Valuation) bool {
		// With an empty stable part the delta alone decides a world.
		ans, err := worldResult(sess, split, v)
		if err != nil {
			evalErr = err
			return false
		}
		certain = ans.Len() > 0
		return certain
	})
	return certain && evalErr == nil, evalErr
}

// worldResult evaluates one world on a session: its delta when the plan is
// splittable, its full answer otherwise.  The relation is the session's,
// valid until the session's next call.
func worldResult(sess *plan.Session, split bool, v valuation.Valuation) (*table.Relation, error) {
	if split {
		return sess.Delta(v)
	}
	return sess.Answer(v)
}

// collectAnswersPlanned gathers the distinct per-world answers through the
// factored plan (for the certainO GLB).
func (ev *Evaluator) collectAnswersPlanned(wp *plan.WorldPlan, dom semantics.Domain, workers int) ([]*table.Relation, error) {
	if workers > 1 {
		return ev.parallelCollectPlanned(wp, dom, workers)
	}
	sess := wp.AcquireSession()
	defer wp.ReleaseSession(sess)
	seen := map[string]bool{}
	var answers []*table.Relation
	var evalErr error
	if wp.Splittable() {
		stable, err := wp.Stable()
		if err != nil {
			return nil, err
		}
		ev.enumerate(wp.SortedNulls(), dom, func(v valuation.Valuation) bool {
			delta, err := sess.Delta(v)
			if err != nil {
				evalErr = err
				return false
			}
			// Normalize so the delta key identifies the full answer: the
			// stable part is fixed across worlds.
			delta.Retain(func(t table.Tuple) bool { return !stable.Contains(t) })
			k := delta.CanonicalKey()
			if !seen[k] {
				seen[k] = true
				full, err := mergeStableDelta(wp, stable, delta)
				if err != nil {
					evalErr = err
					return false
				}
				answers = append(answers, full)
			}
			return true
		})
		return answers, evalErr
	}
	ev.enumerate(wp.SortedNulls(), dom, func(v valuation.Valuation) bool {
		ans, err := sess.Answer(v)
		if err != nil {
			evalErr = err
			return false
		}
		k := ans.CanonicalKey()
		if !seen[k] {
			seen[k] = true
			answers = append(answers, ans.Clone())
		}
		return true
	})
	return answers, evalErr
}

// plannedWorker is a pool worker's evaluation state over a world plan (see
// runPool): a session of its own, handed back to the plan's pool at the end.
func plannedWorker(wp *plan.WorldPlan) worldWorker {
	split := wp.Splittable()
	return func() (func(valuation.Valuation) (*table.Relation, error), func()) {
		sess := wp.AcquireSession()
		return func(v valuation.Valuation) (*table.Relation, error) { return worldResult(sess, split, v) },
			func() { wp.ReleaseSession(sess) }
	}
}

// parallelIntersectPlanned is intersectWorldsPlanned over a worker pool:
// per-worker running intersections of the deltas (or full answers), merged
// at the end.
func (ev *Evaluator) parallelIntersectPlanned(wp *plan.WorldPlan, dom semantics.Domain, workers int) (*table.Relation, error) {
	running, err := ev.poolIntersect(wp.SortedNulls(), dom, workers, plannedWorker(wp))
	if err != nil {
		return nil, err
	}
	if wp.Splittable() {
		stable, err := wp.Stable()
		if err != nil {
			return nil, err
		}
		return mergeStableDelta(wp, stable, running)
	}
	return running.WithSchema(wp.OutSchema()), nil
}

// parallelCollectPlanned is collectAnswersPlanned over a worker pool with
// local dedup; full answers are materialized once per globally distinct
// answer.
func (ev *Evaluator) parallelCollectPlanned(wp *plan.WorldPlan, dom semantics.Domain, workers int) ([]*table.Relation, error) {
	var stable *table.Relation
	var normalize func(*table.Relation)
	if wp.Splittable() {
		var err error
		if stable, err = wp.Stable(); err != nil {
			return nil, err
		}
		// So that the delta's key identifies the full answer.
		normalize = func(delta *table.Relation) {
			delta.Retain(func(t table.Tuple) bool { return !stable.Contains(t) })
		}
	}
	answers, err := ev.poolCollect(wp.SortedNulls(), dom, workers, plannedWorker(wp), normalize)
	if err != nil || stable == nil {
		return answers, err
	}
	for i, delta := range answers {
		if answers[i], err = mergeStableDelta(wp, stable, delta); err != nil {
			return nil, err
		}
	}
	return answers, nil
}
