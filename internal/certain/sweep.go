package certain

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/semantics"
	"incdata/internal/table"
	"incdata/internal/valuation"
	"incdata/internal/value"
)

// worldView presents v(D) to the evaluator without materializing a database
// per valuation: base relations are substituted on the fly the first time a
// world's evaluation scans them, into per-view scratch relations whose map
// storage is reused from world to world.  It implements ra.DB.
type worldView struct {
	base *table.Database
	val  valuation.Valuation
	rels map[string]*table.Relation // per-relation scratch, reused across worlds
	live map[string]bool            // scratch entries valid for the current valuation
}

func newWorldView(d *table.Database) *worldView {
	return &worldView{
		base: d,
		rels: make(map[string]*table.Relation),
		live: make(map[string]bool),
	}
}

// setValuation moves the view to the next world; scratch storage is kept.
func (w *worldView) setValuation(v valuation.Valuation) {
	w.val = v
	clear(w.live)
}

// Relation returns the named relation of the current world.
func (w *worldView) Relation(name string) *table.Relation {
	base := w.base.Relation(name)
	if base == nil {
		return nil
	}
	if len(w.val) == 0 {
		// No nulls to substitute: the base relation is the world.
		return base
	}
	if w.live[name] {
		return w.rels[name]
	}
	scr := w.rels[name]
	if scr == nil {
		scr = table.NewRelation(base.Schema())
		w.rels[name] = scr
	}
	scr.FillMapped(base, w.val.ApplyValue)
	w.live[name] = true
	return scr
}

// Schema returns the base schema (valuations do not change the schema).
func (w *worldView) Schema() *schema.Schema { return w.base.Schema() }

// ActiveDomain returns adom(v(D)) = v(adom(D)).
func (w *worldView) ActiveDomain() map[value.Value]bool {
	out := map[value.Value]bool{}
	for v := range w.base.ActiveDomain() {
		out[w.val.ApplyValue(v)] = true
	}
	return out
}

// worldWorker gives a pool worker its own evaluation state.  visit
// evaluates the worlds at positions [lo, hi) of the sweep, in order, and
// calls fn with each world's result — valid until the next, so fn clones
// what it keeps — until fn returns false; it returns the first evaluation
// error.  release hands the state back when the worker is done.
type worldWorker func() (visit func(lo, hi int, fn func(*table.Relation) bool) error, release func())

// worldEval evaluates one world, given by its valuation.
type worldEval func(valuation.Valuation) (*table.Relation, error)

// valuationWorker steps through a range of the valuations of nulls into
// dom with an odometer of its own (valuation.EnumerateRange), evaluating
// each world with the state newEval returns.
func valuationWorker(nulls []value.Value, dom semantics.Domain, newEval func() (worldEval, func())) worldWorker {
	return func() (func(int, int, func(*table.Relation) bool) error, func()) {
		eval, release := newEval()
		return func(lo, hi int, fn func(*table.Relation) bool) error {
			var err error
			valuation.EnumerateRange(nulls, dom.Values(), lo, hi, func(v valuation.Valuation) bool {
				var rel *table.Relation
				if rel, err = eval(v); err != nil {
					return false
				}
				return fn(rel)
			})
			return err
		}, release
	}
}

// oracleEval evaluates q through a valuation view of d whose scratch is
// reused from world to world: the planner-off reference.
func oracleEval(q ra.Expr, d *table.Database) func() (worldEval, func()) {
	return func() (worldEval, func()) {
		view := newWorldView(d)
		return func(v valuation.Valuation) (*table.Relation, error) {
			view.setValuation(v)
			return ra.EvalDB(q, view)
		}, func() {}
	}
}

// materializedWorker evaluates q on a range of already materialized
// worlds: OWA worlds with extra tuples, which are genuine supersets that a
// valuation view cannot express.
func materializedWorker(q ra.Expr, worlds []*table.Database) worldWorker {
	return func() (func(int, int, func(*table.Relation) bool) error, func()) {
		return func(lo, hi int, fn func(*table.Relation) bool) error {
			for _, w := range worlds[lo:min(hi, len(worlds))] {
				rel, err := ra.Eval(q, w)
				if err != nil {
					return err
				}
				if !fn(rel) {
					return nil
				}
			}
			return nil
		}, func() {}
	}
}

// poolSize is the number of workers a sweep of n worlds runs on:
// min(workers, n) and at least one, where workers ≤ 0 means GOMAXPROCS.
func poolSize(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// runPool is the one world loop, under the oracle, the planned and the
// materialized sweeps alike.  It splits the n worlds of a sweep into k
// contiguous ranges, one per worker — the last open at the end, so a count
// saturated at math.MaxInt never cuts a sweep short — and calls work(w,
// rel) with each result of worker w.  work returning false, or an
// evaluation error, stops every worker at its next world.  One worker runs
// on the caller's goroutine.  The sweep is counted once, when all workers
// are done.
func (ev *Evaluator) runPool(n, k int, newWorker worldWorker, work func(w int, rel *table.Relation) bool) error {
	var stop atomic.Bool
	errs := make([]error, k)
	counts := make([]int, k)
	start := func(w int) int { return w*(n/k) + min(w, n%k) } // no overflow at n = math.MaxInt
	run := func(w int) {
		visit, release := newWorker()
		defer release()
		lo, hi := start(w), math.MaxInt
		if w < k-1 {
			hi = start(w + 1)
		}
		errs[w] = visit(lo, hi, func(rel *table.Relation) bool {
			counts[w]++
			if stop.Load() {
				return false // decided by another worker
			}
			if !work(w, rel) {
				stop.Store(true)
				return false
			}
			return true
		})
		if errs[w] != nil {
			counts[w]++ // the world that failed
			stop.Store(true)
		}
	}
	if k == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(k)
		for w := range k {
			go func() {
				defer wg.Done()
				run(w)
			}()
		}
		wg.Wait()
	}
	worlds := 0
	for _, c := range counts {
		worlds += c
	}
	ev.noteSweep(worlds, stop.Load())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// poolIntersect computes ⋂ of the results of a sweep's n worlds.  Each
// worker keeps its running intersection as a slice of tuples — per world
// only membership probes against the result, no relation copying — and an
// empty one stops the sweep: the global intersection is empty too.  The
// locals are intersected in worker order at the end.  It returns the
// surviving tuples and the schema of the results.
func (ev *Evaluator) poolIntersect(n, workers int, newWorker worldWorker) ([]table.Tuple, schema.Relation, error) {
	type local struct {
		started bool
		rs      schema.Relation
		tuples  []table.Tuple
	}
	locals := make([]local, poolSize(n, workers))
	err := ev.runPool(n, len(locals), newWorker, func(w int, rel *table.Relation) bool {
		l := &locals[w]
		if !l.started {
			l.started, l.rs = true, rel.Schema()
			rel.Each(func(t table.Tuple) bool {
				l.tuples = append(l.tuples, t.Clone())
				return true
			})
		} else {
			l.tuples = slices.DeleteFunc(l.tuples, func(t table.Tuple) bool { return !rel.Contains(t) })
		}
		return len(l.tuples) > 0
	})
	if err != nil {
		return nil, schema.Relation{}, err
	}
	var out *local
	for i := range locals {
		l := &locals[i]
		switch {
		case !l.started:
		case out == nil:
			out = l
		case len(out.tuples) > 0:
			set := table.NewRelation(l.rs)
			set.MustAddBatch(l.tuples)
			out.tuples = slices.DeleteFunc(out.tuples, func(t table.Tuple) bool { return !set.Contains(t) })
		}
	}
	if out == nil {
		return nil, schema.Relation{}, errNoWorlds
	}
	return out.tuples, out.rs, nil
}

// poolCollect gathers the distinct results of a sweep's n worlds, each
// worker deduplicating by canonical key in the order it finds them, and the
// locals merged in worker order: the answers come out in the order of their
// first world, whatever the number of workers.  normalize, when set, is
// applied to a world's result before it is keyed.
func (ev *Evaluator) poolCollect(n, workers int, newWorker worldWorker, normalize func(*table.Relation)) ([]*table.Relation, error) {
	type keyed struct {
		key string
		rel *table.Relation
	}
	locals := make([][]keyed, poolSize(n, workers))
	seenLocal := make([]map[string]bool, len(locals))
	for w := range seenLocal {
		seenLocal[w] = map[string]bool{}
	}
	err := ev.runPool(n, len(locals), newWorker, func(w int, rel *table.Relation) bool {
		if normalize != nil {
			normalize(rel)
		}
		if k := rel.CanonicalKey(); !seenLocal[w][k] {
			seenLocal[w][k] = true
			locals[w] = append(locals[w], keyed{key: k, rel: rel.Clone()})
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var answers []*table.Relation
	for _, l := range locals {
		for _, kr := range l {
			if !seen[kr.key] {
				seen[kr.key] = true
				answers = append(answers, kr.rel)
			}
		}
	}
	return answers, nil
}

// poolAllNonempty reports whether every one of a sweep's n worlds has a
// nonempty result, stopping the sweep at the first counterexample.
func (ev *Evaluator) poolAllNonempty(n, workers int, newWorker worldWorker) (bool, error) {
	empty := make([]bool, poolSize(n, workers))
	err := ev.runPool(n, len(empty), newWorker, func(w int, rel *table.Relation) bool {
		empty[w] = rel.Len() == 0
		return !empty[w]
	})
	return err == nil && !slices.Contains(empty, true), err
}
