package certain

import (
	"runtime"
	"sync"
	"sync/atomic"

	"incdata/internal/plan"
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

// forEachWorldAnswer evaluates q on every CWA world of d over dom through a
// valuation view, calling fn with each answer.  The answer passed to fn is
// only valid during the call; fn must Clone it (copy-on-write, cheap) to
// retain it.  Enumeration stops early when fn returns false.  Valuations
// yielding identical worlds are not deduplicated — re-evaluating a
// duplicate world is cheaper than detecting it, and the certain-answer
// combinators (intersection, GLB after answer dedup) are insensitive to
// multiplicity.
func (ev *Evaluator) forEachWorldAnswer(q ra.Expr, d *table.Database, dom semantics.Domain, fn func(*table.Relation) bool) error {
	view := newWorldView(d)
	var evalErr error
	ev.enumerate(d.SortedNulls(), dom, func(v valuation.Valuation) bool {
		view.setValuation(v)
		ans, err := ra.EvalDB(q, view)
		if err != nil {
			evalErr = err
			return false
		}
		return fn(ans)
	})
	return evalErr
}

// intersectWorldsCWA computes ⋂ { Q(v(D)) | v } over dom, maintaining a
// running intersection and aborting the enumeration as soon as it is empty
// (sound for any query: intersecting further worlds cannot grow it).  With
// a world plan (wp, from sweepPlan) the query is factored into a
// world-invariant stable part and per-valuation deltas, and only the
// deltas are intersected (see planned.go); a nil wp takes the oracle path,
// which remains for planner-off runs and for expressions the planner
// rejects.
func (ev *Evaluator) intersectWorldsCWA(wp *plan.WorldPlan, q ra.Expr, d *table.Database, dom semantics.Domain, workers int) (*table.Relation, error) {
	if wp != nil {
		return ev.intersectWorldsPlanned(wp, dom, workers)
	}
	if workers > 1 {
		return ev.poolIntersect(d.SortedNulls(), dom, workers, oracleWorker(q, d))
	}
	var running *table.Relation
	err := ev.forEachWorldAnswer(q, d, dom, func(ans *table.Relation) bool {
		if running == nil {
			running = ans.Clone()
		} else {
			running.Retain(ans.Contains)
		}
		return running.Len() > 0
	})
	if err != nil {
		return nil, err
	}
	if running == nil {
		return nil, errNoWorlds
	}
	return running, nil
}

// collectAnswersCWA evaluates q on every CWA world over dom and returns the
// distinct answers (deduplicated by canonical key; duplicate worlds and
// worlds with equal answers collapse).  The GLB construction is invariant
// under duplicates, so deduplication is purely an optimization.
func (ev *Evaluator) collectAnswersCWA(wp *plan.WorldPlan, q ra.Expr, d *table.Database, dom semantics.Domain, workers int) ([]*table.Relation, error) {
	if wp != nil {
		return ev.collectAnswersPlanned(wp, dom, workers)
	}
	if workers > 1 {
		return ev.poolCollect(d.SortedNulls(), dom, workers, oracleWorker(q, d), nil)
	}
	seen := map[string]bool{}
	var answers []*table.Relation
	err := ev.forEachWorldAnswer(q, d, dom, func(ans *table.Relation) bool {
		k := ans.CanonicalKey()
		if !seen[k] {
			seen[k] = true
			answers = append(answers, ans.Clone())
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return answers, nil
}

// valuationJobs feeds cloned valuations of the given nulls to workers,
// stopping early when the flag is raised.  It closes jobs when enumeration
// ends.
func valuationJobs(nulls []value.Value, dom semantics.Domain, stop *atomic.Bool) <-chan valuation.Valuation {
	// 64: feeder and workers trade the processor once a batch, not once a
	// world, when they have to share one.
	jobs := make(chan valuation.Valuation, 64)
	go func() {
		defer close(jobs)
		valuation.Enumerate(nulls, dom.Values(), func(v valuation.Valuation) bool {
			if stop.Load() {
				return false
			}
			jobs <- v.Clone()
			return true
		})
	}()
	return jobs
}

func workerCount(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// worldWorker gives a pool worker its own evaluation state: eval computes
// one world's result, valid until the worker's next call, and release hands
// the state back when the worker is done.
type worldWorker func() (eval func(valuation.Valuation) (*table.Relation, error), release func())

// oracleWorker evaluates q through a valuation view of d whose scratch is
// reused from world to world.
func oracleWorker(q ra.Expr, d *table.Database) worldWorker {
	return func() (func(valuation.Valuation) (*table.Relation, error), func()) {
		view := newWorldView(d)
		return func(v valuation.Valuation) (*table.Relation, error) {
			view.setValuation(v)
			return ra.EvalDB(q, view)
		}, func() {}
	}
}

// runPool splits the stream of valuations of nulls over a worker pool — the
// one concurrent world loop, under the oracle and the planned sweeps alike.
// Each worker calls work with every world's result, which work must clone
// to retain; work returning false, or an evaluation error, raises a stop
// flag that makes all workers drain the remaining jobs without evaluating
// them.  The sweep is counted once, when the pool has drained.
func (ev *Evaluator) runPool(nulls []value.Value, dom semantics.Domain, workers int, newWorker worldWorker,
	work func(w int, rel *table.Relation) bool) error {
	var stop atomic.Bool
	jobs := valuationJobs(nulls, dom, &stop)
	errs := make([]error, workers)
	var evaluated atomic.Int64 // worlds, added up as each worker finishes
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			eval, release := newWorker()
			defer release()
			worlds := 0
			for v := range jobs {
				if stop.Load() {
					continue // drain; the result is already decided
				}
				worlds++
				if rel, err := eval(v); err != nil {
					errs[w] = err
					stop.Store(true)
				} else if !work(w, rel) {
					stop.Store(true)
				}
			}
			evaluated.Add(int64(worlds))
		}(w)
	}
	wg.Wait()
	ev.noteSweep(int(evaluated.Load()), stop.Load())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// poolIntersect computes ⋂ of the worlds' results over a worker pool: each
// worker keeps a running local intersection, and the locals are intersected
// at the end.  Any empty local intersection makes the global result empty,
// so it raises the stop flag for early exit.
func (ev *Evaluator) poolIntersect(nulls []value.Value, dom semantics.Domain, workers int, newWorker worldWorker) (*table.Relation, error) {
	workers = workerCount(workers)
	locals := make([]*table.Relation, workers)
	err := ev.runPool(nulls, dom, workers, newWorker, func(w int, rel *table.Relation) bool {
		if locals[w] == nil {
			locals[w] = rel.Clone()
		} else {
			locals[w].Retain(rel.Contains)
		}
		return locals[w].Len() > 0
	})
	if err != nil {
		return nil, err
	}
	var running *table.Relation
	for _, local := range locals {
		if local == nil {
			continue
		}
		if running == nil || local.Len() == 0 {
			running = local
		} else {
			running.Retain(local.Contains)
		}
		if running.Len() == 0 {
			break
		}
	}
	if running == nil {
		return nil, errNoWorlds
	}
	return running, nil
}

// poolCollect gathers the distinct results over all worlds using a worker
// pool with local dedup by canonical key; normalize, when set, is applied
// to a world's result before it is keyed.
func (ev *Evaluator) poolCollect(nulls []value.Value, dom semantics.Domain, workers int, newWorker worldWorker,
	normalize func(*table.Relation)) ([]*table.Relation, error) {
	workers = workerCount(workers)
	type keyed struct {
		key string
		rel *table.Relation
	}
	locals := make([][]keyed, workers) // in the order found: the GLB's fold is sensitive to it
	seenLocal := make([]map[string]bool, workers)
	for w := range seenLocal {
		seenLocal[w] = map[string]bool{}
	}
	err := ev.runPool(nulls, dom, workers, newWorker, func(w int, rel *table.Relation) bool {
		if normalize != nil {
			normalize(rel)
		}
		k := rel.CanonicalKey()
		if !seenLocal[w][k] {
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

// answersOnWorlds evaluates the query on every (already materialized) world,
// possibly in parallel.  It remains the path for OWA enumeration with extra
// tuples, where worlds are genuine supersets that a valuation view cannot
// express.
func answersOnWorlds(q ra.Expr, worlds []*table.Database, workers int) ([]*table.Relation, error) {
	if workers > 1 {
		return parallelAnswers(q, worlds, workers)
	}
	out := make([]*table.Relation, len(worlds))
	for i, w := range worlds {
		r, err := ra.Eval(q, w)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// parallelAnswers evaluates the query on every world using a bounded worker
// pool.  World evaluation is embarrassingly parallel; only the final
// intersection / GLB is sequential.
func parallelAnswers(q ra.Expr, worlds []*table.Database, workers int) ([]*table.Relation, error) {
	workers = workerCount(workers)
	if workers > len(worlds) {
		workers = len(worlds)
	}
	if workers <= 1 {
		return answersOnWorlds(q, worlds, 1)
	}

	answers := make([]*table.Relation, len(worlds))
	errs := make([]error, len(worlds))
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				answers[i], errs[i] = ra.Eval(q, worlds[i])
			}
		}()
	}
	for i := range worlds {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}
