package engine

import (
	"fmt"
	"sort"

	"incdata/internal/inc"
	"incdata/internal/ra"
	"incdata/internal/table"
)

// Maintained views: Register materializes a query's answer once and the
// engine keeps it current across Updates from the captured per-relation
// tuple deltas — see package inc for the maintenance machinery.  All view
// state is guarded by the engine lock: registration, refresh (inside
// Update) and Answers are serialized with writers, and the relations
// Answers returns are copy-on-write clones that remain valid while the
// engine moves on.

// Register compiles, materializes and maintains the query as a named view
// evaluated under opts.  ModeCertain and ModeNaive views with the planner
// enabled are maintained incrementally through a delta-propagation network
// when the query's shape allows it; every other configuration —
// PlannerOff, division, the Δ operator — falls back to full
// re-evaluation, skipping updates that touch no relation the query reads.
// The world-enumeration modes also recompute, but refresh on every
// net-nonempty update: their enumeration domain is built from the whole
// database's constants, so an insert into an unread relation can change
// the answer.  The initial materialization evaluates against the current
// database state.
func (e *Engine) Register(name string, q ra.Expr, opts Options) error {
	if name == "" {
		return fmt.Errorf("engine: view name must be non-empty")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.views[name]; dup {
		return fmt.Errorf("engine: view %q is already registered", name)
	}
	v, err := e.buildViewLocked(name, q, opts)
	if err != nil {
		return err
	}
	if e.views == nil {
		e.views = map[string]*inc.View{}
		e.viewRegs = map[string]viewReg{}
	}
	e.views[name] = v
	e.viewRegs[name] = viewReg{q: q, opts: opts}
	return nil
}

// viewReg remembers how a view was registered so Checkout and Merge can
// rebuild it against a new head state.
type viewReg struct {
	q    ra.Expr
	opts Options
}

// buildViewLocked compiles and materializes a view against the current
// live database; the caller holds e.mu.
func (e *Engine) buildViewLocked(name string, q ra.Expr, opts Options) (*inc.View, error) {
	if err := preload(e.db, q, opts.Mode.sweeps()); err != nil {
		return nil, err
	}
	ev := e.evaluator(opts)
	incremental := !opts.Mode.sweeps()
	cfg := inc.Config{
		CompleteOnly: opts.Mode == ModeCertain,
		Recompute: func(db *table.Database) (*table.Relation, error) {
			return evalMode(ev, q, db, opts)
		},
		ForceRecompute: !incremental || opts.Planner == PlannerOff,
		WholeDB:        !incremental,
	}
	v, err := inc.New(name, q, e.db, cfg)
	if err != nil {
		return nil, fmt.Errorf("engine: register %q: %w", name, err)
	}
	return v, nil
}

// rebuildViewsLocked re-materializes every registered view against the
// current live database (after Checkout or Merge swapped it).  The views
// stay registered under their names; their refresh counters restart.  The
// caller holds e.mu.
func (e *Engine) rebuildViewsLocked() error {
	var firstErr error
	for _, name := range e.viewNamesLocked() {
		reg := e.viewRegs[name]
		v, err := e.buildViewLocked(name, reg.q, reg.opts)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		e.views[name] = v
	}
	return firstErr
}

// Unregister drops a maintained view, reporting whether it existed.
func (e *Engine) Unregister(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.views[name]
	delete(e.views, name)
	delete(e.viewRegs, name)
	return ok
}

// Answers returns the maintained answer of a registered view as of the
// last committed Update.  The returned relation is a copy-on-write clone:
// the caller may keep reading it while the engine refreshes the view.
// After a failed refresh (a recompute error surfaced by Update) the view
// is stale and Answers returns that failure until a later Update
// refreshes it successfully.
func (e *Engine) Answers(name string) (*table.Relation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.views[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown view %q", name)
	}
	return v.Answer()
}

// Views returns the registered view names in sorted order.
func (e *Engine) Views() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.viewNamesLocked()
}

// ViewStats reports a registered view's refresh counters: how many updates
// it saw, how many were skipped as irrelevant, and how much delta volume
// the incremental refreshes moved.
func (e *Engine) ViewStats(name string) (inc.Stats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.views[name]
	if !ok {
		return inc.Stats{}, fmt.Errorf("engine: unknown view %q", name)
	}
	return v.Stats(), nil
}

// ViewIncremental reports whether a registered view is maintained by the
// delta network (as opposed to stamp-gated recomputation).
func (e *Engine) ViewIncremental(name string) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.views[name]
	if !ok {
		return false, fmt.Errorf("engine: unknown view %q", name)
	}
	return v.Incremental(), nil
}

// viewNamesLocked returns the view names sorted; the caller holds e.mu.
func (e *Engine) viewNamesLocked() []string {
	names := make([]string, 0, len(e.views))
	for n := range e.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
