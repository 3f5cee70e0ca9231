// Package inc maintains materialized certain-answer views incrementally
// over snapshot deltas: a registered query's answer is computed once, and
// every subsequent database update refreshes it from the captured
// per-relation tuple deltas (table.Tracker) instead of re-evaluating the
// query — the paper's certain answers promoted to first-class objects that
// survive updates.
//
// Two maintenance strategies coexist, chosen at registration:
//
//   - Incremental (the default for naïve-evaluation answers): the query is
//     rewritten by the planner (internal/plan) and compiled into a delta
//     network — one node per operator, holding derivation counts,
//     incrementally maintained join indexes, or side membership sets as its
//     delta rule requires (see network.go).  A refresh costs work
//     proportional to the update's delta, not to the database.
//   - Recompute (world-enumeration modes, division, the Δ operator): the
//     view re-evaluates through the engine's evaluator — whose world-plan
//     caches reuse hoisted stable subplans across snapshots — but only when
//     the update can actually affect the answer: for division that means a
//     relation the query reads changed; for answers depending on the whole
//     active domain (Δ, and the world-enumeration modes, whose enumeration
//     domain collects every relation's constants) any net-nonempty update.
//
// Either way an update whose net delta cannot affect the view is a no-op
// validated without touching the answer (the "stamp-validated skip": the
// captured change set is exact, so untouched stamps mean untouched
// answers).
//
// Views are not internally synchronized: the engine (internal/engine)
// owns them and serializes Apply with its writer lock, handing out
// answers as copy-on-write clones that concurrent readers may keep.
package inc

import (
	"errors"
	"fmt"

	"incdata/internal/plan"
	"incdata/internal/ra"
	"incdata/internal/table"
)

// RecomputeFunc re-evaluates a view's answer from scratch on a database
// state.  The engine supplies one that routes through its evaluator with
// the view's registered options.
type RecomputeFunc func(db *table.Database) (*table.Relation, error)

// Config controls how a view is built and maintained.
type Config struct {
	// CompleteOnly keeps only null-free tuples in the maintained answer
	// (certain answers by naïve evaluation, equation (4)); without it the
	// view maintains the raw naïve answer, nulls included.
	CompleteOnly bool

	// Recompute re-evaluates the view from scratch; it is required, and is
	// the only evaluation path when ForceRecompute is set or the query has
	// no incremental network.
	Recompute RecomputeFunc

	// ForceRecompute disables the delta network even for maintainable
	// queries; refreshes recompute (still skipping irrelevant updates).
	ForceRecompute bool

	// WholeDB marks the view's answer as depending on the whole database,
	// not just the relations the query reads — the engine sets it for the
	// world-enumeration modes, whose enumeration domain is built from
	// every relation's constants, so an insert anywhere can change the
	// answer.  Such views refresh on every net-nonempty update.  It
	// implies ForceRecompute.
	WholeDB bool
}

// Stats counts a view's refresh traffic since registration.
type Stats struct {
	// Updates is the number of database updates delivered to the view.
	Updates uint64
	// Skipped counts updates whose captured delta touched no relation the
	// view reads — validated as no-ops without touching the answer.
	Skipped uint64
	// Incremental counts refreshes served by the delta network.
	Incremental uint64
	// Recomputed counts refreshes served by full re-evaluation.
	Recomputed uint64
	// DeltaIn is the total number of base-relation delta tuples consumed
	// by incremental refreshes.
	DeltaIn uint64
	// DeltaOut is the total number of answer tuples changed by incremental
	// refreshes.
	DeltaOut uint64
	// Failed counts refreshes whose recomputation errored, leaving the
	// view stale until a later refresh succeeds.
	Failed uint64
}

// View is one materialized query answer maintained across updates.
type View struct {
	name         string
	query        ra.Expr
	deps         []string
	wholeDB      bool
	completeOnly bool
	net          *network
	recompute    RecomputeFunc
	out          *table.Relation
	stale        error // non-nil after a failed refresh, until one succeeds
	stats        Stats
	// acc accumulates the net change of the maintained answer since the
	// last TakeDelta (nil while nothing changed).  It is what lets a
	// serving layer push exactly the changed answer tuples to subscribers
	// instead of re-sending (or re-diffing) the whole materialization.
	acc *table.Delta
}

// New compiles and materializes a view over the database's current state.
// The query is validated and rewritten through the planner; queries with
// no incremental network (division, Δ) and configs with ForceRecompute
// fall back to cfg.Recompute for both initialization and refreshes.
func New(name string, q ra.Expr, db *table.Database, cfg Config) (*View, error) {
	if cfg.Recompute == nil {
		return nil, fmt.Errorf("inc: view %q needs a Recompute fallback", name)
	}
	if _, err := q.OutSchema(db.Schema()); err != nil {
		return nil, fmt.Errorf("inc: view %q: %w", name, err)
	}
	v := &View{
		name:         name,
		query:        q,
		completeOnly: cfg.CompleteOnly,
		recompute:    cfg.Recompute,
	}
	v.deps, v.wholeDB = ra.BaseRelations(q)
	v.wholeDB = v.wholeDB || cfg.WholeDB

	if !cfg.ForceRecompute && !v.wholeDB {
		rw, err := plan.Rewrite(q, db.Schema())
		if err != nil {
			return nil, fmt.Errorf("inc: view %q: %w", name, err)
		}
		net, err := buildNetwork(rw, db.Schema())
		switch {
		case err == nil:
			v.net = net
		case errors.Is(err, errUnsupported):
			// Recompute fallback below.
		default:
			return nil, fmt.Errorf("inc: view %q: %w", name, err)
		}
	}

	if v.net == nil {
		out, err := cfg.Recompute(db)
		if err != nil {
			return nil, fmt.Errorf("inc: view %q: %w", name, err)
		}
		v.out = out.Clone()
		return v, nil
	}

	// Initial materialization reuses the refresh path: feed the full
	// current contents of every read relation as inserts.
	v.out = table.NewRelation(v.net.root.rs)
	base := map[string][]change{}
	for _, dep := range v.deps {
		rel := db.Relation(dep)
		chs := make([]change, 0, rel.Len())
		rel.Each(func(t table.Tuple) bool {
			chs = append(chs, change{key: t.Key(), t: t, add: true})
			return true
		})
		base[dep] = chs
	}
	v.applyNetwork(base)
	// The initial materialization is the baseline subscribers start from,
	// not a change against anything: deltas accumulate only from here on.
	v.acc = nil
	return v, nil
}

// Name returns the view's registration name.
func (v *View) Name() string { return v.name }

// Query returns the registered query.
func (v *View) Query() ra.Expr { return v.query }

// Incremental reports whether the view is maintained by the delta network
// (as opposed to stamp-gated recomputation).
func (v *View) Incremental() bool { return v.net != nil }

// Deps returns the base relations the view reads.  Views that depend on
// the whole database (the Δ operator, Config.WholeDB) additionally treat
// every net-nonempty update as relevant, regardless of Deps.
func (v *View) Deps() []string { return v.deps }

// Stats returns the refresh counters.
func (v *View) Stats() Stats { return v.stats }

// Answer returns the maintained answer as a copy-on-write clone: callers
// may keep it across subsequent updates.  After a failed refresh the
// materialization no longer corresponds to any committed database state,
// so Answer returns the failure instead of the stale relation until a
// later refresh succeeds.  The caller must serialize Answer with Apply
// (the engine's lock does).
func (v *View) Answer() (*table.Relation, error) {
	if v.stale != nil {
		return nil, fmt.Errorf("inc: view %q is stale after a failed refresh: %w", v.name, v.stale)
	}
	return v.out.Clone(), nil
}

// Apply refreshes the view for one captured update.  The change set must
// be the exact net delta of db against the state the view last saw; the
// engine guarantees this by capturing every Update with a table.Tracker.
func (v *View) Apply(cs *table.ChangeSet, db *table.Database) error {
	v.stats.Updates++
	// A stale view must not skip: even an otherwise-irrelevant update is
	// its chance to recompute back to a committed state.
	if v.stale == nil && !v.relevant(cs) {
		v.stats.Skipped++
		return nil
	}
	if v.net == nil {
		v.stats.Recomputed++
		out, err := v.recompute(db)
		if err != nil {
			v.stats.Failed++
			v.stale = err
			return fmt.Errorf("inc: view %q: %w", v.name, err)
		}
		v.stale = nil
		old := v.out
		v.out = out.Clone()
		// Recomputation replaces the answer wholesale; recover the net
		// change by diffing so TakeDelta stays exact on this path too.
		v.out.Each(func(t table.Tuple) bool {
			if !old.Contains(t) {
				v.noteAnswer(t.Key(), t, true)
			}
			return true
		})
		old.Each(func(t table.Tuple) bool {
			if !v.out.Contains(t) {
				v.noteAnswer(t.Key(), t, false)
			}
			return true
		})
		return nil
	}
	v.stats.Incremental++
	base := map[string][]change{}
	for _, dep := range v.deps {
		d := cs.Delta(dep)
		if d.Empty() {
			continue
		}
		chs := make([]change, 0, d.Size())
		for k, t := range d.Deleted {
			chs = append(chs, change{key: k, t: t, add: false})
		}
		for k, t := range d.Inserted {
			chs = append(chs, change{key: k, t: t, add: true})
		}
		base[dep] = chs
		v.stats.DeltaIn += uint64(len(chs))
	}
	v.stats.DeltaOut += v.applyNetwork(base)
	return nil
}

// applyNetwork runs one network refresh and applies the root transitions
// to the materialized answer, returning the number of answer changes.
func (v *View) applyNetwork(base map[string][]change) uint64 {
	changed := uint64(0)
	for _, c := range v.net.refresh(base) {
		if v.completeOnly && c.t.HasNull() {
			continue
		}
		if c.add {
			if v.out.Contains(c.t) {
				continue
			}
			v.out.MustAdd(c.t)
		} else if !v.out.Remove(c.t) {
			continue
		}
		v.noteAnswer(c.key, c.t, c.add)
		changed++
	}
	return changed
}

// noteAnswer records one net answer change in the accumulated delta, with
// the same cancellation the capture layer applies: re-adding a tuple whose
// deletion is pending (or vice versa) cancels instead of double-counting.
func (v *View) noteAnswer(key string, t table.Tuple, add bool) {
	if v.acc == nil {
		v.acc = table.NewDelta()
	}
	if add {
		if _, ok := v.acc.Deleted[key]; ok {
			delete(v.acc.Deleted, key)
			return
		}
		v.acc.Inserted[key] = t
	} else {
		if _, ok := v.acc.Inserted[key]; ok {
			delete(v.acc.Inserted, key)
			return
		}
		v.acc.Deleted[key] = t
	}
}

// TakeDelta returns the net change of the maintained answer accumulated
// since the last TakeDelta (or since registration) and resets the
// accumulator.  Applying every taken delta, in take order, to a clone of
// the answer at registration reproduces the current answer exactly — the
// contract the server's subscriber streams are built on.  Like every View
// method, the caller must serialize TakeDelta with Apply (the engine's
// lock does).
func (v *View) TakeDelta() *table.Delta {
	d := v.acc
	v.acc = nil
	if d == nil {
		d = table.NewDelta()
	}
	return d
}

// relevant reports whether the update's net delta can affect the view.
func (v *View) relevant(cs *table.ChangeSet) bool {
	if v.wholeDB {
		return !cs.Empty()
	}
	for _, dep := range v.deps {
		if !cs.Delta(dep).Empty() {
			return true
		}
	}
	return false
}
