// Package engine is the unified evaluation facade of the library: one
// Engine per logical database that owns mode dispatch (naïve / certain /
// world-enumeration ground truth / certainO, with the query planner on or
// off), the plan caches and plan-session pools that used to be buried in
// package certain, and snapshot isolation over the copy-on-write relations
// of package table.
//
// The CLIs (cmd/incq, cmd/incbench), the experiment harness and the
// examples all evaluate through this facade; packages certain, ra and sqlx
// remain the underlying machinery and the reference oracle for
// differential tests, but are no longer entry points.
//
// # Concurrency
//
// All writes go through Update, which holds the engine lock.  Snapshot
// returns an immutable view sharing tuple storage copy-on-write with the
// live database: any number of goroutines may evaluate queries against
// snapshots while writers keep mutating, and each snapshot observes
// exactly the state at the time it was taken.  Eval/EvalBool/SQL on the
// Engine itself are shorthand for evaluating on the current snapshot.
//
// Plan caches are validated by content stamps (table.Stamp), so a cached
// world plan — including its stable subplan results and hash indexes — is
// reused across snapshots as long as the relations the query reads are
// unchanged, even when writers mutated other relations in between.
package engine

import (
	"errors"
	"fmt"
	"sync"

	"incdata/internal/certain"
	"incdata/internal/inc"
	"incdata/internal/ra"
	"incdata/internal/sqlx"
	"incdata/internal/store"
	"incdata/internal/table"
	"incdata/internal/version"
)

// Engine owns one logical database and everything needed to evaluate
// queries against it concurrently: the planner and oracle evaluators (each
// with its own plan caches and session pools), the current snapshot, and
// the registered maintained views (see views.go).
type Engine struct {
	mu   sync.Mutex
	db   *table.Database
	snap *table.Database // cached snapshot of db; nil after a write
	// lastSnap is the most recent snapshot ever taken, kept across writes:
	// rebuilding the snapshot after a commit reuses its headers for
	// relations the commit didn't touch (table.SnapshotReusing), so their
	// derived caches — indexes, partitionings, coded sidecars — survive.
	lastSnap *table.Database

	planned *certain.Evaluator
	oracle  *certain.Evaluator

	views    map[string]*inc.View // maintained views, refreshed inside Update
	viewRegs map[string]viewReg   // registration info, to rebuild views on Checkout/Merge

	// Version history (see history.go): nil until EnableHistory.  The
	// history has its own lock, so AsOf readers reconstruct historical
	// states without holding the engine lock; branch and pending are
	// engine-lock state.
	hist    *version.History
	branch  string           // checked-out branch
	pending *table.ChangeSet // net uncommitted changes since the last commit

	// Durable store (see durable.go): nil unless Persist/Open attached
	// one.  While attached, commits append log records and checkpoint
	// manifests under the engine lock.
	st              *store.Store
	checkpointEvery int // durable checkpoint interval (mirrors the history's)
}

// New creates an engine over db.  The engine adopts the database: all
// subsequent writes must go through Update, and readers must use Snapshot
// (or the Eval/EvalBool/SQL shorthands) — mutating db directly while the
// engine is in use breaks snapshot isolation.
func New(db *table.Database) *Engine {
	return &Engine{
		db:      db,
		planned: certain.NewEvaluator(true),
		oracle:  certain.NewEvaluator(false),
	}
}

// Update runs fn with exclusive access to the live database.  Concurrent
// readers holding snapshots are unaffected: the first write to each
// relation copies its tuple map, never the snapshots' view of it.  The
// cached current snapshot is invalidated whether or not fn fails, since a
// failing fn may have partially mutated the database.
//
// While maintained views are registered, the update's net tuple deltas are
// captured (table.Tracker) and every view is refreshed before Update
// returns — incrementally where the view's delta network allows, by
// re-evaluation otherwise, and not at all when the delta misses every
// relation the view reads.  Views are refreshed even when fn fails or
// panics, since fn may have committed partial mutations the views must
// track; a panic is re-raised after the tracker is detached and the views
// are consistent again.  While version history is enabled (EnableHistory)
// the same captured deltas also accumulate as the pending change set the
// next Commit turns into a commit.
//
// Every relation is loaded before fn runs, as a world sweep's are: a write
// to a relation whose stored chunk fails its check would otherwise panic.
// Such a chunk fails the update instead, with an error naming it, and fn
// does not run.
func (e *Engine) Update(fn func(db *table.Database) error) (err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := preload(e.db, nil, true); err != nil {
		return err
	}
	e.snap = nil
	if len(e.views) == 0 && e.hist == nil {
		return fn(e.db)
	}
	tr := e.db.Track()
	defer func() {
		cs := tr.Stop()
		if e.hist != nil {
			e.pending.Compose(cs)
		}
		for _, name := range e.viewNamesLocked() {
			if verr := e.views[name].Apply(cs, e.db); verr != nil {
				err = errors.Join(err, verr)
			}
		}
	}()
	return fn(e.db)
}

// Snapshot returns a consistent, immutable view of the database as of now.
// Snapshots are cheap (O(#relations), sharing tuple storage); between
// writes, repeated calls return views of the same underlying storage, so
// plan caches keep validating against it.
func (e *Engine) Snapshot() *Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.snap == nil {
		e.snap = e.db.SnapshotReusing(e.lastSnap)
		e.lastSnap = e.snap
	}
	return &Snapshot{eng: e, db: e.snap}
}

// Stats reports plan-cache traffic for both evaluation paths plus the
// refresh counters of every registered view, all captured in one critical
// section so the report is a coherent point-in-time snapshot even while
// writers commit and views refresh concurrently.  (A serving STATS
// endpoint calls this on every request; assembling the same report from
// Views/ViewStats would take the engine lock once per view and could
// interleave with a concurrent Unregister.)
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{Planned: e.planned.Stats(), Oracle: e.oracle.Stats()}
	if len(e.views) > 0 {
		st.Views = make(map[string]inc.Stats, len(e.views))
		for name, v := range e.views {
			st.Views[name] = v.Stats()
		}
	}
	for _, name := range e.db.RelationNames() {
		if es := e.db.Relation(name).EncodingStats(); es.Active() {
			if st.Encoding == nil {
				st.Encoding = map[string]table.EncodingStats{}
			}
			st.Encoding[name] = es
		}
	}
	return st
}

// Stats is the engine's cache-statistics report.
type Stats struct {
	// Planned counts the planner path's caches; Oracle is the
	// naïve-evaluation path (whose caches stay empty — it compiles no
	// plans — but is reported for symmetry).
	Planned certain.CacheStats
	Oracle  certain.CacheStats
	// Views maps each registered view name to its refresh counters, as of
	// the same instant the cache counters were read; nil when no views are
	// registered.
	Views map[string]inc.Stats
	// Encoding maps each live relation to its sidecar and access-path
	// counters: coded sidecars built from nothing, encoding blocks and index
	// shards carried forward across writes, and how equality selections on
	// it were served (IndexLookups, SelectScans) at what cost in hash indexes
	// (IndexBuilds, IndexPatches).  A coded join whose derived right side is
	// smaller than the relation asks the same rule for an index on its join
	// key, and counts the same way: a lookup when it probes that index, a
	// scan when it builds on the right side.  The counters are the relation
	// lineage's, whichever snapshot paid.  Relations with no such activity
	// are omitted; nil when none have any.
	Encoding map[string]table.EncodingStats
}

// evaluator picks the evaluator for the options' planner setting.
func (e *Engine) evaluator(o Options) *certain.Evaluator {
	if o.Planner == PlannerOff {
		return e.oracle
	}
	return e.planned
}

// Eval evaluates q on the current snapshot; see Snapshot.Eval.
func (e *Engine) Eval(q ra.Expr, opts Options) (*table.Relation, error) {
	return e.Snapshot().Eval(q, opts)
}

// Explain returns the physical plan the planner path evaluates q with
// (ModeNaive and ModeCertain): the operator tree, one operator per line,
// with the sargable conjuncts of every filtered base scan and, after an
// evaluation, the access path that scan took last, index(attrs) or scan
// with the reason no index answered.
func (e *Engine) Explain(q ra.Expr) (string, error) {
	e.mu.Lock()
	sc := e.db.Schema()
	e.mu.Unlock()
	return e.planned.Explain(q, sc)
}

// EvalBool evaluates a Boolean query on the current snapshot; see
// Snapshot.EvalBool.
func (e *Engine) EvalBool(q ra.Expr, opts Options) (bool, error) {
	return e.Snapshot().EvalBool(q, opts)
}

// SQL evaluates a SQL-semantics query on the current snapshot; see
// Snapshot.SQL.
func (e *Engine) SQL(q sqlx.Query) (*table.Relation, error) {
	return e.Snapshot().SQL(q)
}

// Compare runs ModeCertain against the ModeCertainCWA ground truth on the
// current snapshot; see Snapshot.Compare.
func (e *Engine) Compare(q ra.Expr, opts Options) (certain.Comparison, error) {
	return e.Snapshot().Compare(q, opts)
}

// Snapshot is an immutable view of an engine's database.  Its methods may
// be called from any number of goroutines, concurrently with writers
// updating the engine.
type Snapshot struct {
	eng *Engine
	db  *table.Database
}

// Database returns the snapshot's view of the database for inspection
// (printing, schema access).  It must not be mutated.
func (s *Snapshot) Database() *table.Database { return s.db }

// Eval evaluates the relational-algebra query under the options' mode and
// returns the answer relation.
func (s *Snapshot) Eval(q ra.Expr, opts Options) (*table.Relation, error) {
	if err := preload(s.db, q, opts.Mode.sweeps()); err != nil {
		return nil, err
	}
	return evalMode(s.eng.evaluator(opts), q, s.db, opts)
}

// preload loads the relations q reads from the store, or every relation
// when all is set, so that a chunk the store cannot read fails the query
// with an error naming it instead of panicking inside evaluation (see
// table.NewLazyRelation).  On a loaded relation it is one atomic load.
func preload(db *table.Database, q ra.Expr, all bool) error {
	names, wholeDB := ra.BaseRelations(q)
	if all || wholeDB {
		names = db.RelationNames()
	}
	for _, name := range names {
		if err := db.Relation(name).Preload(); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	return nil
}

// evalMode dispatches one evaluation on an explicit evaluator and database
// state.  It is shared by Snapshot.Eval and the recompute path of
// maintained views (which runs under the engine lock and therefore must
// not go back through Snapshot).
func evalMode(ev *certain.Evaluator, q ra.Expr, db *table.Database, opts Options) (*table.Relation, error) {
	switch opts.Mode {
	case ModeCertain:
		return ev.NaiveWith(q, db, opts.evalConfig())
	case ModeNaive:
		return ev.NaiveRawWith(q, db, opts.evalConfig())
	case ModeCertainCWA:
		return ev.ByWorldsCWA(q, db, opts.certainOptions())
	case ModeCertainOWA:
		return ev.ByWorldsOWA(q, db, opts.certainOptions())
	case ModeCertainObject:
		return ev.CertainObjectCWA(q, db, opts.certainOptions())
	default:
		return nil, fmt.Errorf("engine: unknown mode %v", opts.Mode)
	}
}

// EvalBool computes the certain answer of a Boolean query under CWA world
// enumeration: true iff the query is nonempty in every world.  The mode in
// opts is ignored.
func (s *Snapshot) EvalBool(q ra.Expr, opts Options) (bool, error) {
	if err := preload(s.db, q, true); err != nil {
		return false, err
	}
	return s.eng.evaluator(opts).BoolCertainCWA(q, s.db, opts.certainOptions())
}

// SQL evaluates a SELECT-FROM-WHERE query under SQL's three-valued-logic
// semantics (the "practice" baseline the paper critiques).  A condition is
// handed the whole database, so every relation is loaded first.
func (s *Snapshot) SQL(q sqlx.Query) (*table.Relation, error) {
	if err := preload(s.db, nil, true); err != nil {
		return nil, err
	}
	return sqlx.Eval(q, s.db)
}

// Compare checks the ModeCertain answer against the ModeCertainCWA ground
// truth on this snapshot, reporting missing and spurious tuples.
func (s *Snapshot) Compare(q ra.Expr, opts Options) (certain.Comparison, error) {
	if err := preload(s.db, q, true); err != nil {
		return certain.Comparison{}, err
	}
	return s.eng.evaluator(opts).Compare(q, s.db, opts.certainOptions())
}
