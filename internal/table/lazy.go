package table

// Lazy relation loading: the durable store (internal/store) hands the
// engine databases whose relations carry a loader instead of tuples, so
// Open costs O(manifest) and a relation's chunks are read from disk only
// when something first scans, probes, indexes or mutates it.
//
// The design constraint is that everything built on relation headers —
// content stamps, copy-on-write sharing, plan-cache validation, the
// derived index/partitioning/encoding caches — must behave exactly as if
// the tuples had been there all along.  Loading therefore populates the
// segments WITHOUT bumping the version or generation (the content is
// logically present from the start; materializing it changes nothing),
// and the load state is a pointer shared across copy-on-write shares, so
// a snapshot chain of an unloaded relation loads its chunks exactly once
// no matter which share touches the data first.

import (
	"fmt"
	"sync"

	"incdata/internal/schema"
)

// lazyLoad is the shared load state of one unloaded relation lineage.
// All shares of the relation point at the same instance; the mutex
// serializes the single load, and the loaded segments are shared by every
// side.  They carry a generation no header has, so whichever side writes
// first copies the segment it touches like any other frozen one.
type lazyLoad struct {
	mu   sync.Mutex
	fill func(add func(Tuple)) error
	segs []*segment // the loaded storage, set once under mu
	n    int
	done bool
}

// NewLazyRelation returns a relation over rs whose tuples are produced by
// fill on first access.  fill receives an add callback and must call it
// once per tuple (chunk by chunk, in any order; duplicates collapse); it
// runs at most once per lineage, even across copy-on-write shares and
// concurrent readers.  The relation behaves exactly like an eager one:
// its stamp is valid (and stable across the load) from the moment it is
// created.
//
// A failing load panics with the load error: by the time a loader runs,
// the caller is deep inside accessors (Each, Index, Len) that have no
// error channel, and a store whose chunks cannot be read is as broken as
// unreadable memory.  Callers who want to surface load errors gracefully
// call Preload first.
func NewLazyRelation(rs schema.Relation, fill func(add func(Tuple)) error) *Relation {
	r := &Relation{schema: rs, gen: nextGen(), encStats: &encStats{}}
	r.lazy.Store(&lazyLoad{fill: fill})
	return r
}

// ensure materializes a lazily loading relation's tuples; it is a cheap
// nil check on the overwhelmingly common eager path.  Every accessor and
// mutator of the segments calls it first.
func (r *Relation) ensure() {
	if r == nil {
		return
	}
	ls := r.lazy.Load()
	if ls == nil {
		return
	}
	ls.mu.Lock()
	if !ls.done {
		load := &Relation{schema: r.schema}
		load.initStorage(0)
		err := ls.fill(func(t Tuple) {
			load.insert(tupleHash(t), t)
		})
		if err != nil {
			ls.mu.Unlock()
			panic(fmt.Sprintf("table: lazy load of %s failed: %v", r.schema.Name, err))
		}
		ls.segs, ls.n = load.segs, load.n
		ls.done = true
		ls.fill = nil
	}
	r.segs, r.n = ls.segs, ls.n
	ls.mu.Unlock()
	// Publish "loaded" with release semantics: a goroutine that reads
	// lazy == nil afterwards also observes the assignments above.
	r.lazy.Store(nil)
}

// Preload forces a lazily loading relation to materialize now, returning
// the load error instead of panicking.  Eager relations return nil.
func (r *Relation) Preload() (err error) {
	if r == nil || r.lazy.Load() == nil {
		return nil
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	r.ensure()
	return nil
}

// Loaded reports whether the relation's tuples are materialized in
// memory (always true for eager relations).
func (r *Relation) Loaded() bool {
	return r == nil || r.lazy.Load() == nil
}

// dropLazy discards a pending loader without running it; Reset uses it
// when the content is about to be thrown away anyway.
func (r *Relation) dropLazy() {
	r.lazy.Store(nil)
}
