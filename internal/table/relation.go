package table

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"incdata/internal/schema"
	"incdata/internal/value"
)

// Relation is a finite set of tuples of a fixed arity, together with its
// schema (name and attribute names).  The empty relation of any schema is
// valid.  Relation uses set semantics; Add silently deduplicates.
//
// Relations are copy-on-write: Clone, Rename and WithSchema share the
// underlying tuple storage, and the first subsequent mutation of either side
// copies the segment it touches (see segment.go; its slots and row headers,
// never the tuples, which are immutable once stored).  A tuple passed to Add
// is adopted by the relation and must not be mutated by the caller
// afterwards.
//
// Concurrency: any number of goroutines may read a relation, and build its
// derived structures (Encoding, Index, Partition), as long as nobody mutates
// that header; a header must not be mutated while anything else uses it.
// Writers and readers therefore work on different headers: the engine
// mutates the live database under its lock and readers evaluate over
// Database.Snapshot headers, which are frozen (mutating one is a bug, and a
// panic under the tablecheck build tag).
type Relation struct {
	schema     schema.Relation
	segs       []*segment                      // tuple storage, hash-segmented; the length is a power of two (see segment.go)
	n          int                             // tuples stored across segs
	shared     atomic.Bool                     // segs and every segment are reachable from another header
	frozen     bool                            // a Snapshot header: read-only by contract (see checkWritable)
	indexes    atomic.Pointer[[]*Index]        // lazily built hash indexes (see index.go)
	partitions atomic.Pointer[[]*Partitioning] // lazily built hash partitionings (see partition.go)
	encoding   atomic.Pointer[Encoding]        // lazily built coded sidecar (see encode.go)
	demands    atomic.Pointer[[]*selectDemand] // per key positions: scans served and selectivity (see access.go)
	encStats   *encStats                       // sidecar and access-path counters, shared across shares (see encode.go)
	lazy       atomic.Pointer[lazyLoad]        // pending on-demand load, nil once materialized (see lazy.go)
	version    uint64                          // bumped on every mutation (plan-cache validation)
	gen        uint64                          // storage generation, see Stamp
	rec        *recorder                       // delta capture hook, nil unless tracked (see delta.go)
}

// storageGen issues a process-unique generation id every time a relation
// takes exclusive ownership of its storage.  Copy-on-write shares carry the
// generation over, so two relations with the same generation read the same
// storage lineage.
var storageGen atomic.Uint64

// nextGen returns a fresh, never-before-issued storage generation.
func nextGen() uint64 { return storageGen.Add(1) }

// NewRelation creates an empty relation with the given schema.
func NewRelation(rs schema.Relation) *Relation {
	r := &Relation{schema: rs, encStats: &encStats{}}
	r.initStorage(0)
	return r
}

// NewRelationArity creates an empty relation named name with auto-named
// attributes of the given arity.
func NewRelationArity(name string, arity int) *Relation {
	return NewRelation(schema.WithArity(name, arity))
}

// FromTuples builds a relation with the given schema and tuples.  Tuples of
// the wrong arity cause an error.
func FromTuples(rs schema.Relation, tuples ...Tuple) (*Relation, error) {
	r := NewRelation(rs)
	for _, t := range tuples {
		if err := r.Add(t); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustFromTuples is FromTuples that panics on error.
func MustFromTuples(rs schema.Relation, tuples ...Tuple) *Relation {
	r, err := FromTuples(rs, tuples...)
	if err != nil {
		panic(err)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() schema.Relation { return r.schema }

// Name returns the relation name.
func (r *Relation) Name() string { return r.schema.Name }

// Arity returns the relation arity.
func (r *Relation) Arity() int { return r.schema.Arity() }

// Len returns the number of (distinct) tuples.
func (r *Relation) Len() int {
	if r == nil {
		return 0
	}
	r.ensure()
	return r.n
}

// Stamp identifies the content of a relation's tuple storage: the storage
// generation (process-unique per exclusive owner, carried across
// copy-on-write shares) plus the mutation counter.  Two relations whose
// stamps are equal hold identical tuple sets — either they share the same
// frozen segments, or the stamp belongs to the single exclusive owner —
// which is what lets plan caches validate entries across database snapshots
// without pointer identity.
type Stamp struct {
	Gen uint64
	Ver uint64
}

// Stamp returns the relation's content stamp.  It is not synchronized:
// it must not race with mutations of the relation — the same contract as
// reading the relation itself.
func (r *Relation) Stamp() Stamp {
	if r == nil {
		return Stamp{}
	}
	return Stamp{Gen: r.gen, Ver: r.version}
}

// mutable prepares r for a mutation: it bumps the version, drops the
// derived structures, and stops sharing, by taking a fresh generation —
// which leaves every segment frozen until writable copies the one a write
// touches — and its own copy of the segment pointer array.  A relation
// that has outgrown (or shrunk out of) its segment count is rehashed into
// the right number of segments instead: this is the one place that
// happens, see segment.go.
func (r *Relation) mutable() {
	r.ensure()
	r.checkWritable()
	r.version++
	r.invalidateDerived()
	if r.shared.Load() {
		r.gen = nextGen()
		r.shared.Store(false)
		if s := fitCount(r.n, len(r.segs)); s != len(r.segs) {
			r.resize(s)
		} else {
			r.segs = slices.Clone(r.segs)
		}
	}
}

// checkWritable panics on a mutation of a Snapshot header when the package
// is built with the tablecheck tag (CI's race jobs are): readers build
// sidecars from such headers without synchronisation, which is only sound
// while nobody writes them.
func (r *Relation) checkWritable() {
	if tablecheck && r.frozen {
		panic("table: mutation of a frozen snapshot relation " + r.schema.Name)
	}
}

// share returns a relation sharing r's tuple storage copy-on-write; both
// sides stop sharing before their next mutation.
func (r *Relation) share() *Relation {
	r.shared.Store(true)
	// A pending lazy load is shared: whichever side touches the tuples
	// first materializes the one shared storage for the whole lineage.  The
	// load state must be read BEFORE the segments: concurrent readers may
	// ensure() r between the two reads, and reading lazy first guarantees
	// that a nil here means the loaded storage is already visible (ensure
	// publishes it with a release store on the lazy pointer).
	ls := r.lazy.Load()
	out := &Relation{schema: r.schema, segs: r.segs, n: r.n, version: r.version, gen: r.gen, encStats: r.encStats}
	out.shared.Store(true)
	out.lazy.Store(ls)
	// The share reads the same frozen segments, so every derived structure
	// of r serves it as it is.
	out.encoding.Store(r.encoding.Load())
	out.indexes.Store(r.indexes.Load())
	out.partitions.Store(r.partitions.Load())
	out.demands.Store(cloneDemands(r.demands.Load()))
	return out
}

// adoptCandidates hands r, a fresh share of a later state of the relation
// p is a snapshot of, those of p's encoding and indexes that are worth
// bringing up to date for r's segments (patchable); each is when it is
// next asked for.  Kinds r already has (the live header had built its own)
// are left alone, and partitionings are not carried: they rebuild in full.
// The selection demand p has seen carries over with them (access.go) — the
// write in between reset the live header's, not what readers have asked
// for — as long as the relation still has the segment count it was recorded
// at: a relation that has doubled or halved since is sampled and counted
// afresh, as its sidecars are rebuilt.
func (r *Relation) adoptCandidates(p *Relation) {
	if e := p.encoding.Load(); e != nil && r.encoding.Load() == nil && patchable(e.segs, r.segs) {
		r.encoding.Store(e)
	}
	if r.indexes.Load() == nil {
		r.indexes.Store(patchableSidecars(p.indexes.Load(), func(ix *Index) []*segment { return ix.segs }, r.segs))
	}
	if r.demands.Load() == nil && len(p.segs) == len(r.segs) {
		r.demands.Store(cloneDemands(p.demands.Load()))
	}
}

// Add inserts a tuple; duplicates are ignored.  The arity must match.  The
// relation adopts t: callers must not mutate it after Add returns.
func (r *Relation) Add(t Tuple) error {
	if len(t) != r.schema.Arity() {
		return fmt.Errorf("table: tuple %v has arity %d, relation %s has arity %d",
			t, len(t), r.schema.Name, r.schema.Arity())
	}
	r.mutable()
	r.insert(tupleHash(t), t)
	return nil
}

// MustAdd is Add that panics on arity mismatch.
func (r *Relation) MustAdd(t Tuple) {
	if err := r.Add(t); err != nil {
		panic(err)
	}
}

// AddBatch inserts a batch of tuples with a single mutation step: one
// version bump, one sharing check and one derived-cache invalidation for
// the whole batch, instead of one per tuple.  The chunked executor
// (internal/plan) materializes operator output through it.  Like Add, the
// relation adopts the tuples; duplicates are ignored.
func (r *Relation) AddBatch(ts []Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	arity := r.schema.Arity()
	for _, t := range ts {
		if len(t) != arity {
			return fmt.Errorf("table: tuple %v has arity %d, relation %s has arity %d",
				t, len(t), r.schema.Name, arity)
		}
	}
	r.mutable()
	for _, t := range ts {
		r.insert(tupleHash(t), t)
	}
	return nil
}

// MustAddBatch is AddBatch that panics on arity mismatch.
func (r *Relation) MustAddBatch(ts []Tuple) {
	if err := r.AddBatch(ts); err != nil {
		panic(err)
	}
}

// AddAll inserts all tuples of another relation (arity must match).  The
// hashes o's segments hold are reused, so no tuple is re-encoded or copied;
// an empty, untracked r takes copies of o's segments whole.
func (r *Relation) AddAll(o *Relation) error {
	if o.Len() == 0 {
		return nil
	}
	if o.Arity() != r.schema.Arity() {
		return fmt.Errorf("table: AddAll of arity %d into relation %s of arity %d",
			o.Arity(), r.schema.Name, r.schema.Arity())
	}
	r.mutable()
	if r.n == 0 && !r.tracked() {
		segs := make([]*segment, len(o.segs))
		for j, s := range o.segs {
			segs[j] = s.copyFor(r.gen)
		}
		r.segs, r.n = segs, o.n
		return nil
	}
	for _, s := range o.segs {
		s.eachHashed(func(h uint64, t Tuple) bool {
			r.insert(h, t)
			return true
		})
	}
	return nil
}

// Remove deletes a tuple if present and reports whether it was there.
func (r *Relation) Remove(t Tuple) bool {
	if r.Len() == 0 {
		return false
	}
	h := tupleHash(t)
	if !r.has(h, t) {
		return false
	}
	r.mutable()
	return r.remove(h, t) // mutable may have moved it to another segment
}

// Contains reports whether the tuple is present (marked-null identity).  Its
// key is built and hashed in a stack buffer, so a probe never allocates.
func (r *Relation) Contains(t Tuple) bool {
	if r.Len() == 0 {
		return false
	}
	return r.has(tupleHash(t), t)
}

// Tuples returns the tuples in canonical (sorted) order.  The returned
// slice and its tuples are copies; mutating them does not affect r.
func (r *Relation) Tuples() []Tuple {
	out := r.SortedTuples()
	for i, t := range out {
		out[i] = t.Clone()
	}
	return out
}

// SortedTuples returns the stored tuples in canonical (sorted) order
// without copying them.  The tuples are shared with the relation and must
// not be mutated; the slice itself is fresh.  Deterministic-order
// consumers that only read (core computation, direct products) use this
// instead of Tuples to avoid the per-tuple clones.
func (r *Relation) SortedTuples() []Tuple {
	if r == nil {
		return nil
	}
	r.ensure()
	out := make([]Tuple, 0, r.n)
	for _, s := range r.segs {
		out = append(out, s.rows...)
	}
	SortTuples(out)
	return out
}

// Each calls f on every tuple (in unspecified order) until f returns false.
// The tuple passed to f must not be mutated.
func (r *Relation) Each(f func(Tuple) bool) {
	if r == nil {
		return
	}
	r.ensure()
	for _, s := range r.segs {
		for _, t := range s.rows {
			if !f(t) {
				return
			}
		}
	}
}

// Clone returns a copy of the relation.  The copy is made lazily: both
// relations share the segments, and a mutation of either copies the one it
// touches.
func (r *Relation) Clone() *Relation { return r.share() }

// Rename returns a copy of the relation under a new name (same tuples,
// shared copy-on-write).
func (r *Relation) Rename(name string) *Relation {
	out := r.share()
	out.schema = r.schema.Rename(name)
	return out
}

// WithSchema returns a relation with the same tuples (shared copy-on-write)
// under a different schema of the same arity; it panics on arity mismatch.
func (r *Relation) WithSchema(rs schema.Relation) *Relation {
	if rs.Arity() != r.schema.Arity() {
		panic(fmt.Sprintf("table: WithSchema arity %d on relation of arity %d", rs.Arity(), r.schema.Arity()))
	}
	out := r.share()
	out.schema = rs
	return out
}

// Equal reports set equality of tuples; the relation names and attribute
// names are ignored, only arity and contents matter.
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() || r.Arity() != o.Arity() {
		return false
	}
	aligned := len(r.segs) == len(o.segs)
	equal := true
	for j, s := range r.segs {
		if aligned && s == o.segs[j] {
			continue // the same frozen segment on both sides
		}
		s.eachHashed(func(h uint64, t Tuple) bool {
			equal = o.has(h, t)
			return equal
		})
		if !equal {
			return false
		}
	}
	return true
}

// IsComplete reports whether no tuple contains a null.
func (r *Relation) IsComplete() bool {
	complete := true
	r.Each(func(t Tuple) bool {
		complete = !t.HasNull()
		return complete
	})
	return complete
}

// IsCodd reports whether the relation is a Codd table: every null occurs at
// most once in the whole relation.
func (r *Relation) IsCodd() bool {
	seen := map[value.Value]bool{}
	codd := true
	r.Each(func(t Tuple) bool {
		for _, v := range t {
			if v.IsNull() {
				if seen[v] {
					codd = false
					return false
				}
				seen[v] = true
			}
		}
		return true
	})
	return codd
}

// CompletePart returns the sub-relation of null-free tuples (D_cmpl in the
// paper: the part of the answer kept when extracting certain answers).  A
// relation that is already complete is shared copy-on-write rather than
// copied.
func (r *Relation) CompletePart() *Relation {
	if r.IsComplete() {
		return r.share()
	}
	return r.Filter(func(t Tuple) bool { return t.IsComplete() })
}

// Nulls returns the set of nulls occurring in the relation.
func (r *Relation) Nulls() map[value.Value]bool {
	out := map[value.Value]bool{}
	r.Each(func(t Tuple) bool {
		for _, v := range t {
			if v.IsNull() {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// Consts returns the set of constants occurring in the relation.
func (r *Relation) Consts() map[value.Value]bool {
	out := map[value.Value]bool{}
	r.Each(func(t Tuple) bool {
		for _, v := range t {
			if v.IsConst() {
				out[v] = true
			}
		}
		return true
	})
	return out
}

// ActiveDomain returns adom(r) = Consts(r) ∪ Nulls(r).
func (r *Relation) ActiveDomain() map[value.Value]bool {
	out := map[value.Value]bool{}
	r.Each(func(t Tuple) bool {
		for _, v := range t {
			out[v] = true
		}
		return true
	})
	return out
}

// Map applies f to every value of every tuple and returns the resulting
// relation (useful for applying valuations and homomorphisms).  Tuples that
// f leaves unchanged are shared, and keep their hashes.
func (r *Relation) Map(f func(value.Value) value.Value) *Relation {
	out := &Relation{schema: r.schema}
	out.initStorage(r.Len())
	out.fillMapped(r, f)
	return out
}

// FillMapped resets r in place to f applied to every tuple of src, adopting
// src's schema.  The storage of a single-segment r is reused across calls
// when r is not shared, which lets world-enumeration workers apply one
// valuation after another without reallocating.
func (r *Relation) FillMapped(src *Relation, f func(value.Value) value.Value) {
	r.Reset(src.schema)
	r.fillMapped(src, f)
}

// Reset clears r in place to the empty relation over rs, reusing the
// storage when r has one segment, with its table, and owns it exclusively.
// World enumeration uses it to recycle per-world scratch relations.
func (r *Relation) Reset(rs schema.Relation) {
	r.checkWritable()
	r.schema = rs
	r.version++
	r.invalidateDerived()
	// A tracked reset must record the deletion of every stored tuple, so a
	// pending lazy load has to materialize first; untracked resets throw
	// the content away unseen, so the loader is simply dropped.
	if r.tracked() {
		r.ensure()
	} else {
		r.dropLazy()
	}
	r.noteDeleteAll()
	if len(r.segs) == 1 && r.segs[0].gen == r.gen && !r.shared.Load() && !r.segs[0].deferred.Load() {
		s := r.segs[0]
		s.tab.reset()
		clear(s.rows)
		s.rows = s.rows[:0]
		r.n = 0
	} else {
		r.initStorage(0)
	}
}

func (r *Relation) fillMapped(src *Relation, f func(value.Value) value.Value) {
	src.ensure()
	for _, s := range src.segs {
		s.eachHashed(func(h uint64, t Tuple) bool {
			if nt, changed := t.mapChanged(f); changed {
				r.insert(tupleHash(nt), nt)
			} else {
				r.insert(h, t)
			}
			return true
		})
	}
}

// Filter returns the sub-relation of tuples satisfying pred.  Tuples and
// their hashes are shared with r, not copied or recomputed.
func (r *Relation) Filter(pred func(Tuple) bool) *Relation {
	r.ensure()
	out := &Relation{schema: r.schema}
	out.initStorage(0)
	seg := out.segs[0]
	for _, s := range r.segs {
		s.eachHashed(func(h uint64, t Tuple) bool {
			if pred(t) {
				seg.putNew(h, t)
			}
			return true
		})
	}
	out.n = len(seg.rows)
	return out
}

// Retain removes, in place, every tuple for which pred is false.  It is the
// allocation-free complement of Filter, used for running intersections.  A
// call that removes nothing is a read: version, stamp and sidecars stay as
// they are.  pred must be a pure function of the tuple; it is asked about a
// tuple a second time in the one case where the first removal finds the
// storage shared and due a rehash.
func (r *Relation) Retain(pred func(Tuple) bool) {
	r.ensure()
	r.checkWritable() // a mutator on a snapshot header is a bug whatever it would remove
	owned := false    // mutable has run: the removals go to r's own segments
scan:
	for i := 0; i < len(r.segs); i++ {
		// Backwards: a removal moves the last row into the hole, and that
		// row has been asked about already.
		for k := len(r.segs[i].rows) - 1; k >= 0; k-- {
			t := r.segs[i].rows[k]
			if pred(t) {
				continue
			}
			if !owned {
				owned = true
				segs := len(r.segs)
				r.mutable()
				if len(r.segs) != segs {
					// Rehashed into another segment count: nothing has been
					// removed yet, start over on the new segments.
					i = -1
					continue scan
				}
			}
			r.remove(tupleHash(t), t)
		}
	}
}

// appendCanonicalKey appends a canonical binary encoding of the relation's
// contents (its sorted tuple keys, count-prefixed) to dst.  The keys are
// built into one buffer of their exact size and sorted as spans of it.
func (r *Relation) appendCanonicalKey(dst []byte) []byte {
	r.ensure()
	size := 0
	var buf [keyBufSize]byte
	scratch := buf[:0]
	for _, s := range r.segs {
		for _, t := range s.rows {
			scratch = t.AppendKey(scratch[:0])
			size += len(scratch)
		}
	}
	type span struct{ lo, hi uint32 }
	keys := make([]byte, 0, size)
	spans := make([]span, 0, r.n)
	for _, s := range r.segs {
		for _, t := range s.rows {
			lo := len(keys)
			keys = t.AppendKey(keys)
			spans = append(spans, span{uint32(lo), uint32(len(keys))})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return bytes.Compare(keys[a.lo:a.hi], keys[b.lo:b.hi]) })
	dst = slices.Grow(dst, binary.MaxVarintLen64+size)
	dst = binary.AppendUvarint(dst, uint64(len(spans)))
	for _, sp := range spans {
		dst = append(dst, keys[sp.lo:sp.hi]...)
	}
	return dst
}

// CanonicalKey returns a canonical encoding of the relation's tuple set:
// two relations have equal canonical keys iff they contain the same tuples.
// It is much cheaper than String and is used to deduplicate worlds and
// answers during enumeration.
func (r *Relation) CanonicalKey() string {
	return string(r.appendCanonicalKey(nil))
}

// String renders the relation as Name{(t1), (t2), ...} in canonical order.
func (r *Relation) String() string {
	ts := r.SortedTuples()
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return r.schema.Name + "{" + strings.Join(parts, ", ") + "}"
}
