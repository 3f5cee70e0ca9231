package table

import (
	"fmt"
	"sort"
	"strings"
)

// Delta capture: the signal that drives incremental view maintenance
// (internal/inc).  A Tracker attached to a Database records, for every
// relation, the net set of tuples inserted and deleted since tracking
// started — normalized against the starting state, so an insert followed
// by a delete of the same tuple (or vice versa) cancels out and an update
// that ends where it began produces an empty delta.
//
// Tracking piggybacks on the existing mutation paths: every in-place
// mutator of Relation (Add, AddAll, Remove, Retain, Reset, FillMapped)
// notes the tuples it actually changes, and Database.SetRelation diffs the
// old and new contents.  Untracked relations — scratch relations inside
// plan sessions, snapshots, clones — carry a nil recorder and pay only a
// nil check.

// Delta is the net change of one relation between two points in time:
// Inserted holds tuples present now but not then, Deleted tuples present
// then but not now.  Both are keyed by the canonical tuple key
// (Tuple.Key); the two maps are always disjoint.
type Delta struct {
	Inserted map[string]Tuple
	Deleted  map[string]Tuple
}

// NewDelta returns an empty delta ready for composition.
func NewDelta() *Delta {
	return &Delta{Inserted: map[string]Tuple{}, Deleted: map[string]Tuple{}}
}

// Empty reports whether the delta records no net change.
func (d *Delta) Empty() bool {
	return d == nil || (len(d.Inserted) == 0 && len(d.Deleted) == 0)
}

// Size returns the total number of inserted plus deleted tuples.
func (d *Delta) Size() int {
	if d == nil {
		return 0
	}
	return len(d.Inserted) + len(d.Deleted)
}

// noteInsert records that the tuple keyed k became present.  A pending
// deletion of the same tuple cancels instead (the tuple is back where it
// started).
func (d *Delta) noteInsert(k string, t Tuple) {
	if _, ok := d.Deleted[k]; ok {
		delete(d.Deleted, k)
		return
	}
	d.Inserted[k] = t
}

// noteDelete records that the tuple keyed k became absent, cancelling a
// pending insertion of the same tuple.
func (d *Delta) noteDelete(k string, t Tuple) {
	if _, ok := d.Inserted[k]; ok {
		delete(d.Inserted, k)
		return
	}
	d.Deleted[k] = t
}

// Invert returns the reverse delta: applying it undoes d.  The returned
// delta shares d's maps (Inserted and Deleted are swapped, not copied), so
// neither side may be mutated afterwards — version history treats captured
// deltas as immutable, which is the intended use.
func (d *Delta) Invert() *Delta {
	if d == nil {
		return nil
	}
	return &Delta{Inserted: d.Deleted, Deleted: d.Inserted}
}

// compose folds a subsequent delta into d: d becomes the net change of
// applying d then next.  Because both deltas are exact (a tuple is only
// recorded deleted when present, inserted when absent), insert-then-delete
// and delete-then-insert of the same tuple cancel to no net change.
func (d *Delta) compose(next *Delta) {
	for k, t := range next.Deleted {
		d.noteDelete(k, t)
	}
	for k, t := range next.Inserted {
		d.noteInsert(k, t)
	}
}

// ChangeSet is the net change of a whole database between two points in
// time: one Delta per relation that was actually mutated.  Relations whose
// net change is empty may appear with an empty Delta (the mutation was
// undone) or not at all.
type ChangeSet struct {
	Rels map[string]*Delta
}

// NewChangeSet returns an empty change set ready for Compose.
func NewChangeSet() *ChangeSet {
	return &ChangeSet{Rels: map[string]*Delta{}}
}

// Empty reports whether no relation has a net change.
func (cs *ChangeSet) Empty() bool {
	if cs == nil {
		return true
	}
	for _, d := range cs.Rels {
		if !d.Empty() {
			return false
		}
	}
	return true
}

// Delta returns the named relation's delta, or nil when the relation was
// not mutated.
func (cs *ChangeSet) Delta(name string) *Delta {
	if cs == nil {
		return nil
	}
	return cs.Rels[name]
}

// Size returns the total number of inserted plus deleted tuples across all
// relations.
func (cs *ChangeSet) Size() int {
	n := 0
	if cs != nil {
		for _, d := range cs.Rels {
			n += d.Size()
		}
	}
	return n
}

// Compose folds a subsequent change set into cs: cs becomes the net change
// of applying cs then next.  The receiver must own its maps (start from
// NewChangeSet and only ever Compose into it); next is only read.  This is
// the replay primitive of version history: a chain of per-commit deltas
// composes into the net diff between two commits.
func (cs *ChangeSet) Compose(next *ChangeSet) {
	if next == nil {
		return
	}
	for name, nd := range next.Rels {
		if nd.Empty() {
			continue
		}
		d := cs.Rels[name]
		if d == nil {
			d = NewDelta()
			cs.Rels[name] = d
		}
		d.compose(nd)
	}
}

// Invert returns the reverse change set: applying it undoes cs.  Like
// Delta.Invert it shares the underlying maps, so both sides must be treated
// as immutable afterwards.
func (cs *ChangeSet) Invert() *ChangeSet {
	if cs == nil {
		return nil
	}
	out := &ChangeSet{Rels: make(map[string]*Delta, len(cs.Rels))}
	for name, d := range cs.Rels {
		out.Rels[name] = d.Invert()
	}
	return out
}

// RelationNames returns the names of relations with a non-empty net change,
// sorted.
func (cs *ChangeSet) RelationNames() []string {
	if cs == nil {
		return nil
	}
	names := make([]string, 0, len(cs.Rels))
	for n, d := range cs.Rels {
		if !d.Empty() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// String renders the change set relation by relation in sorted order, each
// delta as -deleted and +inserted tuples in canonical order — the format
// cmd/incq's -diff flag prints.
func (cs *ChangeSet) String() string {
	var b strings.Builder
	for _, name := range cs.RelationNames() {
		d := cs.Rels[name]
		fmt.Fprintf(&b, "%s (+%d -%d)\n", name, len(d.Inserted), len(d.Deleted))
		for _, t := range sortedDeltaTuples(d.Deleted) {
			fmt.Fprintf(&b, "  - %s\n", t)
		}
		for _, t := range sortedDeltaTuples(d.Inserted) {
			fmt.Fprintf(&b, "  + %s\n", t)
		}
	}
	return b.String()
}

// sortedDeltaTuples returns one side of a delta in canonical tuple order.
func sortedDeltaTuples(m map[string]Tuple) []Tuple {
	out := make([]Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	SortTuples(out)
	return out
}

// ApplyDelta replays a captured delta onto the relation in place: deleted
// tuples are removed, inserted tuples added (idempotently — tuples already
// in their target state are skipped).  The delta's tuples are adopted, not
// copied; they must come from the same schema lineage (arity is not
// re-checked).  Delta capture keeps working: a tracked relation notes the
// changes ApplyDelta makes, which is how version merges record their own
// commit delta.
func (r *Relation) ApplyDelta(d *Delta) {
	if d.Empty() {
		return
	}
	r.mutable()
	for _, t := range d.Deleted {
		r.remove(tupleHash(t), t)
	}
	for _, t := range d.Inserted {
		r.insert(tupleHash(t), t)
	}
}

// Apply replays a change set onto the database in place, relation by
// relation.  It is the checkpoint-replay hook of version history: a state
// equals its nearest checkpoint plus the composition of the deltas after
// it.  A delta for a relation the schema does not have is an error.
func (d *Database) Apply(cs *ChangeSet) error {
	if cs == nil {
		return nil
	}
	for name, delta := range cs.Rels {
		r := d.rels[name]
		if r == nil {
			return fmt.Errorf("table: apply: unknown relation %q", name)
		}
		r.ApplyDelta(delta)
	}
	return nil
}

// recorder is the per-relation capture hook.  It lives on the Relation so
// the in-place mutators can note changes without knowing about databases;
// the Tracker owns it and detaches it on Stop.  The Delta is allocated on
// the first actual change and registered in the change set at that point,
// so an update that never touches a relation costs nothing beyond the
// recorder itself (one slice slot, allocated in bulk by Track).
type recorder struct {
	cs    *ChangeSet
	name  string
	delta *Delta // nil until the first change
}

// get returns the recorder's delta, allocating and registering it on
// first use.
func (rec *recorder) get() *Delta {
	if rec.delta == nil {
		rec.delta = &Delta{Inserted: map[string]Tuple{}, Deleted: map[string]Tuple{}}
		rec.cs.Rels[rec.name] = rec.delta
	}
	return rec.delta
}

// tracked reports whether changes must be recorded; mutators call it
// before doing per-tuple bookkeeping so untracked relations skip the work.
func (r *Relation) tracked() bool { return r != nil && r.rec != nil }

// noteInsert and noteDelete record a change of a tracked relation under the
// tuple's key: a change set is keyed, so a tracked write is the one that
// builds a key string.
func (r *Relation) noteInsert(t Tuple) {
	if r.rec != nil {
		r.rec.get().noteInsert(t.Key(), t)
	}
}

func (r *Relation) noteDelete(t Tuple) {
	if r.rec != nil {
		r.rec.get().noteDelete(t.Key(), t)
	}
}

// noteDeleteAll records the deletion of every current tuple (Reset).
func (r *Relation) noteDeleteAll() {
	if r.rec == nil || r.n == 0 {
		return
	}
	d := r.rec.get()
	for _, s := range r.segs {
		for _, t := range s.rows {
			d.noteDelete(t.Key(), t)
		}
	}
}

// Tracker captures the net tuple changes of a database's relations from
// Track until Stop.  At most one tracker may be attached to a database at
// a time, and the database must not be mutated concurrently with Track or
// Stop (the same single-writer contract as mutation itself — the engine
// serializes updates under its lock).
type Tracker struct {
	db *Database
	cs *ChangeSet
}

// Track attaches a tracker to every relation of the database and returns
// it.  It panics if a tracker is already attached.  Attaching is cheap:
// deltas are allocated lazily on the first actual change per relation.
func (d *Database) Track() *Tracker {
	cs := &ChangeSet{Rels: make(map[string]*Delta)}
	tr := &Tracker{db: d, cs: cs}
	recs := make([]recorder, len(d.rels)) // one bulk allocation
	i := 0
	for name, r := range d.rels {
		if r.rec != nil {
			panic("table: database is already tracked")
		}
		recs[i] = recorder{cs: cs, name: name}
		r.rec = &recs[i]
		i++
	}
	return tr
}

// Stop detaches the tracker and returns the captured change set, dropping
// relations whose net change cancelled out.  The tracker must not be used
// afterwards.
func (tr *Tracker) Stop() *ChangeSet {
	for _, r := range tr.db.rels {
		r.rec = nil
	}
	for name, d := range tr.cs.Rels {
		if d.Empty() {
			delete(tr.cs.Rels, name)
		}
	}
	return tr.cs
}
