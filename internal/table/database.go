package table

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"incdata/internal/schema"
	"incdata/internal/value"
)

// Database is an incomplete relational instance: it assigns to each relation
// name of a schema a finite relation over Const ∪ Null (a naïve database in
// the terminology of the paper).  A complete database is one without nulls.
type Database struct {
	schema *schema.Schema
	rels   map[string]*Relation
	// dict is the value dictionary of this database lineage: snapshots,
	// clones and derived databases all share it, so coded-column codes
	// stay comparable across them (see encode.go).
	dict *Dict
}

// NewDatabase creates an empty database over the given schema.  Every
// relation of the schema is initialised to the empty relation.
func NewDatabase(s *schema.Schema) *Database { return NewDatabaseDict(s, NewDict()) }

// NewDatabaseDict is NewDatabase over an existing dictionary: databases
// that share one compare codes across each other, as one lineage's
// snapshots do.  The durable store loads every state of a store this way.
func NewDatabaseDict(s *schema.Schema, dict *Dict) *Database {
	d := &Database{schema: s, rels: make(map[string]*Relation, s.Len()), dict: dict}
	for _, rs := range s.Relations() {
		d.rels[rs.Name] = NewRelation(rs)
	}
	return d
}

// Dict returns the database's value dictionary, shared across snapshots
// and clones of the same lineage.  The coded execution tier keys its
// per-relation encodings against it; a nil dictionary (possible only on
// a zero-value Database) disables coded execution.
func (d *Database) Dict() *Dict {
	if d == nil {
		return nil
	}
	return d.dict
}

// Schema returns the database schema.
func (d *Database) Schema() *schema.Schema { return d.schema }

// Relation returns the named relation, or nil if the schema has no such
// relation.
func (d *Database) Relation(name string) *Relation {
	if d == nil {
		return nil
	}
	return d.rels[name]
}

// MustRelation returns the named relation and panics if it does not exist.
func (d *Database) MustRelation(name string) *Relation {
	r := d.Relation(name)
	if r == nil {
		panic(fmt.Sprintf("table: unknown relation %q", name))
	}
	return r
}

// Add inserts a tuple into the named relation.
func (d *Database) Add(rel string, t Tuple) error {
	r := d.Relation(rel)
	if r == nil {
		return fmt.Errorf("table: unknown relation %q", rel)
	}
	return r.Add(t)
}

// MustAdd is Add that panics on error.
func (d *Database) MustAdd(rel string, t Tuple) {
	if err := d.Add(rel, t); err != nil {
		panic(err)
	}
}

// MustAddRow parses each field with value.Parse and adds the tuple.
func (d *Database) MustAddRow(rel string, fields ...string) {
	d.MustAdd(rel, MustParseTuple(fields...))
}

// SetRelation replaces the named relation wholesale (the arity must match
// the schema).  Under delta tracking the replacement is recorded as the
// exact tuple diff between the old and new contents, so an equal
// replacement produces an empty delta.
func (d *Database) SetRelation(rel string, r *Relation) error {
	rs, ok := d.schema.Relation(rel)
	if !ok {
		return fmt.Errorf("table: unknown relation %q", rel)
	}
	if rs.Arity() != r.Arity() {
		return fmt.Errorf("table: relation %q has arity %d, got %d", rel, rs.Arity(), r.Arity())
	}
	cp := r.Clone()
	cp.schema = rs
	if old := d.rels[rel]; old.tracked() {
		// Diffing materializes both sides; untracked replacement below
		// keeps a lazily loading replacement lazy.
		old.Each(func(t Tuple) bool {
			if !cp.Contains(t) {
				old.noteDelete(t)
			}
			return true
		})
		cp.Each(func(t Tuple) bool {
			if !old.Contains(t) {
				old.noteInsert(t)
			}
			return true
		})
		cp.rec, old.rec = old.rec, nil
	}
	d.rels[rel] = cp
	return nil
}

// RelationNames returns the relation names in sorted order.
func (d *Database) RelationNames() []string {
	names := make([]string, 0, len(d.rels))
	for n := range d.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalTuples returns the total number of tuples across all relations.
func (d *Database) TotalTuples() int {
	n := 0
	for _, r := range d.rels {
		n += r.Len()
	}
	return n
}

// Clone returns a deep copy of the database.
func (d *Database) Clone() *Database {
	out := &Database{schema: d.schema, rels: make(map[string]*Relation, len(d.rels)), dict: d.dict}
	for n, r := range d.rels {
		out.rels[n] = r.Clone()
	}
	return out
}

// Snapshot returns an immutable view of the database for snapshot-isolated
// reads: the view shares every relation's segments copy-on-write, so
// taking it costs O(#relations), and a subsequent mutation of the original
// copies the one segment it touches first and never disturbs the view.  Any
// number of goroutines may evaluate queries against the returned database
// concurrently, also while writers keep mutating the original.
//
// Snapshot itself must not race with writers (it reads each relation's
// stamp while marking the storage shared); callers serialize the two, which
// is what engine.Engine does with its mutex.  The returned database is a
// view, not a fork: its relations are frozen, and mutating one violates
// the isolation contract (a panic under the tablecheck build tag) — use
// Clone for a mutable copy.
func (d *Database) Snapshot() *Database {
	return d.SnapshotReusing(nil)
}

// SnapshotReusing is Snapshot, except that relations whose content stamp
// is unchanged since prev (a snapshot of an earlier state of the same
// database) reuse prev's relation headers instead of fresh shares.
// Headers own the lazily built derived caches — hash indexes and the
// coded sidecar — so with reuse a commit leaves the caches of the
// relations it did not touch alone.  Safe because snapshots
// are read-only and stamps identify content: an equal stamp means the
// header describes exactly the frozen storage the new snapshot reads.
//
// A relation that did change gets a fresh header, and that header takes
// over prev's encoding and indexes as candidates: the first query that
// asks for one patches or rebuilds only the pieces whose segment
// changed in between (Relation.Encoding, Relation.Index).  So a small
// write costs the next reader a small amount of sidecar work.  prev may be
// nil (plain Snapshot).
func (d *Database) SnapshotReusing(prev *Database) *Database {
	out := &Database{schema: d.schema, rels: make(map[string]*Relation, len(d.rels)), dict: d.dict}
	for n, r := range d.rels {
		var p *Relation
		if prev != nil {
			p = prev.rels[n]
		}
		if p != nil && p.Stamp() == r.Stamp() {
			out.rels[n] = p
			continue
		}
		s := r.share()
		s.frozen = true
		if p != nil {
			s.adoptCandidates(p)
		}
		out.rels[n] = s
	}
	return out
}

// Equal reports whether two databases over the same relation names have
// identical relations (set equality of tuples per relation).
func (d *Database) Equal(o *Database) bool {
	if len(d.rels) != len(o.rels) {
		return false
	}
	for n, r := range d.rels {
		or, ok := o.rels[n]
		if !ok || !r.Equal(or) {
			return false
		}
	}
	return true
}

// IsComplete reports whether the database contains no nulls.
func (d *Database) IsComplete() bool {
	for _, r := range d.rels {
		if !r.IsComplete() {
			return false
		}
	}
	return true
}

// IsCodd reports whether every null occurs at most once in the whole
// database (the Codd-table model of SQL nulls).
func (d *Database) IsCodd() bool {
	seen := map[value.Value]bool{}
	for _, name := range d.RelationNames() {
		for _, t := range d.rels[name].Tuples() {
			for _, v := range t {
				if v.IsNull() {
					if seen[v] {
						return false
					}
					seen[v] = true
				}
			}
		}
	}
	return true
}

// Nulls returns Null(D): the set of nulls occurring in D.
func (d *Database) Nulls() map[value.Value]bool {
	out := map[value.Value]bool{}
	for _, r := range d.rels {
		for n := range r.Nulls() {
			out[n] = true
		}
	}
	return out
}

// Consts returns Const(D): the set of constants occurring in D.
func (d *Database) Consts() map[value.Value]bool {
	out := map[value.Value]bool{}
	for _, r := range d.rels {
		for c := range r.Consts() {
			out[c] = true
		}
	}
	return out
}

// ActiveDomain returns adom(D) = Const(D) ∪ Null(D).
func (d *Database) ActiveDomain() map[value.Value]bool {
	out := map[value.Value]bool{}
	for _, r := range d.rels {
		for v := range r.ActiveDomain() {
			out[v] = true
		}
	}
	return out
}

// SortedNulls returns Null(D) as a deterministically ordered slice.
func (d *Database) SortedNulls() []value.Value {
	return SortedValues(d.Nulls())
}

// SortedConsts returns Const(D) as a deterministically ordered slice.
func (d *Database) SortedConsts() []value.Value {
	return SortedValues(d.Consts())
}

// Map applies f to every value of every tuple in every relation.
func (d *Database) Map(f func(value.Value) value.Value) *Database {
	out := &Database{schema: d.schema, rels: make(map[string]*Relation, len(d.rels)), dict: d.dict}
	for n, r := range d.rels {
		out.rels[n] = r.Map(f)
	}
	return out
}

// CompletePart returns the database keeping only null-free tuples.
func (d *Database) CompletePart() *Database {
	out := &Database{schema: d.schema, rels: make(map[string]*Relation, len(d.rels)), dict: d.dict}
	for n, r := range d.rels {
		out.rels[n] = r.CompletePart()
	}
	return out
}

// ContainsDatabase reports whether every tuple of o is present in d
// (relation-wise containment, marked-null identity).  This is the "⊇" used
// by the OWA semantics.
func (d *Database) ContainsDatabase(o *Database) bool {
	for n, or := range o.rels {
		dr, ok := d.rels[n]
		if !ok {
			if or.Len() > 0 {
				return false
			}
			continue
		}
		contained := true
		or.Each(func(t Tuple) bool {
			if !dr.Contains(t) {
				contained = false
				return false
			}
			return true
		})
		if !contained {
			return false
		}
	}
	return true
}

// CanonicalKey returns a canonical binary encoding of the database
// contents: two databases over the same schema have equal keys iff they
// hold the same tuples relation by relation.  World enumeration uses it to
// deduplicate worlds far more cheaply than rendering String.
func (d *Database) CanonicalKey() string {
	var buf []byte
	for _, n := range d.RelationNames() {
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
		buf = d.rels[n].appendCanonicalKey(buf)
	}
	return string(buf)
}

// String renders the database relation by relation in sorted name order.
func (d *Database) String() string {
	names := d.RelationNames()
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = d.rels[n].String()
	}
	return strings.Join(parts, "\n")
}

// SortedValues converts a value set into a deterministically ordered slice.
func SortedValues(set map[value.Value]bool) []value.Value {
	out := make([]value.Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.SortFunc(out, value.Compare)
	return out
}
