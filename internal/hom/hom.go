// Package hom implements homomorphisms between (incomplete) databases and
// the information orderings they induce (Section 5.2 of the paper):
//
//	D ⪯owa  D'  ⇔  there is a homomorphism h : D → D'
//	D ⪯wcwa D'  ⇔  there is an onto homomorphism (h(adom D) = adom D')
//	D ⪯cwa  D'  ⇔  there is a strong onto homomorphism (h(D) = D')
//
// A homomorphism maps the active domain of D to the active domain of D',
// is the identity on constants, and sends every tuple of D to a tuple of D'.
package hom

import (
	"slices"

	"incdata/internal/table"
	"incdata/internal/value"
)

// Mapping is a homomorphism candidate: an assignment of values to the nulls
// of the source database.  Constants are implicitly fixed.
type Mapping map[value.Value]value.Value

// ApplyValue returns the image of a value under the mapping (constants and
// unassigned nulls are fixed).
func (m Mapping) ApplyValue(v value.Value) value.Value {
	if v.IsNull() {
		if img, ok := m[v]; ok {
			return img
		}
	}
	return v
}

// ApplyTuple applies the mapping to every field of a tuple.
func (m Mapping) ApplyTuple(t table.Tuple) table.Tuple { return t.Map(m.ApplyValue) }

// ApplyDatabase returns h(D).
func (m Mapping) ApplyDatabase(d *table.Database) *table.Database { return d.Map(m.ApplyValue) }

// Clone returns a copy of the mapping.
func (m Mapping) Clone() Mapping {
	out := make(Mapping, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// obField is one precompiled field of an obligation tuple: either a fixed
// constant or a reference to a null by its index in the searcher's null
// order, so the search loop resolves images by slice indexing, with no map
// lookups.
type obField struct {
	val     value.Value // the field value when nullIdx < 0
	nullIdx int         // index into searcher.nulls, or -1 for constants
}

// tupleObligation records a source tuple, the destination relation its
// image must belong to, and the index (into the ordered null list) of the
// last null it mentions, used for incremental checking.
type tupleObligation struct {
	dstRel  *table.Relation // nil when dst lacks the relation: always fails
	tuple   table.Tuple
	fields  []obField
	lastIdx int
}

// searcher performs backtracking search for homomorphisms from src to dst.
type searcher struct {
	src, dst    *table.Database
	nulls       []value.Value       // nulls of src in fixed order
	candidates  []value.Value       // adom(dst), candidate images for each null
	obligations [][]tupleObligation // obligations[i]: tuples checkable once null i is assigned
	immediate   []tupleObligation   // null-free source tuples (checked up front)
	assigned    []value.Value       // current image per null (parallel to nulls)
	image       table.Tuple         // scratch for the image of a source tuple (no per-check allocation)

	// Forbidden image, used by Core: when set, no source tuple may map
	// onto this tuple of forbidRel — searching src → dst∖{t} without
	// materializing the smaller database.
	forbidRel   *table.Relation
	forbidTuple table.Tuple
}

func newSearcher(src, dst *table.Database) *searcher {
	s := &searcher{src: src, dst: dst}
	if src == dst {
		// The self-searcher (core computation): collect nulls and
		// candidates in one pass.
		all := collectSorted(src, func(value.Value) bool { return true })
		s.candidates = all
		for _, v := range all {
			if v.IsNull() {
				s.nulls = append(s.nulls, v)
			}
		}
	} else {
		s.nulls = collectSorted(src, func(v value.Value) bool { return v.IsNull() })
		s.candidates = collectSorted(dst, func(value.Value) bool { return true })
	}
	s.assigned = make([]value.Value, len(s.nulls))
	s.obligations = make([][]tupleObligation, len(s.nulls))
	// The null list is sorted, so null indices resolve by binary search; no
	// index map is needed.
	nullIndex := func(v value.Value) int {
		idx, _ := slices.BinarySearchFunc(s.nulls, v, value.Compare)
		return idx
	}
	for _, relName := range src.RelationNames() {
		rel := src.Relation(relName)
		dstRel := dst.Relation(relName)
		// Iterate the stored tuples directly: the searcher never mutates
		// them, and the obligation order only affects pruning, not which
		// homomorphism the (null-order, candidate-order) search finds first.
		rel.Each(func(t table.Tuple) bool {
			last := -1
			fields := make([]obField, len(t))
			for fi, v := range t {
				if v.IsNull() {
					i := nullIndex(v)
					fields[fi] = obField{nullIdx: i}
					if i > last {
						last = i
					}
				} else {
					fields[fi] = obField{val: v, nullIdx: -1}
				}
			}
			ob := tupleObligation{dstRel: dstRel, tuple: t, fields: fields, lastIdx: last}
			if last < 0 {
				s.immediate = append(s.immediate, ob)
			} else {
				s.obligations[last] = append(s.obligations[last], ob)
			}
			return true
		})
	}
	return s
}

// collectSorted gathers the distinct values of d satisfying keep, sorted.
// It collects with duplicates and sort-deduplicates — for the small
// databases homomorphism search runs on, that beats building a set.
func collectSorted(d *table.Database, keep func(value.Value) bool) []value.Value {
	var out []value.Value
	for _, name := range d.RelationNames() {
		d.Relation(name).Each(func(t table.Tuple) bool {
			for _, v := range t {
				if keep(v) {
					out = append(out, v)
				}
			}
			return true
		})
	}
	slices.SortFunc(out, value.Compare)
	return slices.Compact(out)
}

// checkTuple reports whether the image of the obligation's tuple under m is
// present in dst.  The image is built in a scratch tuple, never allocated.
func (s *searcher) checkTuple(ob tupleObligation) bool {
	if ob.dstRel == nil {
		return false
	}
	img := s.image[:0]
	for _, f := range ob.fields {
		if f.nullIdx >= 0 {
			img = append(img, s.assigned[f.nullIdx])
		} else {
			img = append(img, f.val)
		}
	}
	s.image = img
	if !ob.dstRel.Contains(img) {
		return false
	}
	if s.forbidRel == ob.dstRel && img.Equal(s.forbidTuple) {
		return false
	}
	return true
}

// existsAvoiding reports whether a homomorphism src → dst exists whose
// image avoids the tuple t of the named destination relation, i.e. a
// homomorphism src → dst∖{t}.  Core uses it to test tuple removals
// without cloning the database per attempt.
func (s *searcher) existsAvoiding(rel *table.Relation, t table.Tuple) bool {
	s.forbidRel = rel
	s.forbidTuple = t
	found := s.search(func(Mapping) bool { return false })
	s.forbidRel = nil
	return found
}

// search enumerates homomorphisms; accept is called with each complete
// homomorphism and returns true to keep searching or false to stop.  The
// return value reports whether some call to accept returned false (i.e. a
// witness was found and the search stopped early).
func (s *searcher) search(accept func(Mapping) bool) bool {
	for _, ob := range s.immediate {
		if !s.checkTuple(ob) {
			return false
		}
	}
	m := make(Mapping, len(s.nulls))
	stopped := false
	var rec func(i int) bool // returns false to stop the whole search
	rec = func(i int) bool {
		if i == len(s.nulls) {
			if !accept(m) {
				stopped = true
				return false
			}
			return true
		}
		for _, c := range s.candidates {
			s.assigned[i] = c
			ok := true
			for _, ob := range s.obligations[i] {
				if !s.checkTuple(ob) {
					ok = false
					break
				}
			}
			if ok {
				m[s.nulls[i]] = c
				if !rec(i + 1) {
					return false
				}
			}
		}
		delete(m, s.nulls[i])
		return true
	}
	rec(0)
	return stopped
}

// Find searches for a homomorphism h : src → dst and returns it (as a
// mapping on the nulls of src) together with a success flag.
func Find(src, dst *table.Database) (Mapping, bool) {
	s := newSearcher(src, dst)
	var found Mapping
	ok := s.search(func(m Mapping) bool {
		found = m.Clone()
		return false
	})
	return found, ok
}

// Exists reports whether a homomorphism src → dst exists.
func Exists(src, dst *table.Database) bool {
	_, ok := Find(src, dst)
	return ok
}

// isStrongOnto reports whether h(src) = dst (every tuple of dst is the image
// of a tuple of src).
func isStrongOnto(m Mapping, src, dst *table.Database) bool {
	img := m.ApplyDatabase(src)
	return img.Equal(dst)
}

// isOnto reports whether h(adom(src)) = adom(dst).
func isOnto(m Mapping, src, dst *table.Database) bool {
	image := map[value.Value]bool{}
	for v := range src.ActiveDomain() {
		image[m.ApplyValue(v)] = true
	}
	dstDom := dst.ActiveDomain()
	if len(image) != len(dstDom) {
		return false
	}
	for v := range dstDom {
		if !image[v] {
			return false
		}
	}
	return true
}

// FindStrongOnto searches for a strong onto homomorphism h : src → dst,
// i.e. a homomorphism with h(src) = dst.
func FindStrongOnto(src, dst *table.Database) (Mapping, bool) {
	// Quick necessary condition: every relation of dst must be no larger
	// than the corresponding relation of src (images cannot add tuples).
	for _, name := range dst.RelationNames() {
		sr := src.Relation(name)
		if sr == nil {
			if dst.Relation(name).Len() > 0 {
				return nil, false
			}
			continue
		}
		if dst.Relation(name).Len() > sr.Len() {
			return nil, false
		}
	}
	s := newSearcher(src, dst)
	var found Mapping
	ok := s.search(func(m Mapping) bool {
		if isStrongOnto(m, src, dst) {
			found = m.Clone()
			return false
		}
		return true
	})
	return found, ok
}

// ExistsStrongOnto reports whether a strong onto homomorphism src → dst
// exists.
func ExistsStrongOnto(src, dst *table.Database) bool {
	_, ok := FindStrongOnto(src, dst)
	return ok
}

// FindOnto searches for an onto homomorphism (h(adom src) = adom dst).
func FindOnto(src, dst *table.Database) (Mapping, bool) {
	s := newSearcher(src, dst)
	var found Mapping
	ok := s.search(func(m Mapping) bool {
		if isOnto(m, src, dst) {
			found = m.Clone()
			return false
		}
		return true
	})
	return found, ok
}

// ExistsOnto reports whether an onto homomorphism src → dst exists.
func ExistsOnto(src, dst *table.Database) bool {
	_, ok := FindOnto(src, dst)
	return ok
}

// LeqOWA is the open-world information ordering: D ⪯owa D' iff there is a
// homomorphism D → D'.
func LeqOWA(d, dPrime *table.Database) bool { return Exists(d, dPrime) }

// LeqCWA is the closed-world information ordering: D ⪯cwa D' iff there is a
// strong onto homomorphism D → D'.
func LeqCWA(d, dPrime *table.Database) bool { return ExistsStrongOnto(d, dPrime) }

// LeqWCWA is the weak closed-world ordering: D ⪯wcwa D' iff there is an onto
// homomorphism D → D'.
func LeqWCWA(d, dPrime *table.Database) bool { return ExistsOnto(d, dPrime) }

// EquivalentOWA reports hom-equivalence: homomorphisms both ways.  Under the
// OWA ordering such databases carry the same information.
func EquivalentOWA(a, b *table.Database) bool { return Exists(a, b) && Exists(b, a) }

// CountHomomorphisms returns the number of homomorphisms src → dst (used by
// tests and the ordering experiments; exponential in the number of nulls).
func CountHomomorphisms(src, dst *table.Database) int {
	s := newSearcher(src, dst)
	count := 0
	s.search(func(Mapping) bool {
		count++
		return true
	})
	return count
}

// Core computes a core of the database under OWA: a minimal (with respect to
// tuple deletion) sub-database hom-equivalent to d.  Cores are unique up to
// isomorphism and are a convenient canonical representative of the
// OWA-information content of a naïve database.
//
// A tuple t may be removed when current admits a homomorphism into
// current∖{t} (the smaller database always maps into the larger).  The
// search runs on a single reusable searcher per core state with t as a
// forbidden image, so failed attempts — the common case once the core is
// reached — cost no setup; a complete database is its own core (every
// homomorphism fixes it pointwise).
func Core(d *table.Database) *table.Database {
	current := d.Clone()
	if current.IsComplete() {
		return current
	}
	for changed := true; changed; {
		changed = false
		s := newSearcher(current, current)
		for _, name := range current.RelationNames() {
			rel := current.Relation(name)
			// Try removing tuples in a deterministic order: any order
			// converges to a core, and the canonical order makes the
			// representative reproducible.
			tuples := rel.SortedTuples()
			for _, t := range tuples {
				if s.existsAvoiding(rel, t) {
					rel.Remove(t)
					changed = true
					s = newSearcher(current, current)
				}
			}
		}
	}
	return current
}
