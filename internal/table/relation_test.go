package table

import (
	"testing"

	"incdata/internal/schema"
	"incdata/internal/value"
)

func rel2(t *testing.T, name string, rows ...[]string) *Relation {
	t.Helper()
	if len(rows) == 0 {
		t.Fatal("rel2 needs rows")
	}
	r := NewRelationArity(name, len(rows[0]))
	for _, row := range rows {
		r.MustAdd(MustParseTuple(row...))
	}
	return r
}

func TestRelationAddContainsDedup(t *testing.T) {
	r := NewRelationArity("R", 2)
	r.MustAdd(MustParseTuple("1", "2"))
	r.MustAdd(MustParseTuple("1", "2")) // duplicate
	r.MustAdd(MustParseTuple("1", "⊥1"))
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (dedup)", r.Len())
	}
	if !r.Contains(MustParseTuple("1", "⊥1")) {
		t.Error("Contains should find tuple with null")
	}
	if r.Contains(MustParseTuple("1", "⊥2")) {
		t.Error("different null id should not be contained")
	}
	if err := r.Add(MustParseTuple("1")); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestRelationMustAddPanics(t *testing.T) {
	r := NewRelationArity("R", 1)
	defer func() {
		if recover() == nil {
			t.Error("MustAdd should panic on arity mismatch")
		}
	}()
	r.MustAdd(MustParseTuple("1", "2"))
}

func TestRelationTuplesSorted(t *testing.T) {
	r := rel2(t, "R", []string{"3", "1"}, []string{"1", "2"}, []string{"⊥1", "5"})
	ts := r.Tuples()
	if len(ts) != 3 {
		t.Fatalf("len = %d", len(ts))
	}
	// canonical order: nulls first, then ints
	if !ts[0].Equal(MustParseTuple("⊥1", "5")) || !ts[1].Equal(MustParseTuple("1", "2")) || !ts[2].Equal(MustParseTuple("3", "1")) {
		t.Errorf("sorted order wrong: %v", ts)
	}
	// returned tuples are copies
	ts[1][0] = value.Int(99)
	if !r.Contains(MustParseTuple("1", "2")) {
		t.Error("Tuples() must return copies")
	}
}

func TestRelationRemoveEachFilter(t *testing.T) {
	r := rel2(t, "R", []string{"1", "2"}, []string{"3", "4"}, []string{"5", "6"})
	if !r.Remove(MustParseTuple("3", "4")) {
		t.Error("Remove should succeed")
	}
	if r.Remove(MustParseTuple("3", "4")) {
		t.Error("second Remove should fail")
	}
	count := 0
	r.Each(func(Tuple) bool { count++; return true })
	if count != 2 {
		t.Errorf("Each visited %d", count)
	}
	// early stop
	count = 0
	r.Each(func(Tuple) bool { count++; return false })
	if count != 1 {
		t.Errorf("Each with early stop visited %d", count)
	}
	f := r.Filter(func(tp Tuple) bool { v, _ := tp[0].AsInt(); return v == 1 })
	if f.Len() != 1 || !f.Contains(MustParseTuple("1", "2")) {
		t.Errorf("Filter = %v", f)
	}
}

func TestRelationCloneRenameEqual(t *testing.T) {
	r := rel2(t, "R", []string{"1", "2"})
	c := r.Clone()
	c.MustAdd(MustParseTuple("3", "4"))
	if r.Len() != 1 {
		t.Error("Clone aliases storage")
	}
	s := r.Rename("S")
	if s.Name() != "S" || !s.Equal(r) {
		t.Error("Rename should preserve tuples, change name; Equal ignores names")
	}
	if r.Equal(c) {
		t.Error("relations with different tuples should differ")
	}
	other := rel2(t, "R", []string{"1", "3"})
	if r.Equal(other) {
		t.Error("different tuples same size should differ")
	}
	if r.Equal(NewRelationArity("R", 3)) {
		t.Error("different arity should differ")
	}
}

func TestRelationCompletenessCodd(t *testing.T) {
	complete := rel2(t, "R", []string{"1", "2"}, []string{"3", "4"})
	if !complete.IsComplete() || !complete.IsCodd() {
		t.Error("complete relation should be complete and Codd")
	}
	// naive table from the paper: R = {(⊥,1,⊥'), (2,⊥',⊥)}
	naive := rel2(t, "R", []string{"⊥1", "1", "⊥2"}, []string{"2", "⊥2", "⊥1"})
	if naive.IsComplete() {
		t.Error("naive table should not be complete")
	}
	if naive.IsCodd() {
		t.Error("repeated nulls -> not a Codd table")
	}
	codd := rel2(t, "S", []string{"⊥1", "1", "⊥2"}, []string{"2", "⊥3", "⊥4"})
	if !codd.IsCodd() {
		t.Error("all-distinct nulls -> Codd table")
	}
}

func TestRelationDomains(t *testing.T) {
	r := rel2(t, "R", []string{"⊥1", "1", "⊥2"}, []string{"2", "⊥2", "⊥1"})
	consts := r.Consts()
	if len(consts) != 2 || !consts[value.Int(1)] || !consts[value.Int(2)] {
		t.Errorf("Consts = %v", consts)
	}
	nulls := r.Nulls()
	if len(nulls) != 2 || !nulls[value.Null(1)] || !nulls[value.Null(2)] {
		t.Errorf("Nulls = %v", nulls)
	}
	if len(r.ActiveDomain()) != 4 {
		t.Errorf("adom = %v", r.ActiveDomain())
	}
}

func TestRelationCompletePartMap(t *testing.T) {
	r := rel2(t, "R", []string{"1", "2"}, []string{"2", "⊥1"})
	cp := r.CompletePart()
	if cp.Len() != 1 || !cp.Contains(MustParseTuple("1", "2")) {
		t.Errorf("CompletePart = %v", cp)
	}
	m := r.Map(func(v value.Value) value.Value {
		if v.IsNull() {
			return value.Int(9)
		}
		return v
	})
	if m.Len() != 2 || !m.Contains(MustParseTuple("2", "9")) {
		t.Errorf("Map = %v", m)
	}
}

func TestRelationMapMerges(t *testing.T) {
	// When a valuation makes two tuples identical, set semantics merges them.
	r := rel2(t, "R", []string{"1", "⊥1"}, []string{"1", "⊥2"})
	m := r.Map(func(v value.Value) value.Value {
		if v.IsNull() {
			return value.Int(7)
		}
		return v
	})
	if m.Len() != 1 {
		t.Errorf("Map should merge identical tuples, len = %d", m.Len())
	}
}

func TestRelationStringAndSchema(t *testing.T) {
	rs := schema.NewRelation("Order", "o_id", "product")
	r := MustFromTuples(rs, MustParseTuple("oid1", "pr1"), MustParseTuple("oid2", "pr2"))
	if r.Schema().Name != "Order" || r.Arity() != 2 || r.Name() != "Order" {
		t.Error("schema accessors wrong")
	}
	want := "Order{(oid1, pr1), (oid2, pr2)}"
	if r.String() != want {
		t.Errorf("String = %q, want %q", r.String(), want)
	}
	if _, err := FromTuples(rs, MustParseTuple("x")); err == nil {
		t.Error("FromTuples with wrong arity should fail")
	}
}

func TestMustFromTuplesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFromTuples should panic on bad arity")
		}
	}()
	MustFromTuples(schema.WithArity("R", 2), MustParseTuple("1"))
}

func TestRelationAddAll(t *testing.T) {
	a := rel2(t, "R", []string{"1", "2"})
	b := rel2(t, "R", []string{"3", "4"}, []string{"1", "2"})
	if err := a.AddAll(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Errorf("AddAll result len = %d", a.Len())
	}
	bad := rel2(t, "S", []string{"1"})
	if err := a.AddAll(bad); err == nil {
		t.Error("AddAll with wrong arity should fail")
	}
}

// TestRetainNoopIsARead pins that a Retain which removes nothing leaves
// the relation's stamp and sidecars alone (a running intersection calls it
// once per world, and stamp-validated caches must survive that), while one
// that removes a tuple still counts as a write — on an exclusive header, on
// one that shares its storage, and on one whose first write after the share
// rehashes it into more segments.
func TestRetainNoopIsARead(t *testing.T) {
	for _, c := range []struct {
		n      int
		shared bool
	}{{50, false}, {50, true}, {5000, true}} {
		r := NewRelationArity("R", 2)
		for i := 0; i < c.n; i++ {
			r.MustAdd(NewTuple(value.Int(int64(i)), value.Int(int64(i%5))))
		}
		var other *Relation
		if c.shared {
			other = r.Clone()
		}
		dict := NewDict()
		stamp, enc, ix := r.Stamp(), r.Encoding(dict), r.Index([]int{1})
		r.Retain(func(Tuple) bool { return true })
		if r.Stamp() != stamp || r.Encoding(dict) != enc || r.Index([]int{1}) != ix {
			t.Errorf("%+v: a Retain that removed nothing changed stamp or sidecars", c)
		}
		r.Retain(func(tp Tuple) bool { return tp[1] != value.Int(3) })
		if r.Len() != c.n*4/5 || r.Stamp() == stamp || r.Index([]int{1}) == ix || r.Contains(NewTuple(value.Int(3), value.Int(3))) {
			t.Errorf("%+v: a removing Retain: len %d, stamp %v (was %v)", c, r.Len(), r.Stamp(), stamp)
		}
		if c.shared && (other.Len() != c.n || other.Stamp() != stamp) {
			t.Errorf("%+v: the removal leaked into the clone: len %d", c, other.Len())
		}
	}
}

func TestNilRelationAccessors(t *testing.T) {
	var r *Relation
	if r.Len() != 0 {
		t.Error("nil relation Len should be 0")
	}
	if r.Contains(MustParseTuple("1")) {
		t.Error("nil relation should contain nothing")
	}
	if r.Tuples() != nil {
		t.Error("nil relation Tuples should be nil")
	}
	r.Each(func(Tuple) bool { t.Error("nil relation Each should not call f"); return true })
}

// TestArityZeroRelation: the one tuple of arity 0 has an empty key, so it
// hashes like every other and takes one slot and one row.  It is added
// once, found, carried through a snapshot's write-copy, and removed.
func TestArityZeroRelation(t *testing.T) {
	db := NewDatabase(schema.MustNew(schema.NewRelation("Z")))
	r := db.Relation("Z")
	if r.Contains(Tuple{}) || r.Remove(Tuple{}) {
		t.Fatal("an empty relation of arity 0 holds the empty tuple")
	}
	r.MustAdd(Tuple{})
	r.MustAdd(NewTuple())
	if r.Len() != 1 || !r.Contains(Tuple{}) || r.Contains(Tuple{value.Int(1)}) {
		t.Fatalf("after two adds of the empty tuple: Len %d, %s", r.Len(), r)
	}
	snap := db.Snapshot()
	if !r.Remove(Tuple{}) || r.Len() != 0 || r.Contains(Tuple{}) || r.Remove(Tuple{}) {
		t.Fatalf("after removing the empty tuple: Len %d, %s", r.Len(), r)
	}
	if s := snap.Relation("Z"); s.Len() != 1 || !s.Contains(Tuple{}) || s.CanonicalKey() == r.CanonicalKey() {
		t.Fatalf("the snapshot lost the empty tuple with the write: %s", s)
	}
}
