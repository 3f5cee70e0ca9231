package table

import (
	"fmt"
	"sync"
	"testing"

	"incdata/internal/schema"
	"incdata/internal/value"
)

// gathered fills r the way the plan's gather fills an operator output:
// reserved at its final size, every tuple known new.  The segment is left
// deferred.
func gathered(t testing.TB, r *Relation, ts []Tuple) {
	t.Helper()
	ins := r.BeginInsert()
	ins.Reserve(len(ts))
	for _, tp := range ts {
		ins.AddNew(tp)
	}
	if len(r.segs) != 1 || !r.segs[0].deferred.Load() {
		t.Fatalf("a reserved fill of %d tuples left %d segments, deferred %v", len(ts), len(r.segs), r.segs[0].deferred.Load())
	}
}

func gatherTuples(n, base int) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = NewTuple(value.Int(int64(base+i)), value.String(fmt.Sprint("v", i%61)))
	}
	return ts
}

// TestDeferredIterationBuildsNoTable pins what the deferral is for: reading
// a gathered result row by row — and building its encoding, indexes and
// partitionings, which read rows too — never makes its hash table.  The
// first probe does, once.
func TestDeferredIterationBuildsNoTable(t *testing.T) {
	db := NewDatabase(schema.MustNew(schema.NewRelation("R", "a", "b")))
	r := db.Relation("R")
	ts := gatherTuples(3000, 0)
	gathered(t, r, ts)

	n := 0
	r.Each(func(Tuple) bool { n++; return true })
	if r.Len() != len(ts) || n != len(ts) || len(r.SortedTuples()) != len(ts) || len(r.Tuples()) != len(ts) {
		t.Fatalf("Len %d, Each %d, want %d", r.Len(), n, len(ts))
	}
	want := NewRelation(r.Schema())
	want.MustAddBatch(ts)
	if r.CanonicalKey() != want.CanonicalKey() || r.String() != want.String() {
		t.Fatal("CanonicalKey or String differs from a relation built by Add")
	}
	if e := r.Encoding(db.Dict()); !e.Ok() || e.Rows() != len(ts) {
		t.Fatalf("Encoding: Ok %v, %d rows", e.Ok(), e.Rows())
	}
	if ix := r.Index([]int{0}); ix.Len() != len(ts) {
		t.Fatalf("Index has %d entries", ix.Len())
	}
	r.Partition([]int{1}, 4)
	c := r.Clone()
	if !r.IsComplete() || c.Len() != len(ts) || r.CompletePart().Len() != len(ts) {
		t.Fatal("a share of the result lost tuples")
	}
	if s := r.segs[0]; !s.deferred.Load() || s.tab.slots != nil {
		t.Fatalf("iteration built the table: deferred %v, %d slots", s.deferred.Load(), len(s.tab.slots))
	}

	if !r.Contains(ts[17]) || r.Contains(NewTuple(value.Int(-1), value.String("v0"))) {
		t.Fatal("Contains answers wrong on the first probe")
	}
	if s := r.segs[0]; s.deferred.Load() || s.tab.Len() != len(ts) {
		t.Fatalf("the first probe left deferred %v, %d slots taken", s.deferred.Load(), s.tab.Len())
	}
	if c.segs[0] != r.segs[0] || !c.Contains(ts[18]) {
		t.Fatal("a share does not see the table its original built")
	}
}

// TestAddNewDuplicatePanicsUnderTablecheck forces a duplicate AddNew into a
// deferred segment, into the deferred copy a write to a share makes, and
// into a segment with a table: under the tablecheck tag each panics.
func TestAddNewDuplicatePanicsUnderTablecheck(t *testing.T) {
	if !tablecheck {
		t.Skip("built without -tags tablecheck")
	}
	dup := NewTuple(value.Int(1))
	for name, fill := range map[string]func() Inserter{
		"deferred": func() Inserter {
			r := NewRelationArity("R", 1)
			gathered(t, r, []Tuple{NewTuple(value.Int(0)), dup})
			return r.BeginInsert()
		},
		"copy of a deferred share": func() Inserter {
			r := NewRelationArity("R", 1)
			gathered(t, r, []Tuple{dup})
			return r.Clone().BeginInsert()
		},
		"with a table": func() Inserter {
			r := NewRelationArity("R", 1)
			r.MustAdd(dup)
			return r.BeginInsert()
		},
	} {
		ins := fill()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: AddNew of a tuple held did not panic", name)
				}
			}()
			ins.AddNew(dup)
		}()
	}
}

// TestDeferredFirstProbeRace races the first probe of one gathered result
// through snapshot headers that share its deferred segment — Contains and
// Equal build the table, Index, Encoding and SortedTuples read the rows
// beside the build — while a writer mutates the live relation and clones of
// it, which copies or rehashes the same segment.  CI runs it under -race at
// several core counts.
func TestDeferredFirstProbeRace(t *testing.T) {
	db := NewDatabase(schema.MustNew(schema.NewRelation("R", "a", "b")))
	for round := 0; round < 8; round++ {
		// Under segMax the writer's first write copies the segment; past it,
		// it rehashes the segment into two.
		n := 1000 + 1000*(round%2)
		live := db.Relation("R")
		live.Reset(live.Schema())
		ts := gatherTuples(n, round*10000)
		gathered(t, live, ts)
		want := NewRelation(live.Schema())
		want.MustAddBatch(ts)
		snaps := []*Relation{db.Snapshot().Relation("R"), db.Snapshot().Relation("R")}
		absent := NewTuple(value.Int(-1), value.String("v0"))

		start := make(chan struct{})
		var wg sync.WaitGroup
		readers := []func(r *Relation) error{
			func(r *Relation) error {
				if !r.Contains(ts[n/2]) || r.Contains(absent) {
					return fmt.Errorf("Contains answers wrong")
				}
				return nil
			},
			func(r *Relation) error {
				if !r.Equal(want) || !want.Equal(r) {
					return fmt.Errorf("not Equal to the tuples gathered")
				}
				return nil
			},
			func(r *Relation) error {
				ix := r.Index([]int{0})
				if sh, i := ix.Lookup(ix.AppendTupleKey(nil, ts[3])); i == 0 {
					return fmt.Errorf("Index misses %s", ts[3])
				} else if m, _ := sh.At(i); !m.Equal(ts[3]) {
					return fmt.Errorf("Index finds %s for %s", m, ts[3])
				}
				return nil
			},
			func(r *Relation) error {
				if e := r.Encoding(db.Dict()); !e.Ok() || e.Rows() != n {
					return fmt.Errorf("Encoding: Ok %v, %d rows of %d", e.Ok(), e.Rows(), n)
				}
				return nil
			},
			func(r *Relation) error {
				if got := r.SortedTuples(); len(got) != n || !got[0].Equal(ts[0]) {
					return fmt.Errorf("SortedTuples: %d tuples of %d", len(got), n)
				}
				return nil
			},
		}
		for g, read := range readers {
			for _, r := range snaps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if err := read(r); err != nil {
						t.Errorf("round %d, reader %d: %v", round, g, err)
					}
				}()
			}
		}

		// The writer: a clone written through AddNew keeps a deferred copy,
		// a clone written through Add and the live relation probe the shared
		// segment and copy or rehash it.
		c1, c2 := live.Clone(), live.Clone()
		close(start)
		extra := NewTuple(value.Int(-2), value.String("w"))
		c1.BeginInsert().AddNew(extra)
		c2.MustAdd(extra)
		c2.Remove(ts[1])
		live.MustAdd(extra)
		live.Remove(ts[2])
		wg.Wait()

		if !c1.Contains(extra) || c1.Len() != n+1 || c2.Len() != n || live.Len() != n {
			t.Fatalf("round %d: the writes read back wrong: %d, %d, %d", round, c1.Len(), c2.Len(), live.Len())
		}
		for _, r := range snaps {
			if !r.Equal(want) || r.Contains(extra) {
				t.Fatalf("round %d: a write leaked into a snapshot", round)
			}
		}
	}
}
