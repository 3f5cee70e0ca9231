package table

import (
	"fmt"
	"sync"
	"testing"

	"incdata/internal/schema"
	"incdata/internal/value"
)

// orderKeysDB returns a database with Order(o_id, product): n orders with
// distinct ids over seven products, loaded into a live relation that has
// been written once after a snapshot, so its storage is segmented.
func orderKeysDB(n int) *Database {
	db := NewDatabase(schema.MustNew(schema.NewRelation("Order", "o_id", "product")))
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = NewTuple(value.String(fmt.Sprint("oid", i)), value.String(fmt.Sprint("pr", i%7)))
	}
	db.Relation("Order").MustAddBatch(ts)
	db.Snapshot()
	db.MustAdd("Order", NewTuple(value.String("oid-w"), value.String("pr0")))
	return db
}

// lookupCount returns how many tuples the index holds under the key of v.
func lookupCount(ix *Index, v value.Value) int {
	n := 0
	for sh, i := ix.Lookup(v.AppendKey(nil)); i != 0; {
		_, i = sh.At(i)
		n++
	}
	return n
}

// TestSelectIndexSkiRental pins the demand rule: a header scans until its
// scans have cost a build, the next selection builds, and every later one
// on that header looks up.
func TestSelectIndexSkiRental(t *testing.T) {
	db := orderKeysDB(3 * segMax)
	r := db.Snapshot().Relation("Order")
	for k := 1; k <= indexBuildScans; k++ {
		ix, path := r.SelectIndex([]int{0})
		if ix != nil || path.Kind() != SelectScanBelowThreshold {
			t.Fatalf("selection %d: index %v, path %q; want a scan below the threshold", k, ix != nil, path)
		}
		if want := fmt.Sprintf("scan: below build threshold %d/%d", k, indexBuildScans); path.String() != want {
			t.Fatalf("selection %d: path %q, want %q", k, path, want)
		}
		if st := r.EncodingStats(); st.IndexBuilds != 0 || st.SelectScans != uint64(k) || st.IndexLookups != 0 {
			t.Fatalf("selection %d: %+v", k, st)
		}
	}
	for k := 0; k < 3; k++ {
		ix, path := r.SelectIndex([]int{0})
		if ix == nil || path.Kind() != SelectIndexed {
			t.Fatalf("selection past the threshold: index %v, path %q", ix != nil, path)
		}
		if got := lookupCount(ix, value.String("oid17")); got != 1 {
			t.Fatalf("oid17 matches %d tuples", got)
		}
		if got := lookupCount(ix, value.Null(1)); got != 0 {
			t.Fatalf("⊥1 matches %d tuples", got)
		}
	}
	if st := r.EncodingStats(); st.IndexBuilds != 1 || st.IndexLookups != 3 || st.SelectScans != indexBuildScans {
		t.Fatalf("after three lookups: %+v", st)
	}
}

// TestSelectIndexSelectivityGate: a key with few distinct values is never
// indexed, for either tier, and the verdict costs one sample.
func TestSelectIndexSelectivityGate(t *testing.T) {
	db := orderKeysDB(3 * segMax)
	r := db.Snapshot().Relation("Order")
	e := r.Encoding(db.Dict())
	for k := 0; k < 3*indexBuildScans; k++ {
		ix, path := r.SelectIndex([]int{1})
		cx, cpath := r.SelectCodedIndex(e, []int{1})
		if ix != nil || cx != nil {
			t.Fatalf("selection %d on product (7 values): indexed (%q, %q)", k, path, cpath)
		}
		if k > indexBuildScans && (path.Kind() != SelectScanNotSelective || cpath.Kind() != SelectScanNotSelective) {
			t.Fatalf("selection %d: paths %q, %q; want not selective", k, path, cpath)
		}
	}
	if st := r.EncodingStats(); st.IndexBuilds != 0 || st.IndexLookups != 0 {
		t.Fatalf("%+v", st)
	}
	// The composite key (o_id, product) is as selective as o_id.
	var cx *CodedIndex
	for k := 0; k <= indexBuildScans; k++ {
		cx, _ = r.SelectCodedIndex(e, []int{0, 1})
	}
	if cx == nil || cx.Len() != r.Len() {
		t.Fatal("no coded index on (o_id, product) past the threshold")
	}
	// A relation of a few dozen tuples is scanned whatever the key.
	small := orderKeysDB(40).Snapshot().Relation("Order")
	for k := 0; k < 2*indexBuildScans; k++ {
		if ix, _ := small.SelectIndex([]int{0}); ix != nil {
			t.Fatal("a 41-tuple relation got an index")
		}
	}
}

// TestSelectIndexCarriedAcrossWrites: after a one-tuple write the next
// snapshot's header patches the index it inherited and does not rebuild,
// and the demand that paid for it carries over.
func TestSelectIndexCarriedAcrossWrites(t *testing.T) {
	db := orderKeysDB(3 * segMax)
	prev := db.Snapshot()
	for k := 0; k <= indexBuildScans; k++ {
		prev.Relation("Order").SelectIndex([]int{0})
	}
	built := prev.Relation("Order").EncodingStats()
	if built.IndexBuilds != 1 {
		t.Fatalf("set-up: %+v", built)
	}
	for i := 0; i < 5; i++ {
		id := value.String(fmt.Sprint("oid-new", i))
		db.MustAdd("Order", NewTuple(id, value.String("pr1")))
		db.Relation("Order").Remove(NewTuple(value.String(fmt.Sprint("oid", i)), value.String(fmt.Sprint("pr", i%7))))
		prev = db.SnapshotReusing(prev)
		r := prev.Relation("Order")
		ix, path := r.SelectIndex([]int{0})
		if ix == nil {
			t.Fatalf("write %d: the first selection after it scanned: %q", i, path)
		}
		if lookupCount(ix, id) != 1 || lookupCount(ix, value.String(fmt.Sprint("oid", i))) != 0 {
			t.Fatalf("write %d: the patched index does not reflect it", i)
		}
		st := r.EncodingStats()
		if st.IndexBuilds != built.IndexBuilds || st.IndexPatches != built.IndexPatches+uint64(i+1) {
			t.Fatalf("write %d: %+v after %+v; want one patch per write, no build", i, st, built)
		}
	}
	// A snapshot nobody selected on still hands the demand on.
	db.MustAdd("Order", NewTuple(value.String("oid-skip1"), value.String("pr1")))
	prev = db.SnapshotReusing(prev)
	db.MustAdd("Order", NewTuple(value.String("oid-skip2"), value.String("pr1")))
	prev = db.SnapshotReusing(prev)
	if ix, path := prev.Relation("Order").SelectIndex([]int{0}); ix == nil {
		t.Fatalf("after a snapshot without selections: %q", path)
	}
	if st := prev.Relation("Order").EncodingStats(); st.IndexBuilds != built.IndexBuilds {
		t.Fatalf("rebuilt: %+v", st)
	}
}

// TestSelectIndexReconstructionStartsFromZero: a state rebuilt by Clone +
// Apply, the way version.AsOf does, carries no demand, so its first point
// query scans, however often the state it was cloned from has been asked.
func TestSelectIndexReconstructionStartsFromZero(t *testing.T) {
	db := orderKeysDB(3 * segMax)
	base := db.Snapshot()
	for k := 0; k <= indexBuildScans; k++ {
		base.Relation("Order").SelectIndex([]int{0})
	}
	before := base.Relation("Order").EncodingStats()

	cs := NewChangeSet()
	tp := NewTuple(value.String("oid-then"), value.String("pr2"))
	d := NewDelta()
	d.Inserted[tp.Key()] = tp
	cs.Rels["Order"] = d
	recon := base.Clone()
	if err := recon.Apply(cs); err != nil {
		t.Fatal(err)
	}
	ix, path := recon.Relation("Order").SelectIndex([]int{0})
	if ix != nil || path.String() != fmt.Sprintf("scan: below build threshold 1/%d", indexBuildScans) {
		t.Fatalf("first selection on a reconstruction: index %v, path %q", ix != nil, path)
	}
	if st := recon.Relation("Order").EncodingStats(); st.IndexBuilds != before.IndexBuilds || st.IndexPatches != before.IndexPatches {
		t.Fatalf("the reconstruction built or patched: %+v after %+v", st, before)
	}
	// A clone that is not written shares the storage and so the index, but
	// counts on its own from where its origin stood.
	clone := base.Clone().Relation("Order")
	if ix, _ := clone.SelectIndex([]int{0}); ix == nil {
		t.Fatal("an unwritten clone lost the index of the storage it shares")
	}
}

// TestSelectIndexConcurrentFirstBuild races readers through the threshold,
// and so through the first build and the patches after it, on shared
// snapshot headers, against a writer on the live header.  CI runs it under
// -race -count=3 -cpu 2,4 -tags tablecheck.
func TestSelectIndexConcurrentFirstBuild(t *testing.T) {
	db := orderKeysDB(12 * segMax) // 16 segments: the few a round writes leave the sidecars patchable
	live := db.Relation("Order")
	var mu sync.Mutex // the engine lock: Snapshot never races the writer
	var prev *Database
	snapshot := func() *Database {
		mu.Lock()
		defer mu.Unlock()
		prev = db.SnapshotReusing(prev)
		return prev
	}
	const readers, rounds = 4, 6
	for round := 0; round < rounds; round++ {
		snap := snapshot()
		r := snap.Relation("Order")
		e := r.Encoding(snap.Dict())
		rows := r.Len()
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				indexed := false
				for k := 0; k < 2*indexBuildScans; k++ {
					if g%2 == 0 {
						ix, _ := r.SelectIndex([]int{0})
						if ix == nil {
							continue
						}
						indexed = true
						if ix.Len() != rows || lookupCount(ix, value.String("oid77")) != 1 {
							t.Errorf("round %d: index of %d entries for %d rows", round, ix.Len(), rows)
							return
						}
					} else {
						cx, _ := r.SelectCodedIndex(e, []int{0})
						if cx == nil {
							continue
						}
						indexed = true
						if cx.Len() != rows {
							t.Errorf("round %d: coded index of %d entries for %d rows", round, cx.Len(), rows)
							return
						}
					}
				}
				if !indexed {
					t.Errorf("round %d, reader %d: never got an index", round, g)
				}
			}(g)
		}
		// The writer moves the live header on while the readers build.
		for i := 0; i < 4; i++ {
			mu.Lock()
			live.MustAdd(NewTuple(value.String(fmt.Sprint("oid-r", round, "-", i)), value.String("pr3")))
			mu.Unlock()
		}
		wg.Wait()
	}
	st := live.EncodingStats()
	if st.IndexPatches == 0 {
		t.Errorf("no round patched a carried index: %+v", st)
	}
	checkSidecars(t, snapshot().Relation("Order"), db.Dict())
}
