package table

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"incdata/internal/schema"
	"incdata/internal/value"
)

func TestDictEncodeDecodeRoundTrip(t *testing.T) {
	d := NewDict()
	vals := []value.Value{
		value.Int(0), value.Int(-1), value.Int(1 << 40),
		value.String("a"), value.String("b"), value.String(""),
		value.Null(1), value.Null(77),
	}
	codes := make([]uint64, len(vals))
	for i, v := range vals {
		c, ok := d.Encode(v)
		if !ok {
			t.Fatalf("Encode(%v) not ok", v)
		}
		codes[i] = c
		if got := d.Decode(c); got != v {
			t.Fatalf("Decode(Encode(%v)) = %v", v, got)
		}
	}
	// Code equality must coincide with value equality.
	for i, a := range vals {
		for j, b := range vals {
			if (codes[i] == codes[j]) != (a == b) {
				t.Fatalf("code equality disagrees with value equality: %v vs %v", a, b)
			}
		}
	}
	// Nulls are tagged, never interned.
	for i, v := range vals {
		if value.CodeIsNull(codes[i]) != v.IsNull() {
			t.Fatalf("CodeIsNull(%v) wrong for %v", codes[i], v)
		}
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3 interned strings", d.Len())
	}
	// Re-encoding is stable.
	if c, _ := d.Encode(value.String("a")); c != codes[3] {
		t.Fatal("re-encoding changed the code")
	}
	// The only unencodable values: nulls with id ≥ 2^62.
	if _, ok := d.Encode(value.Null(uint64(1) << 62)); ok {
		t.Fatal("huge null id must not encode")
	}
}

// TestDictEncodeInjective pins the invariant the two-phase gather rests on
// (internal/plan): over any mix of values — integers inside and beyond the
// directly coded range, strings that look like integers and like each other,
// nulls — encoding is a function and its own inverse's inverse, so that a set
// of distinct code tuples is a set of distinct tuples and the relation built
// from it needs no second look for duplicates.  Every value is encoded
// several times, in several orders, through Encode and Lookup.
func TestDictEncodeInjective(t *testing.T) {
	var vals []value.Value
	for _, i := range []int64{0, 1, -1, 42, 1 << 40, -(1 << 40),
		1<<62 - 1, 1 << 62, 1<<62 + 1, -(1 << 62), -(1 << 62) - 1, // either side of the inline range
		1<<63 - 1, -(1 << 63)} {
		vals = append(vals, value.Int(i), value.String(fmt.Sprint(i)))
		if i >= 0 && uint64(i) < value.CodePayloadLimit {
			vals = append(vals, value.Null(uint64(i)))
		}
	}
	for i := 0; i < 200; i++ {
		vals = append(vals, value.String(fmt.Sprint("s", i)), value.String(fmt.Sprint("s", i, " ")), value.Int(int64(i)*7919))
	}
	vals = append(vals, value.String(""), value.String("\x00"), value.String("⊥1"))

	d := NewDict()
	byCode := map[uint64]value.Value{}
	byValue := map[value.Value]uint64{}
	for round := 0; round < 3; round++ {
		order := vals
		if round == 1 {
			order = make([]value.Value, len(vals))
			for i, v := range vals {
				order[len(vals)-1-i] = v
			}
		}
		for _, v := range order {
			c, ok := d.Encode(v)
			if !ok {
				t.Fatalf("Encode(%v) not ok", v)
			}
			if prev, seen := byValue[v]; seen && prev != c {
				t.Fatalf("%v has two codes: %#x and %#x", v, prev, c)
			}
			byValue[v] = c
			if other, seen := byCode[c]; seen && other != v {
				t.Fatalf("code %#x stands for both %v and %v", c, other, v)
			}
			byCode[c] = v
			if got := d.Decode(c); got != v {
				t.Fatalf("Decode(Encode(%v)) = %v", v, got)
			}
			if lc, ok := d.Lookup(v); !ok || lc != c {
				t.Fatalf("Lookup(%v) = %#x, %v after Encode gave %#x", v, lc, ok, c)
			}
			if value.CodeIsNull(c) != v.IsNull() {
				t.Fatalf("CodeIsNull(%#x) wrong for %v", c, v)
			}
		}
	}
	if len(byCode) != len(byValue) {
		t.Fatalf("%d distinct values have %d distinct codes", len(byValue), len(byCode))
	}
}

func TestEncodingBuildAndInvalidate(t *testing.T) {
	d := NewDict()
	r := rel2(t, "R", []string{"1", "x"}, []string{"2", "y"}, []string{"⊥1", "x"})
	e := r.Encoding(d)
	if !e.Ok() || e.Rows() != 3 {
		t.Fatalf("Ok=%v Rows=%d", e.Ok(), e.Rows())
	}
	if e.ColConst(0) {
		t.Error("column 0 holds a null; ColConst must be false")
	}
	if !e.ColConst(1) {
		t.Error("column 1 is null-free; ColConst must be true")
	}
	// Decoding the vectors reproduces the relation's tuples.
	seen := decodedRows(e)
	if len(seen) != 3 {
		t.Fatalf("decoded rows = %v", seen)
	}
	// Cached until mutation.
	if r.Encoding(d) != e {
		t.Fatal("second Encoding call must return the cached sidecar")
	}
	r.MustAdd(MustParseTuple("3", "z"))
	e2 := r.Encoding(d)
	if e2 == e {
		t.Fatal("mutation must invalidate the cached encoding")
	}
	if e2.Rows() != 4 {
		t.Fatalf("rebuilt Rows = %d, want 4", e2.Rows())
	}
	// A different dictionary also misses the cache.
	if r.Encoding(NewDict()) == e2 {
		t.Fatal("an encoding must be keyed by its dictionary")
	}
}

func TestEncodingUnencodableIsCachedNegative(t *testing.T) {
	d := NewDict()
	r := NewRelationArity("R", 1)
	r.MustAdd(NewTuple(value.Null(uint64(1) << 62)))
	e := r.Encoding(d)
	if e == nil || e.Ok() {
		t.Fatalf("encoding of an unencodable relation must be a non-nil negative, got %+v", e)
	}
	if r.Encoding(d) != e {
		t.Fatal("the negative must be cached too")
	}
	if e.Index([]int{0}) != nil {
		t.Fatal("Index on a failed encoding must be nil")
	}
}

func TestCodedIndexLookup(t *testing.T) {
	d := NewDict()
	r := rel2(t, "R",
		[]string{"1", "x"}, []string{"1", "y"}, []string{"2", "x"}, []string{"⊥1", "x"})
	e := r.Encoding(d)
	ix := e.Index([]int{0})
	if ix == nil || ix.Len() != 4 {
		t.Fatalf("index: %+v", ix)
	}
	if ix.AllComplete() {
		t.Error("index over a relation with a null must not be AllComplete")
	}
	if got := e.Index([]int{0}); got != ix {
		t.Error("same positions must return the cached index")
	}
	probe := func(v value.Value) int {
		c, ok := d.Encode(v)
		if !ok {
			t.Fatalf("encode %v", v)
		}
		key := []uint64{c}
		h := value.HashCode(value.CodeHashSeed, c)
		n := 0
		for sh, s := ix.Lookup(h); s != 0; {
			var row int32
			row, s = sh.At(s)
			if sh.MatchesKey(row, key) {
				n++
			}
		}
		if ix.HasKey(h, key) != (n > 0) {
			t.Fatalf("HasKey disagrees with chain walk for %v", v)
		}
		return n
	}
	if got := probe(value.Int(1)); got != 2 {
		t.Errorf("key 1 matched %d rows, want 2", got)
	}
	if got := probe(value.Int(2)); got != 1 {
		t.Errorf("key 2 matched %d rows, want 1", got)
	}
	if got := probe(value.Null(1)); got != 1 {
		t.Errorf("key ⊥1 matched %d rows, want 1", got)
	}
	if got := probe(value.Int(9)); got != 0 {
		t.Errorf("absent key matched %d rows, want 0", got)
	}
}

// TestPatchedBlockMatchesEncodeSegment holds the blocks an encoding patches
// from its predecessor's (patchedBlock) to the interning of their segment
// from scratch: after random inserts and deletes — nulls, strings and ints,
// tuples removed and added again — across SnapshotReusing, every block whose
// segment changed holds the same multiset of code rows, with the same
// all-constant flags, as encodeSegment of its segment, and a write the
// predecessor can be patched across builds nothing from scratch.
func TestPatchedBlockMatchesEncodeSegment(t *testing.T) {
	db := NewDatabase(schema.MustNew(schema.NewRelation("R", "a", "b")))
	live, dict := db.Relation("R"), db.Dict()
	rnd := rand.New(rand.NewSource(11))
	val := func() value.Value {
		switch rnd.Intn(4) {
		case 0:
			return value.Null(uint64(rnd.Intn(4) + 1))
		case 1:
			return value.String(fmt.Sprint("s", rnd.Intn(40)))
		default:
			return value.Int(int64(rnd.Intn(4000)))
		}
	}
	var held []Tuple // what was added, some of it since removed
	add := func() {
		tu := NewTuple(val(), val())
		live.MustAdd(tu)
		held = append(held, tu)
	}
	for live.Len() < 8*segMax {
		add()
	}
	rowsOf := func(b *EncBlock) map[[2]uint64]int {
		m := map[[2]uint64]int{}
		for i := 0; i < b.rows; i++ {
			m[[2]uint64{b.cols[0][i], b.cols[1][i]}]++
		}
		return m
	}
	var prev *Database
	patchedRounds := 0
	for round := 0; round < 200; round++ {
		for k := rnd.Intn(4); k >= 0; k-- {
			if rnd.Intn(2) == 0 {
				add()
			} else {
				i := rnd.Intn(len(held))
				live.Remove(held[i])
				if rnd.Intn(3) == 0 {
					live.MustAdd(held[i]) // back again, into a segment already copied
				}
			}
		}
		snap := db.SnapshotReusing(prev)
		r := snap.Relation("R")
		var old []*segment
		if prev != nil {
			old = prev.Relation("R").segs
		}
		builds := r.EncodingStats().Builds
		e := r.Encoding(dict)
		if !e.Ok() || e.Rows() != r.Len() {
			t.Fatalf("round %d: Ok=%v, %d rows for %d tuples", round, e.Ok(), e.Rows(), r.Len())
		}
		if patchable(old, r.segs) {
			patchedRounds++
			if got := r.EncodingStats().Builds; got != builds {
				t.Fatalf("round %d: a patchable write built the encoding from scratch (%d → %d builds)", round, builds, got)
			}
		}
		for i, s := range r.segs {
			if len(old) == len(r.segs) && old[i] == s {
				continue // carried: checked when it was made
			}
			got, want := e.Block(i), encodeSegment(s, 2, dict)
			if !maps.Equal(rowsOf(got), rowsOf(want)) || !slices.Equal(got.consts, want.consts) || got.rows != want.rows {
				t.Fatalf("round %d, block %d: %d rows, consts %v; its segment encodes to %d rows, consts %v",
					round, i, got.rows, got.consts, want.rows, want.consts)
			}
		}
		prev = snap
	}
	if patchedRounds < 150 {
		t.Fatalf("only %d of 200 rounds could patch: the property went untested", patchedRounds)
	}
}

// decodedRows decodes every row of an encoding, block by block, into a
// multiset of rendered rows.
func decodedRows(e *Encoding) map[string]int {
	seen := map[string]int{}
	total := 0
	for b := 0; b < e.Blocks(); b++ {
		blk := e.Block(b)
		for i := 0; i < blk.Rows(); i++ {
			row := ""
			for j := range e.consts {
				row += fmt.Sprint(e.dict.Decode(blk.Col(j)[i]), "|")
			}
			seen[row]++
			total++
		}
	}
	if total != e.Rows() {
		seen[fmt.Sprintf("blocks hold %d rows, Rows() = %d", total, e.Rows())]++
	}
	return seen
}

// TestEncodingConcurrentBuildVsWriter pins the concurrency contract of the
// derived structures: builders only ever run on snapshot headers, whose
// segments are frozen, so any number of them may race each other
// (CAS publication) and a writer that keeps mutating the live header the
// snapshots were taken from.  Run under -race -tags tablecheck in CI.
// Every structure a reader gets must describe its own snapshot exactly,
// however far the writer has moved on.
func TestEncodingConcurrentBuildVsWriter(t *testing.T) {
	db := NewDatabase(schema.MustNew(schema.NewRelation("R", "a", "b")))
	live := db.Relation("R")
	// Past one segment, so the writer's copy-on-write is per segment and
	// the snapshots' sidecars are carried and patched.
	for i := 0; i < 3*segMax; i++ {
		live.MustAdd(NewTuple(value.Int(int64(i%97)), value.String(fmt.Sprintf("s%d", i))))
	}

	const readers = 4
	var wg sync.WaitGroup
	var mu sync.Mutex // what engine.Engine's lock does: Snapshot never races the writer
	var prev *Database
	var rounds atomic.Int64 // reader rounds completed; the writer outlasts a few of each reader
	snapshot := func() *Database {
		mu.Lock()
		defer mu.Unlock()
		prev = db.SnapshotReusing(prev)
		return prev
	}
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := snapshot()
				r := snap.Relation("R")
				rows := r.Len()
				e := r.Encoding(snap.Dict())
				if !e.Ok() || e.Rows() != rows {
					t.Errorf("encoding: Ok=%v Rows=%d, snapshot has %d", e.Ok(), e.Rows(), rows)
					return
				}
				if ix := e.Index([]int{0}); ix.Len() != rows {
					t.Errorf("coded index has %d entries for %d rows", ix.Len(), rows)
					return
				}
				if ix := r.Index([]int{0}); ix.Len() != rows {
					t.Errorf("index has %d entries for %d rows", ix.Len(), rows)
					return
				}
				n := 0
				p := r.Partition([]int{0}, 4)
				for i := 0; i < p.Parts(); i++ {
					n += len(p.Bucket(i))
				}
				if n != rows {
					t.Errorf("partitioning holds %d tuples for %d rows", n, rows)
					return
				}
				rounds.Add(1)
			}
		}()
	}

	// The writer: adds and removes on the live header, under the lock the
	// way Engine.Update holds it.
	for i := 0; i < 400 || (rounds.Load() < 10*readers && i < 20000); i++ {
		mu.Lock()
		live.MustAdd(NewTuple(value.Int(int64(1000+i)), value.String(fmt.Sprintf("w%d", i))))
		if i%3 == 0 {
			live.Remove(NewTuple(value.Int(int64(i%97)), value.String(fmt.Sprintf("s%d", i))))
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()

	// After the writer quiesces, a last snapshot's patched sidecars equal
	// from-scratch builds.
	final := snapshot().Relation("R")
	checkSidecars(t, final, db.Dict())
}
