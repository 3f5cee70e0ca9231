package table

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"incdata/internal/schema"
	"incdata/internal/value"
)

// checkSidecars holds the derived structures r serves — patched from a
// predecessor's or built — against builds from nothing on a fresh copy of
// its tuples.
func checkSidecars(t testing.TB, r *Relation, dict *Dict) {
	t.Helper()
	fresh := NewRelation(r.Schema())
	if err := fresh.AddAll(r); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	r.Each(func(tp Tuple) bool {
		want[tp.Key()]++
		return true
	})
	if len(want) != r.Len() || fresh.Len() != r.Len() {
		t.Fatalf("Len() = %d, fresh copy %d, but %d distinct stored keys", r.Len(), fresh.Len(), len(want))
	}
	sameBag := func(what string, got map[string]int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s holds %d distinct tuples, relation has %d", what, len(got), len(want))
		}
		for k, n := range got {
			if n != 1 || want[k] != 1 {
				t.Fatalf("%s holds %q %d times, relation %d times", what, k, n, want[k])
			}
		}
	}
	positions := [][]int{{0}, {1}, {0, 1}}
	if r.Arity() < 2 {
		positions = [][]int{{0}}
	}

	e, fe := r.Encoding(dict), fresh.Encoding(dict)
	if e.Ok() != fe.Ok() || e.Rows() != fe.Rows() {
		t.Fatalf("encoding Ok=%v Rows=%d, from scratch Ok=%v Rows=%d", e.Ok(), e.Rows(), fe.Ok(), fe.Rows())
	}
	if e.Ok() {
		got := map[string]int{}
		row := make(Tuple, r.Arity())
		for b := 0; b < e.Blocks(); b++ {
			blk := e.Block(b)
			for i := 0; i < blk.Rows(); i++ {
				for j := range row {
					row[j] = dict.Decode(blk.Col(j)[i])
				}
				got[row.Key()]++
			}
		}
		sameBag("encoding", got)
		for j := 0; j < r.Arity(); j++ {
			if e.ColConst(j) != fe.ColConst(j) {
				t.Fatalf("ColConst(%d) = %v, from scratch %v", j, e.ColConst(j), fe.ColConst(j))
			}
		}
	}

	for _, pos := range positions {
		ix, fix := r.Index(pos), fresh.Index(pos)
		if ix.Len() != fix.Len() {
			t.Fatalf("Index(%v): Len=%d, from scratch Len=%d", pos, ix.Len(), fix.Len())
		}
		// Every chain entry must be found by probing with its own key:
		// walking the chains of all stored tuples' keys visits each entry
		// once.
		got := map[string]int{}
		probed := map[string]bool{}
		r.Each(func(tp Tuple) bool {
			key := ix.AppendTupleKey(nil, tp)
			if probed[string(key)] {
				return true
			}
			probed[string(key)] = true
			for sh, i := ix.Lookup(key); i != 0; {
				var m Tuple
				m, i = sh.At(i)
				if string(ix.AppendTupleKey(nil, m)) != string(key) {
					t.Fatalf("Index(%v): chain of %q holds %s", pos, key, m)
				}
				got[m.Key()]++
			}
			return true
		})
		sameBag(fmt.Sprintf("Index(%v)", pos), got)

		if !e.Ok() {
			continue
		}
		cx, fcx := e.Index(pos), fe.Index(pos)
		if cx.Len() != fcx.Len() || cx.AllComplete() != fcx.AllComplete() {
			t.Fatalf("coded Index(%v): Len=%d AllComplete=%v, from scratch Len=%d AllComplete=%v",
				pos, cx.Len(), cx.AllComplete(), fcx.Len(), fcx.AllComplete())
		}
		cgot := map[string]int{}
		cprobed := map[string]bool{}
		key := make([]uint64, len(pos))
		row := make(Tuple, r.Arity())
		r.Each(func(tp Tuple) bool {
			h := value.CodeHashSeed
			for k, p := range pos {
				key[k], _ = dict.Encode(tp[p])
				h = value.HashCode(h, key[k])
			}
			id := fmt.Sprint(key)
			if cprobed[id] {
				return true
			}
			cprobed[id] = true
			if !cx.HasKey(h, key) {
				t.Fatalf("coded Index(%v): HasKey misses %s", pos, tp)
			}
			for sh, i := cx.Lookup(h); i != 0; {
				var rn int32
				rn, i = sh.At(i)
				if !sh.MatchesKey(rn, key) {
					if cx.HashIsKey() {
						t.Fatalf("coded Index(%v): the hash is said to be the key, and the chain of %s holds another", pos, tp)
					}
					continue // another key of the same hash
				}
				for j, c := range sh.Row(rn) {
					row[j] = dict.Decode(c)
				}
				cgot[row.Key()]++
			}
			return true
		})
		sameBag(fmt.Sprintf("coded Index(%v)", pos), cgot)
		if cx.HashIsKey() != (len(pos) <= 1) || fcx.HashIsKey() != cx.HashIsKey() {
			t.Fatalf("coded Index(%v): HashIsKey = %v, from scratch %v", pos, cx.HashIsKey(), fcx.HashIsKey())
		}
		// A key no tuple holds is in neither index, by HasKey and by chain.
		h := value.CodeHashSeed
		for k := range key {
			key[k], _ = dict.Encode(value.String(fmt.Sprint("no tuple holds this ", k)))
			h = value.HashCode(h, key[k])
		}
		for _, ix := range []*CodedIndex{cx, fcx} {
			hit := ix.HasKey(h, key)
			for sh, i := ix.Lookup(h); i != 0 && !hit; {
				var rn int32
				rn, i = sh.At(i)
				hit = ix.HashIsKey() || sh.MatchesKey(rn, key)
			}
			if hit && len(pos) > 0 {
				t.Fatalf("coded Index(%v): a key no tuple holds is found", pos)
			}
		}
	}
}

// storageModel is the plain-map model a relation is checked against, with
// an order-independent fingerprint of its content.
type storageModel struct {
	m   map[int]bool
	sum uint64
}

func (m *storageModel) clone() *storageModel {
	out := &storageModel{m: make(map[int]bool, len(m.m)), sum: m.sum}
	for x := range m.m {
		out.m[x] = true
	}
	return out
}

func fingerprint(x int) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, x)
	return h.Sum64() | 1
}

func (m *storageModel) add(x int) {
	if !m.m[x] {
		m.m[x] = true
		m.sum += fingerprint(x)
	}
}

func (m *storageModel) remove(x int) {
	if m.m[x] {
		delete(m.m, x)
		m.sum -= fingerprint(x)
	}
}

// simDomain is the number of distinct tuples a program can name: enough
// for eight segments, so splits and merges happen at several sizes.
const simDomain = 8 * segMax

// simTuple returns tuple number x mod simDomain; a few hold a null.
func simTuple(x int) Tuple {
	simOnce.Do(func() {
		for x := range simTuples {
			b := value.String(fmt.Sprint("v", x%61))
			if x%53 == 0 {
				b = value.Null(uint64(x%7 + 1))
			}
			simTuples[x] = NewTuple(value.Int(int64(x)), b)
		}
	})
	return simTuples[x%simDomain]
}

var (
	simOnce   sync.Once
	simTuples [simDomain]Tuple
)

func simID(tp Tuple) int {
	x, _ := tp[0].AsInt()
	return int(x)
}

// held is a relation that must keep reading what its model says, whatever
// happens to the relations it shares storage with.
type held struct {
	what  string
	rel   *Relation
	model *storageModel
}

// runStorageProgram interprets prog as a sequence of mutations, clones and
// snapshots of one live relation and checks every invariant of the
// segmented storage after each step.  Both the seeded property test and
// the fuzz target drive it.
func runStorageProgram(t testing.TB, prog []byte) {
	db := NewDatabase(schema.MustNew(schema.NewRelation("R", "a", "b")))
	live := &held{what: "live", rel: db.Relation("R"), model: &storageModel{m: map[int]bool{}}}
	var others []*held
	var prev *Database
	var lastSnap *held           // prev's relation
	stamps := map[Stamp]uint64{} // content fingerprint each stamp was seen with
	// Tuples handed out by Each, Tuples and diffSegs, beside copies of what
	// they read then: a tuple that was handed out never changes, whatever
	// the relations it came from do afterwards.
	type keptTuple struct{ t, was Tuple }
	var kept []keptTuple
	keep := func(ts []Tuple) {
		for _, tp := range ts[:min(len(ts), 8)] {
			kept = append(kept, keptTuple{tp, tp.Clone()})
		}
		if len(kept) > 64 {
			kept = kept[len(kept)-64:]
		}
	}

	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	arg := func() int { return next()<<8 | next() }

	check := func(h *held) {
		t.Helper()
		if h.rel.Len() != len(h.model.m) {
			t.Fatalf("%s: Len() = %d, model has %d", h.what, h.rel.Len(), len(h.model.m))
		}
		seen := map[int]bool{}
		h.rel.Each(func(tp Tuple) bool {
			x := simID(tp)
			if !h.model.m[x] || !tp.Equal(simTuple(x)) || seen[x] {
				t.Fatalf("%s: holds %s, which the model does not (or twice)", h.what, tp)
			}
			seen[x] = true
			return true
		})
		if len(seen) != len(h.model.m) {
			t.Fatalf("%s: Each visited %d tuples, model has %d", h.what, len(seen), len(h.model.m))
		}
		shift := segShift(len(h.rel.segs))
		for i, s := range h.rel.segs {
			if s.deferred.Load() {
				// No table to check, and checking must not build one: the
				// ops after this one are to meet the segment deferred.
				if len(h.rel.segs) != 1 || s.tab.slots != nil {
					t.Fatalf("%s: a deferred segment among %d, with %d slots", h.what, len(h.rel.segs), len(s.tab.slots))
				}
				continue
			}
			if s.tab.Len() != len(s.rows) {
				t.Fatalf("%s: segment %d has %d slots taken for %d rows", h.what, i, s.tab.Len(), len(s.rows))
			}
			s.eachHashed(func(hash uint64, tp Tuple) bool {
				if hash != tupleHash(tp) || int(hash>>shift) != i {
					t.Fatalf("%s: segment %d of %d holds %s under hash %#x (its own %#x)", h.what, i, len(h.rel.segs), tp, hash, tupleHash(tp))
				}
				return true
			})
			for k, tp := range s.rows {
				if _, row := s.find(tupleHash(tp), tp); int(row) != k+1 {
					t.Fatalf("%s: row %d of segment %d is found at row %d", h.what, k+1, i, row)
				}
			}
		}
		st := h.rel.Stamp()
		if sum, seen := stamps[st]; seen && sum != h.model.sum {
			t.Fatalf("%s: stamp %v seen before with other content", h.what, st)
		}
		stamps[st] = h.model.sum
	}

	mutate := func(h *held, op int) {
		before, wasShared, wasEmpty := len(h.rel.segs), h.rel.shared.Load(), h.rel.Len() == 0
		fitted := fitCount(h.rel.Len(), before)
		defer func() {
			after := len(h.rel.segs)
			switch {
			case op%7 == 5: // Reset starts over with one segment
			case op%7 == 3 && wasEmpty: // AddAll into an empty relation takes copies of the other's segments
			case !wasShared && after != before:
				t.Fatalf("%s: went from %d to %d segments in place", h.what, before, after)
			case wasShared && !h.rel.shared.Load() && after != fitted:
				t.Fatalf("%s: stopped sharing with %d segments, its size called for %d", h.what, after, fitted)
			}
			if after > before {
				simSplits++
			} else if after < before {
				simMerges++
			}
		}()
		switch op % 7 {
		case 0: // Add
			x := arg() % simDomain
			h.rel.MustAdd(simTuple(x))
			h.model.add(x)
		case 1: // Remove
			x := arg() % simDomain
			if got := h.rel.Remove(simTuple(x)); got != h.model.m[x] {
				t.Fatalf("%s: Remove(%d) = %v, model says %v", h.what, x, got, h.model.m[x])
			}
			h.model.remove(x)
		case 2: // AddBatch of a run of ids: what crosses split thresholds
			x0, n := arg()%simDomain, (next()+1)*24
			ts := make([]Tuple, n)
			for i := range ts {
				ts[i] = simTuple(x0 + i)
				h.model.add((x0 + i) % simDomain)
			}
			h.rel.MustAddBatch(ts)
		case 3: // AddAll of another relation
			x0, n := arg()%simDomain, (next()+1)*16
			o := NewRelation(h.rel.Schema())
			for i := 0; i < n; i++ {
				o.MustAdd(simTuple(x0 + 3*i))
				h.model.add((x0 + 3*i) % simDomain)
			}
			if err := h.rel.AddAll(o); err != nil {
				t.Fatal(err)
			}
		case 4: // Retain a residue class, or everything under a bound: what crosses merge thresholds
			k, bound := next()%5+2, arg()%simDomain
			keep := func(x int) bool { return x%k != 0 }
			if k == 2 {
				keep = func(x int) bool { return x < bound }
			}
			h.rel.Retain(func(tp Tuple) bool { return keep(simID(tp)) })
			for x := range h.model.m {
				if !keep(x) {
					h.model.remove(x)
				}
			}
		case 5: // Reset, rarely, or a refill the way a gather fills its result: the table deferred
			switch next() % 4 {
			case 0:
				h.rel.Reset(h.rel.Schema())
				h.model = &storageModel{m: map[int]bool{}}
			case 1:
				x0, n := arg()%simDomain, (next()+1)*24
				h.rel.Reset(h.rel.Schema())
				h.model = &storageModel{m: map[int]bool{}}
				ins := h.rel.BeginInsert()
				ins.Reserve(n)
				for i := 0; i < n; i++ {
					ins.AddNew(simTuple(x0 + i))
					h.model.add((x0 + i) % simDomain)
				}
				if !h.rel.segs[0].deferred.Load() {
					t.Fatalf("%s: a reserved refill built its table", h.what)
				}
				simDeferred++
			}
		case 6: // ApplyDelta
			d := NewDelta()
			for i, n := 0, next()%8; i < n; i++ {
				x := arg() % simDomain
				tp := simTuple(x)
				if d.Inserted[tp.Key()] != nil || d.Deleted[tp.Key()] != nil {
					continue // a delta names a tuple once
				}
				if h.model.m[x] {
					d.Deleted[tp.Key()] = tp
					h.model.remove(x)
				} else {
					d.Inserted[tp.Key()] = tp
					h.model.add(x)
				}
			}
			h.rel.ApplyDelta(d)
		}
	}

	// lookup answers a = x the way a selection does, through the access-path
	// rule (asking often enough that a selective key gets its index), and
	// holds the answer against the model.
	lookup := func(h *held, x int, coded bool) {
		t.Helper()
		want, found := simTuple(x), false
		match := func(tp Tuple) {
			if !tp.Equal(want) {
				t.Fatalf("%s: lookup of %d yields %s", h.what, x, tp)
			}
			found = true
		}
		e := h.rel.Encoding(db.Dict())
		switch coded = coded && e.Ok(); coded {
		case false:
			var ix *Index
			for i := 0; i <= indexBuildScans && ix == nil; i++ {
				ix, _ = h.rel.SelectIndex([]int{0})
			}
			if ix == nil {
				found = h.rel.Contains(want)
				break
			}
			for sh, i := ix.Lookup(ix.AppendTupleKey(nil, want)); i != 0; {
				var tp Tuple
				tp, i = sh.At(i)
				match(tp)
			}
		case true:
			var ix *CodedIndex
			for i := 0; i <= indexBuildScans && ix == nil; i++ {
				ix, _ = h.rel.SelectCodedIndex(e, []int{0})
			}
			code, ok := db.Dict().Lookup(want[0])
			if ix == nil || !ok {
				found = h.rel.Contains(want)
				break
			}
			// One key column: the slot of the hash is the whole answer, for a
			// key that is there and for one that is not, and every row of the
			// chain holds the key.
			key, hash := []uint64{code}, value.HashCode(value.CodeHashSeed, code)
			if !ix.HashIsKey() || ix.HasKey(hash, key) != h.model.m[x] {
				t.Fatalf("%s: HashIsKey %v, HasKey of %d = %v, model: %v", h.what, ix.HashIsKey(), x, ix.HasKey(hash, key), h.model.m[x])
			}
			for sh, i := ix.Lookup(hash); i != 0; {
				var rn int32
				rn, i = sh.At(i)
				if !sh.MatchesKey(rn, key) {
					t.Fatalf("%s: the chain of %d holds another key", h.what, x)
				}
				tp := make(Tuple, h.rel.Arity())
				for j, c := range sh.Row(rn) {
					tp[j] = db.Dict().Decode(c)
				}
				match(tp)
			}
		}
		if found != h.model.m[x] {
			t.Fatalf("%s: lookup of %d (coded %v) found it: %v, model: %v", h.what, x, coded, found, h.model.m[x])
		}
	}

	for steps := 0; len(prog) > 0 && steps < 400; steps++ {
		switch op := next(); op % 12 {
		default:
			mutate(live, op)
		case 10: // point lookup on the last snapshot: its index is patched from the one before
			if lastSnap != nil {
				lookup(lastSnap, arg()%simDomain, op/12%2 == 0)
			}
		case 7: // Clone or Rename, then sometimes write the copy
			c := &held{what: fmt.Sprint("clone@", steps), model: live.model.clone()}
			if op/12%2 == 0 {
				c.rel = live.rel.Clone()
			} else {
				c.rel = live.rel.Rename("C")
			}
			for i, n := 0, next()%3; i < n; i++ {
				mutate(c, next())
			}
			others = append(others, c)
		case 8, 9: // Snapshot: sidecars patched from the previous one's
			snap := db.SnapshotReusing(prev)
			prev = snap
			s := &held{what: fmt.Sprint("snapshot@", steps), rel: snap.Relation("R"), model: live.model.clone()}
			check(s)
			checkSidecars(t, s.rel, db.Dict())
			others = append(others, s)
			lastSnap = s
		case 11: // keep tuples handed out (through Each, Tuples, or a diff of the last snapshot against the live relation), or compare
			switch next() % 4 {
			case 3: // Equal, both ways, to the model's relation and to one with a tuple swapped
				want := NewRelation(live.rel.Schema())
				for x := range live.model.m {
					want.MustAdd(simTuple(x))
				}
				if !live.rel.Equal(want) || !want.Equal(live.rel) {
					t.Fatalf("live: not Equal to the model's relation")
				}
				for x := range live.model.m {
					y := (x + 1) % simDomain
					if live.model.m[y] {
						continue
					}
					want.Remove(simTuple(x))
					want.MustAdd(simTuple(y))
					if live.rel.Equal(want) || want.Equal(live.rel) {
						t.Fatalf("live: Equal to the model's relation with %d swapped for %d", x, y)
					}
					break
				}
			case 0:
				var ts []Tuple
				live.rel.Each(func(tp Tuple) bool {
					ts = append(ts, tp)
					return len(ts) < 8
				})
				keep(ts)
			case 1:
				if len(others) > 0 {
					keep(others[next()%len(others)].rel.Tuples())
				}
			case 2:
				if lastSnap != nil && len(lastSnap.rel.segs) == len(live.rel.segs) {
					ins, del := diffSegs(lastSnap.rel.segs, live.rel.segs)
					keep(append(ins, del...))
				}
			}
		}
		for _, k := range kept {
			if !k.t.Equal(k.was) {
				t.Fatalf("a tuple handed out as %s now reads %s", k.was, k.t)
			}
		}
		check(live)
		if len(others) > 6 {
			others = others[len(others)-6:]
		}
		if steps%8 == 0 {
			for _, h := range others {
				check(h)
			}
		}
	}
	for _, h := range others {
		check(h)
	}
	if prev != nil {
		checkSidecars(t, prev.Relation("R"), db.Dict())
	}
}

// simSplits and simMerges count the mutations that left a relation with
// more, or fewer, segments, and simDeferred the refills that left one
// deferred.
var simSplits, simMerges, simDeferred int

// TestSegmentedStorageModel runs seeded random programs through
// runStorageProgram.  CI runs it under -race -tags tablecheck as well.
func TestSegmentedStorageModel(t *testing.T) {
	simSplits, simMerges, simDeferred = 0, 0, 0
	defer func() {
		if simSplits < 5 || simMerges < 5 || simDeferred < 5 {
			t.Errorf("the programs split segments %d times, merged them %d times and deferred a table %d times; want at least 5 of each", simSplits, simMerges, simDeferred)
		}
	}()
	rnd := rand.New(rand.NewSource(12))
	for p := 0; p < 4; p++ {
		prog := make([]byte, 300)
		rnd.Read(prog)
		// Load past a few split thresholds first, so that the rest of the
		// program works on a multi-segment relation; every other program
		// then starts over from a deferred refill of 4800 tuples.
		head := []byte{2, byte(p), 0, 255, 2, byte(p), 40, 255, 8, 10, 1, 0, 2, 50, 0, 200, 9, 10, 1, 0, 22, 0, 7}
		if p%2 == 1 {
			head = append(head, 5, 1, byte(p), 0, 199)
		}
		runStorageProgram(t, append(head, prog...))
	}
}

// deferredSeed prefixes a fuzz seed with a refill of 96 tuples into a
// deferred segment, so that the ops after it meet the segment deferred.
func deferredSeed(ops ...byte) []byte { return append([]byte{5, 1, 0, 0, 3}, ops...) }

func FuzzSegmentedStorage(f *testing.F) {
	f.Add([]byte{2, 0, 0, 255, 8, 0, 0, 1, 9, 4, 2, 1, 0, 8, 1, 0, 1, 9})
	f.Add([]byte{2, 0, 0, 255, 2, 9, 0, 255, 2, 20, 0, 255, 9, 4, 0, 0, 100, 9, 5, 0, 9})
	f.Add([]byte{2, 0, 0, 255, 8, 10, 0, 9, 0, 0, 9, 1, 0, 9, 9, 10, 0, 9, 22, 0, 9, 10, 0, 8})
	f.Add([]byte{2, 0, 0, 255, 11, 0, 8, 1, 0, 9, 11, 2, 11, 1, 4, 2, 0, 0, 11, 2, 5, 0, 6, 3, 0, 1, 0, 2, 0, 3, 9, 11, 2, 7, 1, 11, 1})
	// Kept tuples across a Reset that reuses the segment, a write-copy, a
	// Remove, a Retain and an ApplyDelta of the same segment.
	f.Add([]byte{5, 0, 2, 0, 5, 1, 11, 0, 5, 0, 2, 0, 200, 1, 11, 0, 8, 0, 3, 0, 1, 0, 200, 4, 3, 0, 0, 6, 2, 0, 210, 0, 211, 11, 2, 9})
	// The first op after a deferred refill of ids 0..95 meets the segment
	// with no table.
	for _, ops := range [][]byte{
		{1, 0, 5},                    // Remove
		{4, 3, 0, 0},                 // Retain the ids not divisible by 5
		{6, 2, 0, 5, 0, 200},         // ApplyDelta: delete 5, insert 200
		{3, 0, 0, 1},                 // AddAll of 32 tuples held
		{5, 0},                       // Reset
		{0, 0, 7},                    // Add of a tuple held
		{7, 2, 0, 0, 9, 1, 0, 3},     // Clone, then two writes to the clone
		{19, 0, 0, 0, 1},             // Rename, then a write to the live relation
		{8, 10, 0, 5, 22, 0, 6},      // Snapshot, then a coded and a row point lookup
		{8, 0, 0, 200, 9, 10, 0, 1},  // Snapshot, write, a snapshot reusing the first
		{11, 3},                      // Equal
		{8, 5, 1, 0, 50, 3, 11, 2},   // Snapshot, refill, diff of the two deferred segments
		{8, 5, 1, 0, 50, 3, 9, 8, 9}, // Snapshot, refill, snapshots reusing it
	} {
		f.Add(deferredSeed(ops...))
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 400 {
			prog = prog[:400]
		}
		runStorageProgram(t, prog)
	})
}

// TestFrozenSnapshotPanicsUnderTablecheck pins the enforcement half of the
// concurrency contract: with the tablecheck tag, every mutator of a
// snapshot header panics.
func TestFrozenSnapshotPanicsUnderTablecheck(t *testing.T) {
	if !tablecheck {
		t.Skip("built without -tags tablecheck")
	}
	db := NewDatabase(schema.MustNew(schema.NewRelation("R", "a")))
	db.MustAdd("R", NewTuple(value.Int(1)))
	r := db.Snapshot().Relation("R")
	for name, mutate := range map[string]func(){
		"Add":        func() { r.MustAdd(NewTuple(value.Int(2))) },
		"Remove":     func() { r.Remove(NewTuple(value.Int(1))) },
		"Retain":     func() { r.Retain(func(Tuple) bool { return true }) },
		"Reset":      func() { r.Reset(r.Schema()) },
		"FillMapped": func() { r.FillMapped(db.Relation("R"), func(v value.Value) value.Value { return v }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a snapshot relation did not panic", name)
				}
			}()
			mutate()
		}()
	}
	// A clone of a snapshot relation is an ordinary, writable relation.
	c := r.Clone()
	c.MustAdd(NewTuple(value.Int(2)))
	if r.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone write leaked: snapshot %d, clone %d", r.Len(), c.Len())
	}
}

// TestWriteCostFollowsDelta pins O(Δ): the bytes allocated by one
// write-snapshot-read cycle — the first write after a snapshot, the next
// SnapshotReusing, and bringing the encoding, a coded index and an index
// up to date — must not follow the size of the relation.
func TestWriteCostFollowsDelta(t *testing.T) {
	sizes := []int{1_000, 100_000, 1_000_000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	perCycle := map[int]float64{}
	for _, n := range sizes {
		db := NewDatabase(schema.MustNew(schema.NewRelation("R", "a", "b")))
		live := db.Relation("R")
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = NewTuple(value.Int(int64(i)), value.Int(int64(i/4)))
		}
		live.MustAddBatch(ts)
		var prev *Database
		cycle := func(i int) {
			live.MustAdd(NewTuple(value.Int(int64(n+i)), value.Int(int64(n+i))))
			prev = db.SnapshotReusing(prev)
			r := prev.Relation("R")
			r.Encoding(db.Dict()).Index([]int{1})
			r.Index([]int{1})
		}
		// The full builds, twice: over the one segment the relation was
		// loaded into, and again after the first write has split it.
		cycle(0)
		cycle(1)
		built := live.EncodingStats()
		const cycles = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 2; i < 2+cycles; i++ {
			cycle(i)
		}
		runtime.ReadMemStats(&after)
		perCycle[n] = float64(after.TotalAlloc-before.TotalAlloc) / cycles
		t.Logf("n=%d: %d segments, %.0f bytes allocated per cycle", n, len(live.segs), perCycle[n])
		if st := live.EncodingStats(); n > segMax && (st.Builds != built.Builds || st.Patched <= built.Patched) {
			t.Errorf("n=%d: %+v after %+v; want every measured cycle patched, none built", n, st, built)
		}
	}
	if big, ok := perCycle[1_000_000]; ok && big > 2*perCycle[100_000] {
		t.Errorf("a cycle allocates %.0f bytes at 1M tuples, %.0f at 100k: more than 2×", big, perCycle[100_000])
	}
	// A cycle must cost far less than a copy of the relation, some 40 bytes
	// a tuple.  At 100k tuples it measures 117 kB (238 kB when a segment was
	// a map): the copy of one 800-row segment, 1024 slots and 800 row
	// headers, is 31 kB of it.
	if perCycle[100_000] > 150_000 {
		t.Errorf("a cycle allocates %.0f bytes at 100k tuples, want at most 150000", perCycle[100_000])
	}
}

// TestScratchRelationAllocs guards the world sweep's scratch relations:
// creating, filling and resetting a 20-tuple relation.  That took 49 objects
// with one map per relation and 31 with a map per segment, which interned
// one key string per tuple.  A segment of slots and rows interns none: the
// header, its counters, the segment array, the segment and its first slots
// are five objects, and the rest is two doublings of the slots (8 → 32) and
// three of the rows (8 → 32).
func TestScratchRelationAllocs(t *testing.T) {
	rs := schema.WithArity("T", 2)
	tuples := make([]Tuple, 20)
	for i := range tuples {
		tuples[i] = NewTuple(value.Int(int64(i)), value.Int(int64(i*7)))
	}
	got := testing.AllocsPerRun(200, func() {
		r := NewRelation(rs)
		for _, tp := range tuples {
			r.MustAdd(tp)
		}
		r.Reset(rs)
	})
	if got != 10 {
		t.Errorf("create+fill+Reset of a 20-tuple relation: %v allocations, want 10", got)
	}
}
