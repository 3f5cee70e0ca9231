package table

// Hash-segmented tuple storage.  A relation keeps its tuples in a
// power-of-two array of segments; a tuple lives in the segment that the high
// bits of its key hash pick (the hash of Tuple.AppendKey's bytes).  A segment
// is a []Tuple of rows plus a CodeTable from that hash to the 1-based number
// of the tuple's row, so no relation keeps a Go map or a key string: a probe
// builds the key in a stack buffer, hashes it, and compares the values of the
// rows whose slot holds the hash, and a walk over a segment walks its rows.
// The table starts its probes from the hash's low bits, which the routing
// leaves well spread within a segment.  A relation starts with one segment
// and keeps it however large it grows, for as long as nobody else reads its
// storage: a relation that is built once and read, like every operator
// output, is one row slice and, once probed, one table.
//
// An operator output is often only read row by row — rendered, sorted,
// encoded — and never probed, so a segment filled through Inserter.Reserve
// starts deferred: its rows are known to be distinct and it has no table.
// The first keyed access (find and everything built on it, eachHashed)
// builds the table, once, under the segment's lock, and publishes it by
// clearing the deferred flag with a release store, so readers of a shared,
// frozen segment may race to be first.  Iteration over rows never builds it.
//
// One rule governs writes: a header may write a segment in place iff
// seg.gen == r.gen && !r.shared.  Generations are process-unique and a
// header takes a fresh one whenever it stops sharing, so every segment a
// second header can reach — through Clone, Rename, Snapshot — is frozen
// from that moment on, and nobody ever writes a segment another header can
// read.  The first write after a share has to copy what it touches, and
// that is when the segment count is fitted to the size (mutable): a
// relation whose segments have come to average more than segMax tuples, or
// under segMax/8, is rehashed into the right number of them — O(n), which
// the copy of a single segment would have cost anyway, and only once per
// doubling — and otherwise the write copies the pointer array and the one
// segment it touches, O(S + n/S): its slot array and its row headers, never
// a tuple.  A tuple that was handed out never changes: rows hold tuples the
// relation adopted, and a delete moves the last row header into the hole.
//
// The derived structures (Encoding, Index, CodedIndex, Partitioning)
// remember the segment array they were built from.  A header whose array
// holds the same segment pointers serves them as they are; a header that
// inherited them from an earlier state of the relation (share,
// Database.SnapshotReusing) compares the arrays pointer by pointer and
// redoes only the pieces whose segment changed.  Pointer identity implies
// content identity because only frozen segments are ever compared: a live
// header drops its own sidecars on every mutation (invalidateDerived).

import (
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
)

// segMax is the mean segment size above which fit splits a relation's
// segments; it merges them when the mean is under segMax/8, so a relation
// sitting at either threshold does not flap.  Split and merge rehash every
// tuple, O(n), and are a factor of two of n apart: amortised O(1) a write.
// 1536 is 3/4 of 2048, the load at which a CodeTable doubles: a segment about
// to split still copies 2048 slots.
const segMax = 1536

// segment is one hash slice of a relation's tuples.  Once a second header
// can reach it, it is immutable, but for the one-time build of a deferred
// segment's table.
type segment struct {
	tab  CodeTable // tuple-key hash → 1-based row in rows; empty while deferred
	rows []Tuple
	gen  uint64  // generation of the only header that may write it in place
	keys rowKeys // under tablecheck, the keys of a deferred segment's rows
	// deferred is set while rows are known distinct and tab is not built;
	// build clears it, under mu, once tab is complete.
	deferred atomic.Bool
	mu       sync.Mutex
}

// segSeed keys the hash of tuple keys (and of the projected keys of index
// shards).  It is fixed for the process, so segment i of two arrays of equal
// length covers the same tuples.
var segSeed = maphash.MakeSeed()

func hashBytes(k []byte) uint64 { return maphash.Bytes(segSeed, k) }

// tupleHash hashes t's key, built in a stack buffer.
func tupleHash(t Tuple) uint64 {
	var buf [keyBufSize]byte
	return hashBytes(t.AppendKey(buf[:0]))
}

// segShift is the shift that leaves the log2(segs) high bits of a hash: the
// number of the segment it belongs to.  One segment shifts by 64, which
// leaves 0.
func segShift(segs int) uint { return uint(64 - bits.TrailingZeros(uint(segs))) }

// segOf returns the index of the segment the hash belongs to.
func (r *Relation) segOf(h uint64) int { return int(h >> segShift(len(r.segs))) }

// newSegment returns an empty segment sized for n tuples.
func newSegment(n int, gen uint64) *segment {
	return &segment{tab: MakeCodeTable(n), rows: make([]Tuple, 0, n), gen: gen}
}

// newDeferredSegment returns an empty deferred segment with room for n rows.
func newDeferredSegment(n int, gen uint64) *segment {
	s := &segment{rows: make([]Tuple, 0, n), gen: gen}
	s.deferred.Store(true)
	return s
}

// table returns s's hash table, building it first if s is deferred.  The
// common case is one load of the flag.
func (s *segment) table() *CodeTable {
	if s.deferred.Load() {
		s.build()
	}
	return &s.tab
}

// build makes a deferred segment's table.  Readers of a shared segment may
// call it at once: the first to take the lock builds, the store that clears
// the flag publishes the table, and the others find it built.
func (s *segment) build() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.deferred.Load() {
		return
	}
	tab := MakeCodeTable(len(s.rows))
	for i, t := range s.rows {
		h := tupleHash(t)
		pos, ref := tab.Find(h, -1)
		for ref != 0 {
			pos, ref = tab.Find(h, pos)
		}
		tab.Set(pos, h, int32(i+1))
	}
	s.tab = tab
	s.deferred.Store(false)
}

// appendNew appends t, which s does not hold, as a row of the deferred
// segment s; under tablecheck a duplicate panics.
func (s *segment) appendNew(t Tuple, name string) {
	if !s.keys.add(t) {
		panic("table: AddNew of a tuple already stored in " + name)
	}
	s.appendRow(t)
}

// find returns the position of the slot of the row equal to t (hash h) and
// the row's 1-based number, or row 0 and the empty slot where t would go.
func (s *segment) find(h uint64, t Tuple) (pos int, row int32) {
	tab := s.table()
	pos, row = tab.Find(h, -1)
	for row != 0 && !s.rows[row-1].Equal(t) {
		pos, row = tab.Find(h, pos)
	}
	return pos, row
}

// put appends t, which the segment does not hold, as a row under the empty
// slot pos that find returned.
func (s *segment) put(pos int, h uint64, t Tuple) {
	s.appendRow(t)
	s.tab.Set(pos, h, int32(len(s.rows)))
}

// appendRow appends t to the rows.
func (s *segment) appendRow(t Tuple) {
	if len(s.rows) == cap(s.rows) {
		// Double, as the slots do: append grows a long slice by a quarter,
		// which copies a relation built row by row some five times over.
		rows := make([]Tuple, len(s.rows), max(2*len(s.rows), 8))
		copy(rows, s.rows)
		s.rows = rows
	}
	s.rows = append(s.rows, t)
}

// putNew is put for a tuple known to be absent, with no look at the rows.
func (s *segment) putNew(h uint64, t Tuple) {
	tab := s.table()
	pos, ref := tab.Find(h, -1)
	for ref != 0 {
		pos, ref = tab.Find(h, pos)
	}
	s.put(pos, h, t)
}

// drop deletes the row under the slot pos (as find returned them), moving
// the last row into its place.
func (s *segment) drop(pos int, row int32) {
	s.tab.Delete(pos)
	last := int32(len(s.rows))
	if row != last {
		moved := s.rows[last-1]
		h := tupleHash(moved)
		p, ref := s.tab.Find(h, -1)
		for ref != last {
			p, ref = s.tab.Find(h, p)
		}
		s.tab.Set(p, h, row)
		s.rows[row-1] = moved
	}
	s.rows[last-1] = nil
	s.rows = s.rows[:last-1]
}

// copyFor returns a copy of s that the header of generation gen may write:
// its slots and row headers, with room for one more row.  Every slot keeps
// its position; the copy of a deferred segment is deferred.
func (s *segment) copyFor(gen uint64) *segment {
	rows := make([]Tuple, len(s.rows), len(s.rows)+1)
	copy(rows, s.rows)
	c := &segment{rows: rows, gen: gen}
	if s.deferred.Load() {
		c.deferred.Store(true)
		c.keys = s.keys.clone()
	} else {
		c.tab = s.tab.clone()
	}
	return c
}

// eachHashed calls f with the hash and tuple of every row until f returns
// false.  A walk that routes or probes with the hashes takes them from the
// slots instead of hashing each tuple again.
func (s *segment) eachHashed(f func(h uint64, t Tuple) bool) {
	tab := s.table()
	for i := range tab.slots {
		if sl := &tab.slots[i]; sl.ref != 0 && !f(sl.hash(), s.rows[sl.ref-1]) {
			return
		}
	}
}

// initStorage gives r fresh, exclusively owned storage: one empty segment
// sized for about hint tuples.
func (r *Relation) initStorage(hint int) {
	r.gen = nextGen()
	r.shared.Store(false)
	r.n = 0
	r.segs = []*segment{newSegment(hint, r.gen)}
}

// freshSegs allocates s empty segments writable by r, sized for n tuples
// in all.
func (r *Relation) freshSegs(s, n int) []*segment {
	segs := make([]*segment, s)
	for i := range segs {
		// One allocation each: a replaced segment must not stay reachable
		// because a neighbour in the same allocation is still in use.
		segs[i] = newSegment(n/s+1, r.gen)
	}
	return segs
}

// writable returns segment i ready for an in-place write, copying it first
// when another header can reach it.  The caller has called mutable.
func (r *Relation) writable(i int) *segment {
	s := r.segs[i]
	if s.gen != r.gen {
		s = s.copyFor(r.gen)
		r.segs[i] = s
	}
	return s
}

// has reports whether a tuple equal to t (hash h) is stored.
func (r *Relation) has(h uint64, t Tuple) bool {
	_, row := r.segs[r.segOf(h)].find(h, t)
	return row != 0
}

// insert stores t (hash h) unless an equal tuple is stored, and reports
// whether it did.  The caller has called mutable.
func (r *Relation) insert(h uint64, t Tuple) bool {
	i := r.segOf(h)
	pos, row := r.segs[i].find(h, t)
	if row != 0 {
		return false
	}
	r.writable(i).put(pos, h, t) // a copy keeps every slot where it was
	r.n++
	r.noteInsert(t)
	return true
}

// remove deletes the stored tuple equal to t (hash h), if any, and reports
// whether there was one.  The caller has called mutable.
func (r *Relation) remove(h uint64, t Tuple) bool {
	i := r.segOf(h)
	pos, row := r.segs[i].find(h, t)
	if row == 0 {
		return false
	}
	s := r.writable(i)
	old := s.rows[row-1]
	s.drop(pos, row)
	r.n--
	r.noteDelete(old)
	return true
}

// fitCount returns the segment count a relation of n tuples in s segments
// should have: s, unless the mean segment size is outside
// [segMax/8, segMax].
func fitCount(n, s int) int {
	for n > s*segMax {
		s *= 2
	}
	for s > 1 && n < s*(segMax/8) {
		s /= 2
	}
	return s
}

// resize rehashes every tuple into s fresh segments r may write in place.
// The old segments are left as they are: other headers may still read them.
func (r *Relation) resize(s int) {
	segs := r.freshSegs(s, r.n)
	shift := segShift(s)
	for _, old := range r.segs {
		old.eachHashed(func(h uint64, t Tuple) bool {
			segs[h>>shift].putNew(h, t)
			return true
		})
	}
	r.segs = segs
}

// sameSegs reports whether two segment arrays hold the same segments: a
// sidecar built from a serves a header holding b unchanged.
func sameSegs(a, b []*segment) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// patchable reports whether a sidecar built from old is worth bringing up
// to date for cur rather than rebuilding: the arrays line up segment by
// segment and at most half the segments changed (redoing a piece costs
// about twice its share of a full build: the diff, then the rebuild).
// Database.SnapshotReusing uses the same test to decide which of a
// predecessor's sidecars a new header keeps as candidates, which bounds
// what a never-again-used candidate can pin to half a relation.
func patchable(old, cur []*segment) bool {
	if len(old) != len(cur) || len(old) < 2 {
		return false
	}
	changed := 0
	for i := range old {
		if old[i] != cur[i] {
			changed++
		}
	}
	return changed*2 <= len(old)
}

// diffSegs returns the tuples stored in cur but not in old (ins) and in
// old but not in cur (del), looking only at segments whose pointer
// differs.  The arrays must have equal length.
func diffSegs(old, cur []*segment) (ins, del []Tuple) {
	for i := range old {
		if old[i] != cur[i] {
			ins, del = diffSeg(old[i], cur[i], ins, del)
		}
	}
	return ins, del
}

// diffSeg appends to ins the tuples stored in c but not in o, and to del
// those stored in o but not in c.  Each side is probed with the hashes the
// other's slots hold.
func diffSeg(o, c *segment, ins, del []Tuple) ([]Tuple, []Tuple) {
	before := len(ins)
	c.eachHashed(func(h uint64, t Tuple) bool {
		if _, row := o.find(h, t); row == 0 {
			ins = append(ins, t)
		}
		return true
	})
	// The sizes say how many tuples of o are gone: none after a pure
	// insert, and the search stops at the last one otherwise.
	gone := len(o.rows) + len(ins) - before - len(c.rows)
	if gone == 0 {
		return ins, del
	}
	o.eachHashed(func(h uint64, t Tuple) bool {
		if _, row := c.find(h, t); row == 0 {
			del = append(del, t)
			gone--
		}
		return gone > 0
	})
	return ins, del
}
