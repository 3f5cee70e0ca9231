package table

// Hash-segmented tuple storage.  A relation keeps its tuples in a
// power-of-two array of segments, each a map keyed by Tuple.Key; a tuple
// lives in the segment its key hashes to.  A relation starts with one
// segment and keeps it however large it grows, for as long as nobody else
// reads its storage: a relation that is built once and read, like every
// operator output, is one map.
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
// the copy of a single map would have cost anyway, and only once per
// doubling — and otherwise the write copies the pointer array and the one
// segment it touches, O(S + n/S).
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
	"maps"
)

// segMax is the mean segment size above which fit splits a relation's
// segments; it merges them when the mean is under segMax/8, so a relation
// sitting at either threshold does not flap.  Split and merge rehash every
// tuple, O(n), and are a factor of two of n apart: amortised O(1) a write.
// 1792 is 7/8 of 2048, the load a Go map takes before it doubles its
// table: a segment about to split still copies as a 2048-slot map.
const segMax = 1792

// segment is one hash slice of a relation's tuples.  Once a second header
// can reach it, it is immutable.
type segment struct {
	m   map[string]Tuple // keyed by Tuple.Key
	gen uint64           // generation of the only header that may write it in place
}

// segSeed keys the hash that routes tuple keys to segments (and projected
// keys to index shards).  It is fixed for the process, so segment i of two
// arrays of equal length covers the same keys.
var segSeed = maphash.MakeSeed()

func hashBytes(k []byte) uint64  { return maphash.Bytes(segSeed, k) }
func hashString(k string) uint64 { return maphash.String(segSeed, k) }

// segOfBytes returns the index of the segment the key belongs to.
func (r *Relation) segOfBytes(k []byte) int {
	if len(r.segs) == 1 {
		return 0
	}
	return int(hashBytes(k) & uint64(len(r.segs)-1))
}

func (r *Relation) segOfString(k string) int {
	if len(r.segs) == 1 {
		return 0
	}
	return int(hashString(k) & uint64(len(r.segs)-1))
}

// initStorage gives r fresh, exclusively owned storage: one empty segment
// sized for about hint tuples.
func (r *Relation) initStorage(hint int) {
	r.gen = nextGen()
	r.shared.Store(false)
	r.n = 0
	r.segs = []*segment{{m: make(map[string]Tuple, hint), gen: r.gen}}
}

// freshSegs allocates s empty segments writable by r, sized for n tuples
// in all.
func (r *Relation) freshSegs(s, n int) []*segment {
	segs := make([]*segment, s)
	for i := range segs {
		// One allocation each: a replaced segment must not stay reachable
		// because a neighbour in the same allocation is still in use.
		segs[i] = &segment{m: make(map[string]Tuple, n/s+1), gen: r.gen}
	}
	return segs
}

// writable returns segment i ready for an in-place write, copying it first
// when another header can reach it.  The caller has called mutable.
func (r *Relation) writable(i int) *segment {
	s := r.segs[i]
	if s.gen != r.gen {
		s = &segment{m: maps.Clone(s.m), gen: r.gen}
		r.segs[i] = s
	}
	return s
}

// insert stores t under its key k in segment i unless the key is present.
// The caller has called mutable.
func (r *Relation) insert(i int, k string, t Tuple) {
	if _, ok := r.segs[i].m[k]; ok {
		return
	}
	r.writable(i).m[k] = t
	r.n++
	r.noteInsert(k, t)
}

// insertBytes is insert for a key still in a scratch buffer; the key is
// interned only when the tuple is new.
func (r *Relation) insertBytes(k []byte, t Tuple) {
	i := r.segOfBytes(k)
	if _, ok := r.segs[i].m[string(k)]; ok {
		return
	}
	ks := string(k)
	r.writable(i).m[ks] = t
	r.n++
	r.noteInsert(ks, t)
}

// remove deletes the tuple stored under k in segment i (which must hold
// it).  The caller has called mutable.
func (r *Relation) remove(i int, k string, old Tuple) {
	delete(r.writable(i).m, k)
	r.n--
	r.noteDelete(k, old)
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
	mask := uint64(s - 1)
	for _, old := range r.segs {
		for k, t := range old.m {
			segs[hashString(k)&mask].m[k] = t
		}
	}
	r.segs = segs
}

// lookup returns the tuple stored under the key, if any.
func (r *Relation) lookup(k []byte) (Tuple, bool) {
	t, ok := r.segs[r.segOfBytes(k)].m[string(k)]
	return t, ok
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
// those stored in o but not in c.
func diffSeg(o, c *segment, ins, del []Tuple) ([]Tuple, []Tuple) {
	before := len(ins)
	for k, t := range c.m {
		if _, ok := o.m[k]; !ok {
			ins = append(ins, t)
		}
	}
	// The sizes say how many tuples of o are gone: none after a pure
	// insert, and the search stops at the last one otherwise.
	gone := len(o.m) + len(ins) - before - len(c.m)
	for k, t := range o.m {
		if gone == 0 {
			break
		}
		if _, ok := c.m[k]; !ok {
			del = append(del, t)
			gone--
		}
	}
	return ins, del
}
