package table

import (
	"math/bits"
	"slices"
	"sync"
)

// CodeTable is the one hash table of the package: a flat, open-addressed map
// from 64-bit hashes to 1-based int32 references, under every relation's
// segments (tuple-key hash → row, see segment.go), the join build side and
// the diff/intersect membership probe (CodedShard), the equality-selection
// lookup, and the code-tuple sets of internal/plan.  A power-of-two slot
// array is probed linearly from the hash's low bits (a relation picks the
// segment, a CodedIndex the shard, by the high ones); a slot is twelve bytes,
// the full hash and the reference, so a probe compares whole hashes and never
// has to follow the reference to reject a slot.
//
// What a reference means is the owner's business — a chain head, a row
// number.  The table itself allows several slots to hold the same hash (an
// owner that keeps distinct keys of one hash apart fills one slot for each,
// see Find); an owner that wants one slot per hash overwrites the slot Find
// stops at.
//
// value.HashCode over a single code is a bijection on uint64 — the code is
// multiplied by odd constants and xor-shifted, each step invertible, then
// xored into the seed and multiplied by the (odd) FNV prime — so for keys of
// one column equal hashes mean equal keys: Get answers membership with one
// slot load and no look at the stored codes, and a join probe needs no
// MatchesKey.  TestHashCodeSingleCodeBijective pins the property; keys of
// several columns can collide and are always verified.
//
// A CodeTable is not safe for concurrent writes; once its owner stops
// writing, any number of goroutines may probe it.
type CodeTable struct {
	slots []codeSlot  // the length is a power of two; at least one slot is always empty
	n     int         // slots taken
	box   *[]codeSlot // slots' box in slotPool; nil for a table of MakeCodeTable
}

// codeSlot is one table slot.  The hash is split in halves so that the slot
// aligns to four bytes and takes twelve, not sixteen: at the load factors
// below that is less than the Go map it replaces took.
type codeSlot struct {
	lo, hi uint32
	ref    int32 // 0 marks an empty slot
}

func (s *codeSlot) hash() uint64 { return uint64(s.lo) | uint64(s.hi)<<32 }

// codeTableMinSlots is the size of a table made with no hint: results of a
// row or two are common (point queries), and their set must cost next to
// nothing.  Tables double from there.
const codeTableMinSlots = 8

// MakeCodeTable returns an empty table that takes hint references before it
// first grows.  The zero CodeTable is not usable.
func MakeCodeTable(hint int) CodeTable {
	return CodeTable{slots: make([]codeSlot, slotsFor(hint))}
}

// PooledCodeTable is MakeCodeTable for a table that lives no longer than one
// evaluation: its slot arrays come from slotPool and go back there — the
// array it outgrows at each doubling at once, the last one on Release.
func PooledCodeTable(hint int) CodeTable {
	var t CodeTable
	t.slots, t.box = pooledSlots(slotsFor(hint))
	return t
}

// slotsFor returns the number of slots a table needs to take hint references
// at a load factor of at most 3/4.
func slotsFor(hint int) int {
	slots := codeTableMinSlots
	for slots*3 < hint*4 {
		slots <<= 1
	}
	return slots
}

// slotPool recycles the slot arrays of pooled tables.  Arrays are kept apart
// by length, and a table takes and clears only an array of the length it
// needs, so the set of a one-row point query never pays to clear the array a
// scan's set left behind.
var slotPool ClassPool[codeSlot]

// pooledSlots returns n empty slots (n a power of two) and their box.
func pooledSlots(n int) ([]codeSlot, *[]codeSlot) {
	b := slotPool.Get(n)
	clear(*b)
	return *b, b
}

// Release hands a pooled table's slot array back to its pool and leaves the
// table like the zero CodeTable: it must not be probed again, and nothing it
// returned may be used.  A table of MakeCodeTable just drops its array.
func (t *CodeTable) Release() {
	if t.box != nil {
		slotPool.Put(t.box)
	}
	*t = CodeTable{}
}

// Len returns the number of references held.
func (t *CodeTable) Len() int { return t.n }

// Get returns the reference of the first slot holding h, 0 when there is
// none.
func (t *CodeTable) Get(h uint64) int32 {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 || s.hash() == h {
			return s.ref
		}
	}
}

// Find walks h's probe sequence — from its home slot when prev is negative,
// from the slot after prev otherwise — to the next slot that holds h or is
// empty, and returns that slot's position and reference (0: empty, h is in
// no further slot).
func (t *CodeTable) Find(h uint64, prev int) (pos int, ref int32) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	if prev >= 0 {
		i = uint64(prev+1) & mask
	}
	for ; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 || s.hash() == h {
			return int(i), s.ref
		}
	}
}

// Set stores ref, which must not be 0, under h in the slot at pos: a
// position Find(h, ·) returned since the last Set.  It either overwrites the
// reference of a slot that holds h or takes the empty slot the walk ended
// on.  Positions do not survive a Set.
func (t *CodeTable) Set(pos int, h uint64, ref int32) {
	s := &t.slots[pos]
	taken := s.ref != 0
	*s = codeSlot{lo: uint32(h), hi: uint32(h >> 32), ref: ref}
	if taken {
		return
	}
	if t.n++; t.n*4 > len(t.slots)*3 {
		t.grow()
	}
}

// Delete empties the slot at pos, a position Find returned with a reference,
// and shifts the later slots of its probe run back over the hole, so that no
// walk stops short of a slot it must reach and no tombstone is left behind.
// Positions do not survive a Delete.
func (t *CodeTable) Delete(pos int) {
	mask := len(t.slots) - 1
	hole := pos
	for i := (hole + 1) & mask; t.slots[i].ref != 0; i = (i + 1) & mask {
		// The slot at i may fill the hole unless its home lies cyclically in
		// (hole, i]: then a walk from the home would pass i before the hole.
		home := int(t.slots[i].hash()) & mask
		if (hole < i && hole < home && home <= i) || (i < hole && (hole < home || home <= i)) {
			continue
		}
		t.slots[hole] = t.slots[i]
		hole = i
	}
	t.slots[hole] = codeSlot{}
	t.n--
}

// reset empties the table and keeps its slot array.
func (t *CodeTable) reset() {
	clear(t.slots)
	t.n = 0
}

// clone returns a copy of a table made by MakeCodeTable.
func (t *CodeTable) clone() CodeTable {
	return CodeTable{slots: slices.Clone(t.slots), n: t.n}
}

// grow rehashes every slot into an array of twice the length; a pooled
// table trades its array for one of the next class.
func (t *CodeTable) grow() {
	old, oldBox := t.slots, t.box
	if oldBox == nil {
		t.slots = make([]codeSlot, 2*len(old))
	} else {
		t.slots, t.box = pooledSlots(2 * len(old))
	}
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := s.hash() & mask
		for t.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
	if oldBox != nil {
		slotPool.Put(oldBox)
	}
}

// ClassPool recycles the scratch arrays of an evaluation — a CodeTable's
// slots, the codes of a set of code tuples — across evaluations, by length:
// Get(n) returns an array of the smallest power-of-two length ≥ n, taken
// from the pool of that length when it holds one, and Put hands it back
// there.  An array travels in the box Get returns, so a Put allocates
// nothing; its contents are whatever its last user left.  Like the
// sync.Pools under it, a ClassPool is safe for concurrent use and lets the
// collector have what it holds.
type ClassPool[T any] struct {
	pools [classPoolClasses]sync.Pool
}

// classPoolClasses bounds the lengths kept: larger arrays are left to the
// collector.
const classPoolClasses = 32

// Get returns a boxed array of at least n elements.
func (p *ClassPool[T]) Get(n int) *[]T {
	k := bits.Len(uint(max(n, 1) - 1))
	if k < classPoolClasses {
		if b, _ := p.pools[k].Get().(*[]T); b != nil {
			return b
		}
	}
	a := make([]T, 1<<k)
	return &a
}

// Put hands back an array Get returned; the caller must not use it again.
func (p *ClassPool[T]) Put(b *[]T) {
	n := len(*b)
	if k := bits.Len(uint(n - 1)); k < classPoolClasses && n == 1<<k {
		p.pools[k].Put(b)
	}
}
