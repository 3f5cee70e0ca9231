package table

import "maps"

// Hash indexes over relation columns.  An Index groups the tuples of a
// relation by the binary key of a fixed list of column positions, in the
// chained-slice layout the evaluator's hash join uses: one map entry per
// distinct key and an int32-linked chain of tuples per entry, so probes
// convert no strings and allocate nothing.
//
// An index is a set of shards, one per segment the relation had when the
// index was built, a tuple going to the shard its projected key hashes to.
// Shards are immutable, so an index of a later state of the relation shares
// every shard the change did not route a tuple to (see Relation.Index).
//
// Indexes are built lazily by Relation.Index and cached on the relation;
// any mutation of the relation drops its cached indexes.  Because
// relations are treated as immutable while they are being evaluated
// (see the package contract on Relation), a cached index stays valid for
// as long as query plans keep probing the same relation — this is what
// lets world enumeration build each join's invariant build side once and
// probe it once per world.

// Index is an immutable hash index of a relation over a fixed list of
// column positions.
type Index struct {
	positions []int
	segs      []*segment    // the segments indexed; nil over a bare tuple slice
	shards    []*IndexShard // by hash of the projected key; the length is a power of two
	n         int
	complete  bool // every indexed tuple is null-free
}

// IndexShard holds the chains of the keys that hash to it.
type IndexShard struct {
	heads   map[string]int32 // projected key → 1-based head into entries
	entries []indexEntry
	nulls   int // entries with a null somewhere in the tuple
}

type indexEntry struct {
	t    Tuple
	next int32 // 1-based index into entries; 0 terminates the chain
}

// Positions returns the column positions the index is keyed on.
func (ix *Index) Positions() []int { return ix.positions }

// AllComplete reports whether every indexed tuple is null-free, tracked
// at build time.  The vectorized hash-join probe (internal/plan)
// reads it to take the all-constant fast path: when the build side is
// null-free and the probe columns carry the all-constant sidecar, join
// output needs no per-value null bookkeeping at all.
func (ix *Index) AllComplete() bool { return ix.complete }

// Len returns the number of indexed tuples.
func (ix *Index) Len() int { return ix.n }

// Lookup returns the shard holding the tuples whose projection on the
// indexed positions has the given binary key, and the head of their chain
// in it, 0 if there is none.  The []byte key is never retained, so callers
// can reuse a scratch buffer.
func (ix *Index) Lookup(key []byte) (*IndexShard, int32) {
	sh := ix.shardOf(key)
	return sh, sh.heads[string(key)]
}

// Has reports whether any indexed tuple has the given projected key.
func (ix *Index) Has(key []byte) bool {
	_, i := ix.Lookup(key)
	return i != 0
}

// At returns the tuple stored at chain slot i (1-based, as returned by
// Index.Lookup) and the next slot of the chain (0 terminates).  The
// returned tuple must not be mutated.
func (sh *IndexShard) At(i int32) (Tuple, int32) {
	e := sh.entries[i-1]
	return e.t, e.next
}

// AppendTupleKey appends the key of t restricted to the indexed positions
// to dst — the probe-side counterpart of the index's own key encoding.
func (ix *Index) AppendTupleKey(dst []byte, t Tuple) []byte {
	return appendProjectedKey(dst, t, ix.positions)
}

func appendProjectedKey(dst []byte, t Tuple, positions []int) []byte {
	for _, p := range positions {
		dst = t[p].AppendKey(dst)
	}
	return dst
}

// Index returns a hash index of the relation over the given column
// positions, building it on first use and caching it on the relation.
// When the header inherited an index of an earlier state of the relation
// (Database.SnapshotReusing), only the shards that the changed segments'
// tuples hash to are rebuilt.  Concurrent callers are safe as long as the
// relation is not being mutated; any mutation drops the cache.  The
// positions slice is copied.
func (r *Relation) Index(positions []int) *Index {
	r.ensure()
	for {
		set := r.indexes.Load()
		cur, at := findSidecar(set, func(ix *Index) bool { return samePositions(ix.positions, positions) })
		if cur != nil && sameSegs(cur.segs, r.segs) {
			return cur
		}
		var ix *Index
		if cur != nil && patchable(cur.segs, r.segs) {
			var kept int
			ix, kept = cur.patched(r.segs)
			r.encStats.notePatched(kept)
			r.encStats.noteIndexPatch()
		} else {
			ix = r.buildIndex(positions)
			r.encStats.noteIndexBuild()
		}
		if r.indexes.CompareAndSwap(set, withSidecar(set, at, ix)) {
			return ix
		}
		// Lost a race with another builder; retry (and likely adopt theirs).
	}
}

// findSidecar returns the first element of a cached sidecar set that
// satisfies match, and its position (-1 if none).
func findSidecar[T any](set *[]*T, match func(*T) bool) (*T, int) {
	if set != nil {
		for i, x := range *set {
			if match(x) {
				return x, i
			}
		}
	}
	return nil, -1
}

// patchableSidecars returns the elements of a cached sidecar set that are
// worth bringing up to date for the segments cur, nil if none is.
func patchableSidecars[T any](set *[]*T, segs func(*T) []*segment, cur []*segment) *[]*T {
	var keep []*T
	if set != nil {
		for _, x := range *set {
			if patchable(segs(x), cur) {
				keep = append(keep, x)
			}
		}
	}
	if keep == nil {
		return nil
	}
	return &keep
}

// withSidecar returns a copy of the set with x at position at, or appended
// when at is -1.  Published sets are never modified.
func withSidecar[T any](set *[]*T, at int, x *T) *[]*T {
	var cur []*T
	if set != nil {
		cur = *set
	}
	next := make([]*T, len(cur), len(cur)+1)
	copy(next, cur)
	if at >= 0 {
		next[at] = x
	} else {
		next = append(next, x)
	}
	return &next
}

func (r *Relation) buildIndex(positions []int) *Index {
	ix := newIndex(positions, r.segs, len(r.segs), r.n)
	var buf [keyBufSize]byte
	for _, s := range r.segs {
		for _, t := range s.rows {
			key := appendProjectedKey(buf[:0], t, positions)
			ix.shardOf(key).add(key, t)
		}
	}
	ix.seal()
	return ix
}

// newIndex returns an index of the given number of empty shards, sized for
// n tuples in all; the caller fills the shards and seals it.
func newIndex(positions []int, segs []*segment, shards, n int) *Index {
	ix := &Index{
		positions: append([]int(nil), positions...),
		segs:      segs,
		shards:    make([]*IndexShard, shards),
	}
	per := shardHint(n, shards)
	for i := range ix.shards {
		ix.shards[i] = newIndexShard(per, per)
	}
	return ix
}

// shardHint returns the capacity to give each of the shards n tuples are
// hashed to: the mean plus an eighth, so that the fuller shards do not
// double their slices on the last few appends.
func shardHint(n, shards int) int {
	if shards == 1 {
		return n
	}
	per := n / shards
	return per + per/8 + 8
}

// newIndexShard returns an empty shard sized for n tuples under keys
// distinct keys.
func newIndexShard(keys, n int) *IndexShard {
	return &IndexShard{heads: make(map[string]int32, keys), entries: make([]indexEntry, 0, n)}
}

func (ix *Index) shardOf(key []byte) *IndexShard {
	if len(ix.shards) == 1 {
		return ix.shards[0]
	}
	return ix.shards[hashBytes(key)&uint64(len(ix.shards)-1)]
}

func (sh *IndexShard) add(key []byte, t Tuple) {
	head := sh.heads[string(key)]
	sh.entries = append(sh.entries, indexEntry{t: t, next: head})
	sh.heads[string(key)] = int32(len(sh.entries))
	if !t.IsComplete() {
		sh.nulls++
	}
}

// addKeyed is add for an already interned key.
func (sh *IndexShard) addKeyed(key string, t Tuple) {
	sh.entries = append(sh.entries, indexEntry{t: t, next: sh.heads[key]})
	sh.heads[key] = int32(len(sh.entries))
	if !t.IsComplete() {
		sh.nulls++
	}
}

// seal computes the index-wide totals once the shards are final.
func (ix *Index) seal() {
	ix.n, ix.complete = 0, true
	for _, sh := range ix.shards {
		ix.n += len(sh.entries)
		if sh.nulls > 0 {
			ix.complete = false
		}
	}
}

// patched returns the index of the same positions over cur, sharing every
// shard that no tuple of the difference between ix.segs and cur hashes to,
// and the number of shards shared.
func (ix *Index) patched(cur []*segment) (*Index, int) {
	ins, del := diffSegs(ix.segs, cur)
	out := &Index{positions: ix.positions, segs: cur, shards: append([]*IndexShard(nil), ix.shards...)}
	type change struct{ ins, del []Tuple }
	changes := map[*IndexShard]*change{}
	var buf [keyBufSize]byte
	route := func(t Tuple) *change {
		sh := ix.shardOf(appendProjectedKey(buf[:0], t, ix.positions))
		c := changes[sh]
		if c == nil {
			c = &change{}
			changes[sh] = c
		}
		return c
	}
	for _, t := range ins {
		c := route(t)
		c.ins = append(c.ins, t)
	}
	for _, t := range del {
		c := route(t)
		c.del = append(c.del, t)
	}
	for i, sh := range out.shards {
		if c := changes[sh]; c != nil {
			out.shards[i] = sh.rebuilt(ix.positions, c.ins, c.del)
		}
	}
	out.seal()
	return out, len(out.shards) - len(changes)
}

// rebuilt returns the shard without the tuples of del and with those of
// ins.
func (sh *IndexShard) rebuilt(positions []int, ins, del []Tuple) *IndexShard {
	var buf [keyBufSize]byte
	if len(del) == 0 {
		// Nothing to unlink: a copy of the chains, then the new tuples.
		entries := make([]indexEntry, len(sh.entries), len(sh.entries)+len(ins))
		copy(entries, sh.entries)
		out := &IndexShard{heads: maps.Clone(sh.heads), entries: entries, nulls: sh.nulls}
		for _, t := range ins {
			out.add(appendProjectedKey(buf[:0], t, positions), t)
		}
		return out
	}
	out := newIndexShard(len(sh.heads)+len(ins), len(sh.entries)+len(ins))
	gone := make(map[string][]Tuple, len(del)) // by projected key
	for _, t := range del {
		key := appendProjectedKey(buf[:0], t, positions)
		gone[string(key)] = append(gone[string(key)], t)
	}
	// Walking the chains key by key reuses the interned key strings.
	for key, i := range sh.heads {
		dead := gone[key]
	chain:
		for i != 0 {
			e := sh.entries[i-1]
			i = e.next
			for _, d := range dead {
				if d.Equal(e.t) {
					continue chain
				}
			}
			out.addKeyed(key, e.t)
		}
	}
	for _, t := range ins {
		out.add(appendProjectedKey(buf[:0], t, positions), t)
	}
	return out
}

// invalidateDerived drops all cached derived structures (hash indexes,
// partitionings, the coded sidecar) and the selection demand counted towards
// building one; every mutation path calls it.  A header that mutates may be
// writing its segments in place, so nothing it cached can be checked against
// them any more.
func (r *Relation) invalidateDerived() {
	if r.indexes.Load() != nil {
		r.indexes.Store(nil)
	}
	if r.partitions.Load() != nil {
		r.partitions.Store(nil)
	}
	if r.encoding.Load() != nil {
		r.encoding.Store(nil)
	}
	if r.demands.Load() != nil {
		r.demands.Store(nil)
	}
}

func samePositions(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
