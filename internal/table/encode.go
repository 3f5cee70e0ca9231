package table

// Coded execution support: the per-database value dictionary (Dict), the
// per-relation coded-column sidecar (Encoding) and hash indexes over raw
// codes (CodedIndex).
//
// An Encoding interns every column of a relation into a dense []uint64
// code vector against the database's dictionary: in-range integers and
// null ids embed arithmetically in the code space (see value.EncodeDirect)
// and everything else — strings, astronomically out-of-range integers —
// gets a dictionary slot.  Because the dictionary interns each distinct
// value exactly once, code equality coincides with value equality across
// every relation encoded against the same dictionary, which is all that
// certain-answer evaluation ever asks of constants.  The coded
// kernels of internal/plan run entirely over these codes and decode back
// to value.Value only at materialization.
//
// Encodings are built lazily by Relation.Encoding and CAS-published on
// the relation: one block of code vectors per segment, so the encoding of
// a later state of the relation patches only the blocks whose segment
// changed and shares the rest (see segment.go).  Any mutation drops the
// header's cached sidecar (invalidateDerived).  A relation containing a
// value outside the code space (only null ids ≥ 2^62 qualify) yields an
// Encoding with Ok() == false, which the plan layer treats as "run this
// subtree on the row path".

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"incdata/internal/value"
)

// Dict is a per-database intern table for values that do not embed
// directly in the code space.  It only ever grows; codes are stable for
// the lifetime of the dictionary, and the same dictionary is shared by
// every snapshot and clone of a database lineage, so codes stay
// comparable across snapshots.  All methods are safe for concurrent use.
type Dict struct {
	mu   sync.RWMutex
	ids  map[value.Value]uint64 // value → full (tagged) code
	vals []value.Value          // dictionary index → value; append-only
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: make(map[value.Value]uint64)} }

// Encode returns the code of v, interning it when the code space cannot
// express it directly.  It reports false only for values outside the
// code space entirely: nulls with id ≥ 2^62 (nulls must never be
// interned, or the tag test CodeIsNull would lie) and dictionary
// overflow past 2^62 entries.
func (d *Dict) Encode(v value.Value) (uint64, bool) {
	if c, ok := value.EncodeDirect(v); ok {
		return c, true
	}
	if v.IsNull() {
		return 0, false
	}
	d.mu.RLock()
	c, ok := d.ids[v]
	d.mu.RUnlock()
	if ok {
		return c, true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.ids[v]; ok {
		return c, true
	}
	idx := uint64(len(d.vals))
	if idx >= value.CodePayloadLimit {
		return 0, false
	}
	d.vals = append(d.vals, v)
	c = value.DictCode(idx)
	d.ids[v] = c
	return c, true
}

// Lookup returns the code of v without interning it: false means v has no
// code yet, so no relation encoded against the dictionary holds it.
func (d *Dict) Lookup(v value.Value) (uint64, bool) {
	if c, ok := value.EncodeDirect(v); ok {
		return c, true
	}
	d.mu.RLock()
	c, ok := d.ids[v]
	d.mu.RUnlock()
	return c, ok
}

// Decode returns the value a code stands for.  The code must have been
// produced by this dictionary (or value.EncodeDirect).
func (d *Dict) Decode(code uint64) value.Value {
	if v, ok := value.DecodeDirect(code); ok {
		return v
	}
	d.mu.RLock()
	v := d.vals[value.DictIndex(code)]
	d.mu.RUnlock()
	return v
}

// Values returns the current decode table: Values()[i] is the value of
// dictionary code i.  The slice is append-only and its entries are
// immutable, so the returned header stays valid (for the indexes it
// covers) even while other goroutines keep interning; hot decode loops
// take one snapshot and refresh it only when they meet a newer code.
func (d *Dict) Values() []value.Value {
	d.mu.RLock()
	vals := d.vals
	d.mu.RUnlock()
	return vals
}

// Len returns the number of interned (dictionary-coded) values.
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.vals)
	d.mu.RUnlock()
	return n
}

// Encoding is the coded-column sidecar of a relation: per segment one
// block of []uint64 code vectors, one vector per column (all in the same
// arbitrary-but-fixed row order), plus the per-column all-constant sidecar
// of col.Coded.  An Encoding is immutable once
// published.
type Encoding struct {
	dict   *Dict
	segs   []*segment  // the segments encoded, block i from segment i; nil when adopted
	blocks []*EncBlock // adopted encodings have one block in no segment's order
	consts []bool      // per column: no null code present
	rows   int
	ok     bool      // every value encoded; false → coded path must fall back
	stats  *encStats // the relation lineage's counters (nil-safe)
	// indexes caches coded hash indexes by key positions, CAS-published
	// exactly like Relation.indexes.
	indexes atomic.Pointer[[]*CodedIndex]
}

// EncBlock is the code vectors of one segment's tuples.
type EncBlock struct {
	cols   [][]uint64
	consts []bool
	rows   int
	ok     bool
}

// Ok reports whether every value of the relation was encodable.  When
// false the other accessors carry partial data and must not be used.
func (e *Encoding) Ok() bool { return e != nil && e.ok }

// Rows returns the number of encoded rows.
func (e *Encoding) Rows() int { return e.rows }

// Blocks returns the number of blocks; every row is in exactly one.
func (e *Encoding) Blocks() int { return len(e.blocks) }

// Block returns block i.
func (e *Encoding) Block(i int) *EncBlock { return e.blocks[i] }

// ColConst reports whether column j contains no null code.
func (e *Encoding) ColConst(j int) bool { return e.consts[j] }

// Dict returns the dictionary the encoding was built against.
func (e *Encoding) Dict() *Dict { return e.dict }

// Rows returns the number of rows of the block.
func (b *EncBlock) Rows() int { return b.rows }

// Col returns the code vector of column j.  It must not be mutated.
func (b *EncBlock) Col(j int) []uint64 { return b.cols[j] }

// encStats counts coded-sidecar builds, sidecar carry-forwards, index builds
// and the access paths of equality selections (access.go) for one relation
// lineage.  The pointer is shared across copy-on-write shares, so
// Engine.Stats sees the lineage's history no matter which snapshot paid
// for a build.  Derived temporaries made by the plan layer carry a nil
// encStats; the methods are nil-safe.
type encStats struct {
	builds       atomic.Uint64
	patched      atomic.Uint64
	indexLookups atomic.Uint64
	selectScans  atomic.Uint64
	indexBuilds  atomic.Uint64
	indexPatches atomic.Uint64
}

func (s *encStats) noteIndexLookup() {
	if s != nil {
		s.indexLookups.Add(1)
	}
}

func (s *encStats) noteSelectScan() {
	if s != nil {
		s.selectScans.Add(1)
	}
}

func (s *encStats) noteIndexBuild() {
	if s != nil {
		s.indexBuilds.Add(1)
	}
}

func (s *encStats) noteIndexPatch() {
	if s != nil {
		s.indexPatches.Add(1)
	}
}

func (s *encStats) noteBuild() {
	if s != nil {
		s.builds.Add(1)
	}
}

// notePatched counts the pieces (encoding blocks, index shards) a sidecar
// took over unchanged from its predecessor.
func (s *encStats) notePatched(pieces int) {
	if s != nil {
		s.patched.Add(uint64(pieces))
	}
}

// EncodingStats is a point-in-time snapshot of one relation's sidecar
// counters, surfaced through Engine.Stats: how many full interning passes
// the relation has paid for, and how many pieces later sidecars took over
// from their predecessors instead of rebuilding them.
type EncodingStats struct {
	Builds  uint64 // coded sidecars built from nothing (full interning passes)
	Patched uint64 // encoding blocks and index shards carried forward unchanged
	// The access paths equality selections and coded joins asked the
	// relation for took (access.go), and what their indexes and the joins'
	// cost: asks answered from an index, asks that scanned, hash indexes (of
	// either kind) built from nothing, and indexes brought up to date from a
	// predecessor.
	IndexLookups uint64
	SelectScans  uint64
	IndexBuilds  uint64
	IndexPatches uint64
	// Declines and Declined are always zero: the churn guard that declined
	// builds for fast-changing relations is gone, a rebuild now costs what
	// changed.  The fields stay for readers of Engine.Stats.
	Declines uint64
	Declined bool
}

// Active reports whether the relation has any sidecar or access-path
// history worth reporting.
func (s EncodingStats) Active() bool {
	return s.Builds > 0 || s.Patched > 0 || s.IndexLookups > 0 || s.SelectScans > 0 || s.IndexBuilds > 0
}

// EncodingStats returns the relation's sidecar build and carry counters.
func (r *Relation) EncodingStats() EncodingStats {
	if r == nil || r.encStats == nil {
		return EncodingStats{}
	}
	return EncodingStats{
		Builds:       r.encStats.builds.Load(),
		Patched:      r.encStats.patched.Load(),
		IndexLookups: r.encStats.indexLookups.Load(),
		SelectScans:  r.encStats.selectScans.Load(),
		IndexBuilds:  r.encStats.indexBuilds.Load(),
		IndexPatches: r.encStats.indexPatches.Load(),
	}
}

// Encoding returns the relation's coded sidecar against the given
// dictionary, building it on first use and caching it on the relation.
// When the header inherited the encoding of an earlier state of the
// relation (Database.SnapshotReusing), only the blocks whose segment
// changed are patched.  Concurrent callers are safe as long as the
// relation is not being mutated — which the engine guarantees by evaluating
// over snapshot headers only; nothing here detects a writer.  Any mutation
// drops the cache.  Check Ok on the result: a relation holding a value
// outside the code space encodes to a cached negative.
func (r *Relation) Encoding(dict *Dict) *Encoding {
	if r == nil || dict == nil {
		return nil
	}
	r.ensure()
	for {
		cur := r.encoding.Load()
		var prev *Encoding // of an earlier state, worth bringing up to date
		if cur != nil && cur.dict == dict {
			if cur.segs == nil || sameSegs(cur.segs, r.segs) {
				return cur
			}
			if patchable(cur.segs, r.segs) {
				prev = cur
			}
		}
		ne := r.buildEncoding(dict, prev)
		if r.encoding.CompareAndSwap(cur, ne) {
			return ne
		}
		// Lost a race with another builder; retry (and likely adopt theirs).
	}
}

// buildEncoding encodes r block by block, taking over from prev (an
// encoding of an earlier state with as many segments, or nil) the blocks
// of segments that did not change, patching those of segments that did,
// and taking its coded indexes as candidates.
func (r *Relation) buildEncoding(dict *Dict, prev *Encoding) *Encoding {
	arity := r.schema.Arity()
	e := &Encoding{
		dict:   dict,
		segs:   r.segs,
		blocks: make([]*EncBlock, len(r.segs)),
		stats:  r.encStats,
	}
	kept := 0
	for i, s := range r.segs {
		switch {
		case prev != nil && prev.segs[i] == s:
			e.blocks[i] = prev.blocks[i]
			kept++
		case prev != nil && prev.blocks[i].ok:
			e.blocks[i] = patchedBlock(prev.blocks[i], prev.segs[i], s, arity, dict)
		default:
			e.blocks[i] = encodeSegment(s, arity, dict)
		}
	}
	if prev == nil {
		r.encStats.noteBuild()
	} else {
		r.encStats.notePatched(kept)
		e.indexes.Store(patchableSidecars(prev.indexes.Load(), func(ix *CodedIndex) []*segment { return ix.segs }, r.segs))
	}
	e.seal(arity)
	return e
}

// encodeSegment interns one segment's tuples; on a value outside the code
// space the block is left partial with ok false.
func encodeSegment(s *segment, arity int, dict *Dict) *EncBlock {
	b := newEncBlock(arity, len(s.rows))
	row := make([]uint64, arity)
	for _, t := range s.rows {
		if !b.appendTuple(t, row, dict) {
			break
		}
	}
	return b
}

// patchedBlock returns the block of segment cur built from old, the block of
// its predecessor prev: old's code rows less those of the tuples gone from
// the segment, then the rows of the tuples added.  Only the diff's tuples are
// looked up in the dictionary; the rows of the tuples that stayed are copied
// as codes.  Row order is free, since every reader takes a block whole.
func patchedBlock(old *EncBlock, prev, cur *segment, arity int, dict *Dict) *EncBlock {
	ins, del := diffSeg(prev, cur, nil, nil)
	b := newEncBlock(arity, len(cur.rows))
	row := make([]uint64, arity)
	if len(del) == 0 {
		for j := range b.cols {
			b.cols[j] = append(b.cols[j], old.cols[j]...)
			b.consts[j] = old.consts[j]
		}
		b.rows = old.rows
	} else {
		// The rows to drop, in a table by the hash of their codes.
		gone := MakeCodeTable(len(del))
		goneCodes := make([]uint64, len(del)*arity)
		for i, t := range del {
			g := goneCodes[i*arity : (i+1)*arity]
			for j, v := range t {
				g[j], _ = dict.Encode(v) // a value of old: it has its code
			}
			h := rowHash(g)
			pos, ref := gone.Find(h, -1)
			for ref != 0 {
				pos, ref = gone.Find(h, pos)
			}
			gone.Set(pos, h, int32(i+1))
		}
	rows:
		for i := 0; i < old.rows; i++ {
			for j := range row {
				row[j] = old.cols[j][i]
			}
			h := rowHash(row)
			for pos, ref := gone.Find(h, -1); ref != 0; pos, ref = gone.Find(h, pos) {
				if a := int(ref-1) * arity; slices.Equal(goneCodes[a:a+arity], row) {
					continue rows
				}
			}
			b.appendRow(row)
		}
	}
	for _, t := range ins {
		if !b.appendTuple(t, row, dict) {
			break
		}
	}
	return b
}

// rowHash folds a code tuple the way every coded hash table does.
func rowHash(row []uint64) uint64 {
	h := value.CodeHashSeed
	for _, c := range row {
		h = value.HashCode(h, c)
	}
	return h
}

// appendTuple interns t, through the scratch row, into the block; on a value
// outside the code space it marks the block failed and reports false.
func (b *EncBlock) appendTuple(t Tuple, row []uint64, dict *Dict) bool {
	for j, v := range t {
		c, ok := dict.Encode(v)
		if !ok {
			b.ok = false
			return false
		}
		row[j] = c
	}
	b.appendRow(row)
	return true
}

// appendRow adds one code tuple to the block.
func (b *EncBlock) appendRow(row []uint64) {
	for j, c := range row {
		b.cols[j] = append(b.cols[j], c)
		if b.consts[j] && value.CodeIsNull(c) {
			b.consts[j] = false
		}
	}
	b.rows++
}

// newEncBlock returns an empty block whose vectors share one allocation
// sized for rows rows.
func newEncBlock(arity, rows int) *EncBlock {
	b := &EncBlock{cols: make([][]uint64, arity), consts: make([]bool, arity), ok: true}
	slab := make([]uint64, arity*rows)
	for j := range b.cols {
		b.cols[j] = slab[j*rows : j*rows : (j+1)*rows]
		b.consts[j] = true
	}
	return b
}

// seal computes the encoding-wide totals from the blocks.
func (e *Encoding) seal(arity int) {
	e.consts = make([]bool, arity)
	for j := range e.consts {
		e.consts[j] = true
	}
	e.rows, e.ok = 0, true
	for _, b := range e.blocks {
		e.rows += b.rows
		e.ok = e.ok && b.ok
		for j, c := range b.consts {
			e.consts[j] = e.consts[j] && c
		}
	}
}

// AdoptEncoding publishes a pre-built coded sidecar: cols holds one code
// vector per column, row i across the vectors encoding exactly one
// stored tuple, with every stored tuple covered once (any order).  The
// coded execution path produces these vectors as a byproduct of
// materializing a temporary, so adopting them saves the full
// re-interning pass a later Encoding call would spend on values the
// materialization just decoded.  The caller must own the relation
// exclusively and must not mutate cols afterwards; vectors that don't
// match the relation's shape are ignored.
func (r *Relation) AdoptEncoding(dict *Dict, cols [][]uint64) {
	if r == nil || dict == nil || len(cols) != r.Arity() {
		return
	}
	b := &EncBlock{cols: cols, consts: make([]bool, len(cols)), rows: r.Len(), ok: true}
	for j, col := range cols {
		if len(col) != b.rows {
			return
		}
		cst := true
		for _, code := range col {
			if value.CodeIsNull(code) {
				cst = false
				break
			}
		}
		b.consts[j] = cst
	}
	e := &Encoding{dict: dict, blocks: []*EncBlock{b}}
	e.seal(len(cols))
	r.encoding.Store(e)
}

// CodedIndex is an immutable hash index over raw u64 codes: rows are stored
// as arity-strided code tuples and grouped by the HashCode-fold of their
// codes at a fixed list of key positions — probes hash machine words and
// verify matches by u64 equality, with no binary key encoding and no
// allocation.  Like Index it is a set of immutable shards, here chosen by
// the high bits of the key hash.
//
// A shard is three flat arrays and no Go map.  heads, a CodeTable (12-byte
// slots, at most 3/4 full, the hash's low bits pick the home slot), holds
// one slot per distinct key hash: the 1-based number of the last row added
// under it.  next threads the rows of one hash into a chain, and is not even
// allocated while no two rows of the shard share a hash — a key column, the
// usual build side of a join — so a hit there is one slot and the row's
// codes.  codes holds the rows.  Distinct keys of several columns may share a
// hash and so a chain; callers verify candidates with MatchesKey unless
// HashIsKey says the hash is the key (see CodeTable).
type CodedIndex struct {
	positions []int
	arity     int
	segs      []*segment // the segments of the encoding indexed; nil over bare code vectors
	shards    []*CodedShard
	shift     uint // 64 − log2(len(shards)): the hash's high bits pick the shard
	n         int
	complete  bool // every indexed row is null-free
}

// CodedShard holds the chains of the key hashes that fall to it.
type CodedShard struct {
	positions []int
	arity     int
	heads     CodeTable // key hash → 1-based row at the head of the hash's chain
	next      []int32   // next[r] continues row r's chain (1-based, 0 ends it); nil while every chain is one row
	codes     []uint64  // row-major, arity-strided code tuples
	rows      int
	nulls     int // rows holding a null code
}

// Positions returns the key positions the index hashes on.
func (ix *CodedIndex) Positions() []int { return ix.positions }

// AllComplete reports whether every indexed row is null-free.
func (ix *CodedIndex) AllComplete() bool { return ix.complete }

// Len returns the number of indexed rows.
func (ix *CodedIndex) Len() int { return ix.n }

// HashIsKey reports whether a key hash identifies its key, so that every
// row of the chain Lookup returns matches the probe and MatchesKey can be
// skipped: true for keys of one column, over which value.HashCode is a
// bijection (and trivially for the empty key).
func (ix *CodedIndex) HashIsKey() bool { return len(ix.positions) <= 1 }

// Lookup returns the shard of the given key-code hash (as folded by
// value.HashCode over the key positions) and the head of the hash's chain
// in it, 0 if none.
func (ix *CodedIndex) Lookup(h uint64) (*CodedShard, int32) {
	sh := ix.shards[h>>ix.shift]
	return sh, sh.heads.Get(h)
}

// At returns the row stored at chain slot i (1-based, as returned by
// CodedIndex.Lookup) and the next slot of the chain (0 terminates).
func (sh *CodedShard) At(i int32) (row int32, next int32) {
	if sh.next == nil {
		return i - 1, 0
	}
	return i - 1, sh.next[i-1]
}

// Row returns the full code tuple of a row.  It must not be mutated.
func (sh *CodedShard) Row(row int32) []uint64 {
	a := int(row) * sh.arity
	return sh.codes[a : a+sh.arity]
}

// MatchesKey reports whether the row's codes at the key positions equal
// the probe key (key[k] corresponds to positions[k]).
func (sh *CodedShard) MatchesKey(row int32, key []uint64) bool {
	rc := sh.Row(row)
	for k, p := range sh.positions {
		if rc[p] != key[k] {
			return false
		}
	}
	return true
}

// HasKey reports whether any indexed row matches the probe key with the
// given hash — the coded counterpart of Relation.Contains for
// difference membership.  Over a single key column the slot of the hash is
// the whole answer.
func (ix *CodedIndex) HasKey(h uint64, key []uint64) bool {
	sh, e := ix.Lookup(h)
	return ix.InChain(sh, e, key)
}

// InChain is the second half of HasKey, for the chain a Lookup of the key's
// hash returned: whether a row of it matches the key.  A batched probe looks
// up every hash of a chunk before it verifies any, so that the lookups'
// cache misses overlap.
func (ix *CodedIndex) InChain(sh *CodedShard, e int32, key []uint64) bool {
	if ix.HashIsKey() {
		return e != 0
	}
	for e != 0 {
		row, next := sh.At(e)
		if sh.MatchesKey(row, key) {
			return true
		}
		e = next
	}
	return false
}

// Index returns a coded hash index of the encoding over the given key
// positions, building it on first use and caching it on the encoding
// (CAS-published like Relation.Index).  When the encoding took over the
// index of its predecessor, only the shards that the changed segments'
// rows hash to are rebuilt.  It returns nil on a failed encoding.  The
// positions slice is copied.
func (e *Encoding) Index(positions []int) *CodedIndex {
	if !e.Ok() {
		return nil
	}
	for {
		set := e.indexes.Load()
		cur, at := findSidecar(set, func(ix *CodedIndex) bool { return samePositions(ix.positions, positions) })
		if cur != nil && sameSegs(cur.segs, e.segs) {
			return cur
		}
		var ix *CodedIndex
		if cur != nil && patchable(cur.segs, e.segs) {
			var kept int
			ix, kept = cur.patched(e.segs, e.dict)
			e.stats.notePatched(kept)
			e.stats.noteIndexPatch()
		} else {
			ix = e.buildIndex(positions)
			e.stats.noteIndexBuild()
		}
		if e.indexes.CompareAndSwap(set, withSidecar(set, at, ix)) {
			return ix
		}
		// Lost a race with another builder; retry (and likely adopt theirs).
	}
}

func (e *Encoding) buildIndex(positions []int) *CodedIndex {
	shards := 1
	if e.segs != nil {
		shards = len(e.segs)
	}
	arity := len(e.consts)
	ix := newCodedIndex(positions, arity, e.segs, shards, e.rows)
	row := make([]uint64, arity)
	for _, b := range e.blocks {
		for i := 0; i < b.rows; i++ {
			for j := range row {
				row[j] = b.cols[j][i]
			}
			ix.add(row)
		}
	}
	ix.seal()
	return ix
}

// NewCodedIndexFromRows builds a coded hash index directly from row-major
// code tuples (rows of them, arity codes each, already distinct).  The coded
// join uses it to index a derived build side straight off its coded stream,
// without ever materializing the side as tuples.  The codes are copied.
func NewCodedIndexFromRows(positions []int, arity int, codes []uint64, rows int) *CodedIndex {
	ix := newCodedIndex(positions, arity, nil, 1, rows)
	for i := 0; i < rows; i++ {
		ix.add(codes[i*arity : (i+1)*arity])
	}
	ix.seal()
	return ix
}

// newCodedIndex returns a coded index of the given number of empty shards
// (a power of two), sized for rows rows in all; the caller adds the rows
// and seals it.
func newCodedIndex(positions []int, arity int, segs []*segment, shards, rows int) *CodedIndex {
	ix := &CodedIndex{
		positions: append([]int(nil), positions...),
		arity:     arity,
		segs:      segs,
		shards:    make([]*CodedShard, shards),
		shift:     uint(64 - bits.TrailingZeros(uint(shards))),
	}
	per := shardHint(rows, shards)
	for i := range ix.shards {
		ix.shards[i] = ix.newShard(per, per)
	}
	return ix
}

// newShard returns an empty shard sized for the given number of rows under
// that many distinct key hashes.
func (ix *CodedIndex) newShard(hashes, rows int) *CodedShard {
	return &CodedShard{
		positions: ix.positions,
		arity:     ix.arity,
		heads:     MakeCodeTable(hashes),
		codes:     make([]uint64, 0, rows*ix.arity),
	}
}

// keyHash folds the row's codes at the key positions.
func (ix *CodedIndex) keyHash(row []uint64) uint64 {
	h := value.CodeHashSeed
	for _, p := range ix.positions {
		h = value.HashCode(h, row[p])
	}
	return h
}

// add indexes one code tuple (copied).
func (ix *CodedIndex) add(row []uint64) {
	h := ix.keyHash(row)
	ix.shards[h>>ix.shift].add(h, row)
}

// add puts the row at the head of its hash's chain.  The chain array is made
// when a hash first repeats, with every earlier row ending its own chain.
func (sh *CodedShard) add(h uint64, row []uint64) {
	sh.codes = append(sh.codes, row...)
	pos, head := sh.heads.Find(h, -1)
	if head != 0 && sh.next == nil {
		hint := sh.rows + 1
		if sh.arity > 0 {
			hint = max(hint, cap(sh.codes)/sh.arity)
		}
		sh.next = make([]int32, sh.rows, hint)
	}
	if sh.next != nil {
		sh.next = append(sh.next, head)
	}
	sh.rows++
	sh.heads.Set(pos, h, int32(sh.rows))
	for _, c := range row {
		if value.CodeIsNull(c) {
			sh.nulls++
			break
		}
	}
}

// seal computes the index-wide totals once the shards are final.
func (ix *CodedIndex) seal() {
	ix.n, ix.complete = 0, true
	for _, sh := range ix.shards {
		ix.n += sh.rows
		if sh.nulls > 0 {
			ix.complete = false
		}
	}
}

// patched returns the index of the same positions over the segments cur,
// sharing every shard that no row of the difference between ix.segs and
// cur hashes to.  Every tuple of the difference is encodable: it was, or
// is, part of an encoding that is Ok.  The second result is the number of
// shards shared.
func (ix *CodedIndex) patched(cur []*segment, dict *Dict) (*CodedIndex, int) {
	ins, del := diffSegs(ix.segs, cur)
	out := &CodedIndex{positions: ix.positions, arity: ix.arity, segs: cur,
		shards: append([]*CodedShard(nil), ix.shards...), shift: ix.shift}
	type change struct{ ins, del [][]uint64 }
	changes := map[uint64]*change{} // by shard number
	route := func(t Tuple) (*change, []uint64) {
		row := make([]uint64, len(t))
		for j, v := range t {
			row[j], _ = dict.Encode(v)
		}
		i := ix.keyHash(row) >> ix.shift
		c := changes[i]
		if c == nil {
			c = &change{}
			changes[i] = c
		}
		return c, row
	}
	for _, t := range ins {
		c, row := route(t)
		c.ins = append(c.ins, row)
	}
	for _, t := range del {
		c, row := route(t)
		c.del = append(c.del, row)
	}
	for i, c := range changes {
		out.shards[i] = ix.rebuiltShard(ix.shards[i], c.ins, c.del)
	}
	out.seal()
	return out, len(out.shards) - len(changes)
}

// rebuiltShard returns the shard without the rows of del and with those
// of ins.
func (ix *CodedIndex) rebuiltShard(sh *CodedShard, ins, del [][]uint64) *CodedShard {
	out := ix.newShard(sh.heads.Len()+len(ins), sh.rows+len(ins))
	gone := make(map[uint64][][]uint64, len(del)) // by key hash
	for _, row := range del {
		h := ix.keyHash(row)
		gone[h] = append(gone[h], row)
	}
rows:
	for r := int32(0); int(r) < sh.rows; r++ {
		row := sh.Row(r)
		h := ix.keyHash(row)
		for _, d := range gone[h] {
			if slices.Equal(d, row) {
				continue rows
			}
		}
		out.add(h, row)
	}
	for _, row := range ins {
		out.add(ix.keyHash(row), row)
	}
	return out
}
