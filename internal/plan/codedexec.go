package plan

import (
	"errors"
	"slices"
	"strings"
	"sync"

	"incdata/internal/col"
	"incdata/internal/table"
	"incdata/internal/value"
)

// Coded (monomorphic) execution.  Operators that implement codedStreamer
// move data as col.Coded chunks — one []uint64 code vector per column —
// instead of tuples: scans emit zero-copy windows over the
// relation's cached table.Encoding, compiled predicates narrow selection
// vectors with branch-free u64 compares (codedpred.go), the hash-join
// probe hashes raw codes (no binary key encoding, no allocation) against
// a table.CodedIndex, and diff/intersect membership probes hash code
// tuples the same way.  Every hash step — the join's build side, the
// membership probe, the dedup set — sits on table.CodeTable, a flat table
// over code hashes; no Go map is touched between the scan and the result
// relation.  Codes decode back to value.Value exactly once, in the second
// phase of the gather (gather.finish), and only for distinct rows.
//
// The tier is the one vectorized executor, layered above the row-chunk
// path (chunk.go): codedEligible requires the colEligible shape plus an
// Ok() encoding for every base relation the subtree reads, and a subtree
// it refuses (a Δ, a value outside the code space, a database with no
// dictionary) runs on the row path.  A runtime surprise inside an eligible
// subtree (a build side outside the code space) falls back through
// bridgeCoded, which re-encodes the row stream on the fly.  The row path
// is the differential oracle — plan.EvalConfig.Coded selects the tier, and
// the fuzz tests pin both execution models bit-identical across planners.
//
// Chunk contract: the chunk and selection vector passed to emit are
// producer-owned scratch (or read-only views into a cached Encoding) and
// must not be retained past the emit callback.  Codes gathered out of a
// chunk are copies, so an adopted result tuple or Encoding never aliases
// chunk storage (pinned by TestCodedScratchLifetime).

// codedEmit consumes one coded chunk restricted to the selected rows
// (nil sel = all rows).
type codedEmit func(ch *col.Coded, sel []int32) bool

// codedStreamer is the coded counterpart of chunkStreamer, implemented by
// operators with a native coded form.
type codedStreamer interface {
	streamCoded(c *pctx, emit codedEmit) error
}

// errCodedOverflow reports a value outside the code space reaching the
// coded path.  codedEligible verifies every base relation encodes before
// dispatching, so this is defense in depth, not an expected state.
var errCodedOverflow = errors.New("plan: value outside the code space on the coded path")

// codedChunkPool recycles coded chunks (and their column capacity)
// across operators and evaluations, like chunkPool does for row chunks.
var codedChunkPool = sync.Pool{
	New: func() any { return &col.Coded{} },
}

func getCodedChunk(arity int) *col.Coded {
	ch := codedChunkPool.Get().(*col.Coded)
	ch.Reset(arity)
	return ch
}

func putCodedChunk(ch *col.Coded) { codedChunkPool.Put(ch) }

// decode maps a code back to its value through the context's lock-free
// dictionary snapshot, refreshing the snapshot only when the code was
// interned after it was taken (the dictionary is append-only, so a
// stale snapshot is merely short, never wrong).
func (c *pctx) decode(code uint64) value.Value {
	if v, ok := value.DecodeDirect(code); ok {
		return v
	}
	idx := value.DictIndex(code)
	if idx >= uint64(len(c.dictVals)) {
		c.dictVals = c.dict.Values()
	}
	return c.dictVals[idx]
}

// appendCodedRow encodes one tuple into the chunk; false means a value
// fell outside the code space.
func (c *pctx) appendCodedRow(ch *col.Coded, t table.Tuple) bool {
	for j, v := range t {
		code, ok := c.dict.Encode(v)
		if !ok {
			return false
		}
		ch.Append(j, code)
	}
	ch.EndRow()
	return true
}

// streamCoded drives n's output as coded chunks, using the operator's
// native coded implementation when it has one and the encoding bridge
// otherwise.
func streamCoded(n pnode, c *pctx, emit codedEmit) error {
	if cs, ok := n.(codedStreamer); ok {
		return cs.streamCoded(c, emit)
	}
	return bridgeCoded(n, c, emit)
}

// bridgeCoded adapts an operator's row-chunk stream into coded chunks by
// encoding each batch on the fly.  It is the fallback for operators
// without a coded form and for coded operators whose fast-path inputs
// (cached encodings) are unavailable.
func bridgeCoded(n pnode, c *pctx, emit codedEmit) error {
	arity := n.out().Arity()
	ch := getCodedChunk(arity)
	defer putCodedChunk(ch)
	var encErr error
	err := streamChunks(n, c, func(ts []table.Tuple) bool {
		ch.Reset(arity)
		for _, t := range ts {
			if !c.appendCodedRow(ch, t) {
				encErr = errCodedOverflow
				return false
			}
		}
		return emit(ch, nil)
	})
	if err != nil {
		return err
	}
	return encErr
}

// streamCoded on a scan emits zero-copy chunk-sized windows over the
// blocks of the relation's cached encoding — no copy, no re-encode.
func (n *pscan) streamCoded(c *pctx, emit codedEmit) error {
	arity := n.rs.Arity()
	rel := c.db.Relation(n.name)
	if rel == nil {
		return relationErr(n.name)
	}
	enc := rel.Encoding(c.dict)
	if !enc.Ok() {
		return bridgeCoded(n, c, emit)
	}
	if n.eq != nil && n.streamCodedIndex(c, rel, enc, emit) {
		return nil
	}
	// Window views share the encoding's storage; the per-column constant
	// flag is the whole column's (conservative for a window, never wrong).
	view := col.Coded{
		Cols:  make([][]uint64, arity),
		Const: make([]bool, arity),
	}
	for j := 0; j < arity; j++ {
		view.Const[j] = enc.ColConst(j)
	}
	for b := 0; b < enc.Blocks(); b++ {
		blk := enc.Block(b)
		rows := blk.Rows()
		for lo := 0; lo < rows; lo += chunkSize {
			hi := min(lo+chunkSize, rows)
			for j := 0; j < arity; j++ {
				view.Cols[j] = blk.Col(j)[lo:hi]
			}
			view.Rows = hi - lo
			if !emit(&view, nil) {
				return nil
			}
		}
	}
	return nil
}

// streamCoded on a filter narrows the selection vector with the coded
// predicate — no data moves and no value is ever looked at.
func (n *pfilter) streamCoded(c *pctx, emit codedEmit) error {
	if n.kpred == nil {
		return bridgeCoded(n, c, emit)
	}
	return streamCoded(n.in, c, func(ch *col.Coded, sel []int32) bool {
		out := n.kpred(c, ch, sel)
		ok := true
		if len(out) > 0 {
			ok = emit(ch, out)
		}
		c.putSel(out)
		return ok
	})
}

// streamCoded on a projection applies the fused coded pre-filter and
// re-points the view's code vectors.
func (n *pproject) streamCoded(c *pctx, emit codedEmit) error {
	if n.pred != nil && n.kpred == nil {
		return bridgeCoded(n, c, emit)
	}
	view := col.Coded{
		Cols:  make([][]uint64, len(n.idx)),
		Const: make([]bool, len(n.idx)),
	}
	return streamCoded(n.in, c, func(ch *col.Coded, sel []int32) bool {
		owned := false
		if n.kpred != nil {
			sel = n.kpred(c, ch, sel)
			owned = true
			if len(sel) == 0 {
				c.putSel(sel)
				return true
			}
		}
		for k, p := range n.idx {
			view.Cols[k] = ch.Cols[p]
			view.Const[k] = ch.Const[p]
		}
		view.Rows = ch.Rows
		ok := emit(&view, sel)
		if owned {
			c.putSel(sel)
		}
		return ok
	})
}

// streamCoded on a rename passes chunks through untouched.
func (n *pschema) streamCoded(c *pctx, emit codedEmit) error {
	return streamCoded(n.in, c, emit)
}

// streamCoded on a union streams both sides' chunks.
func (n *punion) streamCoded(c *pctx, emit codedEmit) error {
	stopped := false
	err := streamCoded(n.l, c, func(ch *col.Coded, sel []int32) bool {
		if !emit(ch, sel) {
			stopped = true
			return false
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	return streamCoded(n.r, c, emit)
}

// probeBatch is the scratch of one batched hash probe over up to chunkSize
// rows.  Every coded hash probe runs a batch in three passes: hash the key
// codes of every row, look every hash up, then walk the chains and emit in
// row order.  The lookups of the second pass do not depend on each other,
// so the CPU overlaps their cache misses instead of waiting on each in turn.
// An operator allocates its batch once per evaluation.
type probeBatch struct {
	n     int
	row   [chunkSize]int32 // the rows of the probe side, in order
	hash  [chunkSize]uint64
	head  [chunkSize]int32 // chain head (CodedIndex) or slot reference (codedSet); 0: none
	shard [chunkSize]*table.CodedShard
}

// hashRows loads the batch with the chunk's selected rows (nil sel: all)
// from position lo on, at most chunkSize of them, and hashes their codes at
// pos column by column.  It returns the position after the last row loaded;
// b.n is 0 once the selection is exhausted.
func (b *probeBatch) hashRows(ch *col.Coded, sel []int32, lo int, pos []int) int {
	var hi int
	if sel == nil {
		hi = min(lo+chunkSize, ch.Rows)
		for k := range hi - lo {
			b.row[k] = int32(lo + k)
		}
	} else {
		hi = min(lo+chunkSize, len(sel))
		copy(b.row[:], sel[lo:hi])
	}
	b.n = hi - lo
	rows, hash := b.row[:b.n], b.hash[:b.n]
	for k := range hash {
		hash[k] = value.CodeHashSeed
	}
	for _, p := range pos {
		codes := ch.Cols[p]
		for k, i := range rows {
			hash[k] = value.HashCode(hash[k], codes[i])
		}
	}
	return hi
}

// lookup loads the chain head of every hash of the batch.
func (b *probeBatch) lookup(ix *table.CodedIndex) {
	for k, h := range b.hash[:b.n] {
		b.shard[k], b.head[k] = ix.Lookup(h)
	}
}

// What a coded hash join did in its most recent evaluation (pjoin.side):
// the low two bits say which, and a word of joinAsked carries, above them,
// the table.SelectPath the base left relation's access-path rule returned.
const (
	joinBuildRight uint32 = 1 + iota // probed the right side's index: a base relation's, or one built from the derived side
	joinNotSmaller                   // the derived right side held at least as many rows as the base left relation
	joinAsked                        // the left relation's rule was asked for its index
)

// describeSide renders the side word for Describe; "" before any coded
// evaluation.
func (n *pjoin) describeSide() string {
	w := n.side.Load()
	switch w & 3 {
	case joinBuildRight:
		return " build right"
	case joinNotSmaller:
		return " build right: derived side not smaller"
	case joinAsked:
		path := table.SelectPath(w >> 2)
		if path.Kind() != table.SelectIndexed {
			return " build right: " + path.String()
		}
		attrs := make([]string, len(n.lpos))
		for k, p := range n.lpos {
			attrs[k] = n.l.out().Attrs[p]
		}
		return " probe left index(" + strings.Join(attrs, ", ") + ")"
	}
	return ""
}

// streamCoded on a hash join probes a coded index with the HashCode fold of
// raw key codes and appends matches column-wise — no binary key is built
// and no tuple is allocated per match.  The index is the right side's: the
// one cached on a base relation's sidecar, or one built from a derived
// side's rows.  But a derived right side with fewer rows than a plain base
// left scan instead probes the left relation's cached index with its own
// rows (leftIndex), so a small selection joined to a large relation costs
// its own size and not the relation's.
func (n *pjoin) streamCoded(c *pctx, emit codedEmit) error {
	if sc, ok := n.r.(*pscan); ok {
		rrel := c.db.Relation(sc.name)
		if rrel == nil {
			return relationErr(sc.name)
		}
		enc := rrel.Encoding(c.dict)
		if !enc.Ok() {
			return bridgeCoded(n, c, emit)
		}
		n.side.Store(joinBuildRight)
		return n.probeLeft(c, enc.Index(n.rpos), emit)
	}
	// Derived build side: stream it into a set — codes never decode into
	// tuples just to be hashed again, and the set supplies the set
	// semantics a materialization would have enforced.
	set := newCodedSet(n.r.out().Arity())
	if err := set.addStream(n.r, c, false, nil, nil); err != nil {
		set.release()
		return err
	}
	if ix := n.leftIndex(c, set.size()); ix != nil {
		defer set.release()
		return n.probeSet(ix, set, emit)
	}
	ix := table.NewCodedIndexFromRows(n.rpos, set.width, set.codes, set.size())
	set.release()
	return n.probeLeft(c, ix, emit)
}

// leftIndex returns the index on the join positions of a plain base left
// scan, when the derived right side (of rows rows) is the smaller and the
// relation's access-path rule (table.Relation.SelectCodedIndex) serves one:
// held or patchable, or due after enough asks, and selective.  nil means
// the join probes the right side's rows with the left side's.
func (n *pjoin) leftIndex(c *pctx, rows int) *table.CodedIndex {
	n.side.Store(joinBuildRight)
	sc, ok := n.l.(*pscan)
	if !ok || sc.eq != nil {
		return nil
	}
	lrel := c.db.Relation(sc.name)
	if lrel == nil {
		return nil // the left stream reports it
	}
	enc := lrel.Encoding(c.dict)
	if !enc.Ok() {
		return nil
	}
	if rows >= lrel.Len() {
		n.side.Store(joinNotSmaller)
		return nil
	}
	ix, path := lrel.SelectCodedIndex(enc, n.lpos)
	n.side.Store(joinAsked | uint32(path)<<2)
	return ix
}

// probeLeft probes ix, an index of the right side, with the left side's
// rows.
func (n *pjoin) probeLeft(c *pctx, ix *table.CodedIndex, emit codedEmit) error {
	o := n.newJoinOut(ix, emit)
	defer putCodedChunk(o.out)
	b := new(probeBatch)
	lrow := make([]uint64, n.l.out().Arity())
	stopped := false
	err := streamCoded(n.l, c, func(ch *col.Coded, sel []int32) bool {
		o.fast = ix.AllComplete() && ch.AllConst()
		for lo := b.hashRows(ch, sel, 0, n.lpos); b.n > 0; lo = b.hashRows(ch, sel, lo, n.lpos) {
			b.lookup(ix)
			for k := range b.n {
				if b.head[k] == 0 {
					continue
				}
				for j := range lrow {
					lrow[j] = ch.Cols[j][b.row[k]]
				}
				if !o.walk(b.shard[k], b.head[k], lrow, n.lpos, false) {
					stopped = true
					return false
				}
			}
		}
		return true
	})
	if err == nil && !stopped && o.out.Rows > 0 {
		emit(o.out, nil)
	}
	return err
}

// probeSet probes ix, the base left relation's index, with the rows of the
// derived right side's set.
func (n *pjoin) probeSet(ix *table.CodedIndex, set *codedSet, emit codedEmit) error {
	o := n.newJoinOut(ix, emit)
	defer putCodedChunk(o.out)
	b := new(probeBatch)
	for lo := 0; lo < set.size(); lo += chunkSize {
		b.n = min(chunkSize, set.size()-lo)
		for k := range b.n {
			h := value.CodeHashSeed
			for _, p := range n.rpos {
				h = value.HashCode(h, set.row(lo + k)[p])
			}
			b.hash[k] = h
		}
		b.lookup(ix)
		for k := range b.n {
			if b.head[k] != 0 && !o.walk(b.shard[k], b.head[k], set.row(lo+k), n.rpos, true) {
				return nil
			}
		}
	}
	if o.out.Rows > 0 {
		emit(o.out, nil)
	}
	return nil
}

// joinOut is the one emit loop of both orientations of the coded join: it
// pairs a probe row with the matching rows of an index's chain and appends
// the joined rows, the left row's codes and then the right row's extraIdx
// codes, to a pooled chunk it emits when full.
type joinOut struct {
	n      *pjoin
	out    *col.Coded
	emit   codedEmit
	verify bool     // chains may hold other keys: check each row (see CodedIndex.HashIsKey)
	key    []uint64 // the probe row's key codes, for the check
	fast   bool     // every code appended is constant: skip the null bookkeeping
}

func (n *pjoin) newJoinOut(ix *table.CodedIndex, emit codedEmit) *joinOut {
	// key must survive emit calls mid-probe (a downstream operator may use
	// its own scratch), so it is local to this evaluation.
	return &joinOut{n: n, out: getCodedChunk(n.rs.Arity()), emit: emit,
		verify: !ix.HashIsKey(), key: make([]uint64, len(n.lpos))}
}

// walk joins the probe row, keyed at ppos, with every row of the chain that
// starts at head in sh.  flipped says the probe row is the right side's.
// false means emit asked to stop.
func (o *joinOut) walk(sh *table.CodedShard, head int32, probe []uint64, ppos []int, flipped bool) bool {
	if o.verify {
		for k, p := range ppos {
			o.key[k] = probe[p]
		}
	}
	out := o.out
	for e := head; e != 0; {
		var row int32
		row, e = sh.At(e)
		if o.verify && !sh.MatchesKey(row, o.key) {
			continue
		}
		l, r := probe, sh.Row(row)
		if flipped {
			l, r = r, l
		}
		for j, code := range l {
			out.Cols[j] = append(out.Cols[j], code)
		}
		for k, ri := range o.n.extraIdx {
			out.Cols[len(l)+k] = append(out.Cols[len(l)+k], r[ri])
		}
		if !o.fast {
			for j, codes := range out.Cols {
				if out.Const[j] && value.CodeIsNull(codes[out.Rows]) {
					out.Const[j] = false
				}
			}
		}
		if out.Rows++; out.Rows == chunkSize {
			ok := o.emit(out, nil)
			out.Reset(len(out.Cols))
			if !ok {
				return false
			}
		}
	}
	return true
}

// codedSet is an insert-only set of fixed-width code tuples — the coded
// counterpart of the map[string]struct{} key sets of the row path: the
// tuples row-major in codes, and a table.CodeTable from a tuple's hash to
// its 1-based row.  Distinct tuples of one hash take a slot each; a tuple of
// width one is identified by its hash (see table.CodeTable), so its slot is
// never checked against codes.
//
// A set lives for one evaluation, and its two arrays are recycled across
// evaluations: the slots come from table.PooledCodeTable and the codes from
// codesPool, both by power-of-two length.  The set starts at the smallest
// length — most sets hold the answer of a point query or a few thousand
// rows — and doubles by trading each array for one of the next length, so a
// warm query of any size finds its arrays in the pools instead of allocating
// its way up.  Its owner calls release once nothing reads the set any more.
type codedSet struct {
	width int
	slots table.CodeTable
	codes []uint64  // row-major, width-strided; rows past size() hold garbage
	box   *[]uint64 // codes' box in codesPool; nil until the first row
}

// codesPool recycles the code arrays of codedSets (see codedSet).
var codesPool table.ClassPool[uint64]

// minSetCodes is the length of a set's first code array.
const minSetCodes = 16

func newCodedSet(width int) *codedSet {
	return &codedSet{width: width, slots: table.PooledCodeTable(0)}
}

// release hands the set's arrays back to their pools; the set, and anything
// that probes it, must not be used again.
func (s *codedSet) release() {
	s.slots.Release()
	if s.box != nil {
		codesPool.Put(s.box)
	}
	s.codes, s.box = nil, nil
}

// row returns the code tuple of a row (0-based).
func (s *codedSet) row(r int) []uint64 { return s.codes[r*s.width : (r+1)*s.width] }

// find returns the position of the slot that holds the key (hashed to h),
// or of the empty slot it belongs in, and whether it is there.
func (s *codedSet) find(h uint64, key []uint64) (pos int, found bool) {
	pos, ref := s.slots.Find(h, -1)
	for ref != 0 {
		if s.width <= 1 || slices.Equal(s.row(int(ref-1)), key) {
			return pos, true
		}
		pos, ref = s.slots.Find(h, pos)
	}
	return pos, false
}

// contains reports whether the set holds the key (hashed to h).
func (s *codedSet) contains(h uint64, key []uint64) bool {
	_, found := s.find(h, key)
	return found
}

// lookup loads the slot reference of every hash of the batch: 0 where the
// set holds no key of that hash.
func (s *codedSet) lookup(b *probeBatch) {
	for k, h := range b.hash[:b.n] {
		b.head[k] = s.slots.Get(h)
	}
}

// insert adds the key if absent; it reports whether the key was new.
func (s *codedSet) insert(h uint64, key []uint64) bool {
	pos, found := s.find(h, key)
	if found {
		return false
	}
	n := s.size()
	if end := (n + 1) * s.width; end > len(s.codes) {
		box := codesPool.Get(max(end, 2*len(s.codes), minSetCodes))
		copy(*box, s.codes[:n*s.width])
		if s.box != nil {
			codesPool.Put(s.box)
		}
		s.codes, s.box = *box, box
	}
	copy(s.codes[n*s.width:], key)
	s.slots.Set(pos, h, int32(n+1))
	return true
}

// size returns the number of keys held: each has its slot.
func (s *codedSet) size() int { return s.slots.Len() }

// addStream inserts the rows n streams: those pred selects (nil: all), the
// null-free ones only under certainOnly (by the tag-test CompleteSel), cut
// down to the columns of proj (nil: all).  Duplicates are dropped on the full
// code tuple, hash and u64 compare, and no value is decoded.
func (s *codedSet) addStream(n pnode, c *pctx, certainOnly bool, pred kpred, proj []int) error {
	row := make([]uint64, s.width)
	return streamCoded(n, c, func(ch *col.Coded, sel []int32) bool {
		if pred != nil {
			sel = pred(c, ch, sel)
			defer c.putSel(sel)
		}
		if certainOnly {
			dst := c.getSel()
			narrowed, used := ch.CompleteSel(sel, dst)
			if used {
				sel = narrowed
				defer c.putSel(narrowed)
			} else {
				c.putSel(dst)
			}
		}
		add := func(i int32) {
			h := value.CodeHashSeed
			if proj == nil {
				for j := range row {
					code := ch.Cols[j][i]
					row[j] = code
					h = value.HashCode(h, code)
				}
			} else {
				for k, p := range proj {
					code := ch.Cols[p][i]
					row[k] = code
					h = value.HashCode(h, code)
				}
			}
			s.insert(h, row)
		}
		if sel == nil {
			for i := int32(0); int(i) < ch.Rows; i++ {
				add(i)
			}
		} else {
			for _, i := range sel {
				add(i)
			}
		}
		return true
	})
}

// codedRight returns the coded right side of a diff/intersect: a base
// relation's index on the compared columns, or else the set of a derived
// side's (projected) rows, which the caller releases once it stops probing.
// Neither, with no error, means the right side has no coded form — the
// caller bridges.
func (n *pdiff) codedRight(c *pctx) (*table.CodedIndex, *codedSet, error) {
	if sc, ok := n.r.(*pscan); ok && n.rpred == nil {
		rrel := c.db.Relation(sc.name)
		if rrel == nil {
			return nil, nil, relationErr(sc.name)
		}
		enc := rrel.Encoding(c.dict)
		if !enc.Ok() {
			return nil, nil, nil
		}
		pos := n.rproj
		if pos == nil {
			pos = allPositions(rrel.Arity())
		}
		return enc.Index(pos), nil, nil
	}
	// Derived right side (or a base scan with a fused filter): stream it
	// coded once — the right side is a pipeline breaker either way — with
	// the fused filter narrowing the selection, into the set of the
	// (projected) keys' code tuples.
	if n.rpred != nil && n.rkpred == nil {
		return nil, nil, nil
	}
	width := n.r.out().Arity()
	if n.rproj != nil {
		width = len(n.rproj)
	}
	set := newCodedSet(width)
	if err := set.addStream(n.r, c, false, n.rkpred, n.rproj); err != nil {
		set.release()
		if errors.Is(err, errCodedOverflow) {
			return nil, nil, nil // a value outside the code space: the caller bridges
		}
		return nil, nil, err
	}
	return nil, set, nil
}

// streamCoded on a diff/intersect narrows the selection with the fused
// coded pre-filter and probes the right side with each surviving row's key
// codes in batches (probeBatch) — no binary key is ever built.
func (n *pdiff) streamCoded(c *pctx, emit codedEmit) error {
	if n.lpred != nil && n.lkpred == nil {
		return bridgeCoded(n, c, emit)
	}
	ix, set, err := n.codedRight(c)
	if err != nil {
		return err
	}
	if ix == nil && set == nil {
		return bridgeCoded(n, c, emit)
	}
	if set != nil {
		defer set.release()
	}
	var view col.Coded
	pos := n.lproj
	if pos == nil {
		pos = allPositions(n.l.out().Arity())
	} else {
		view.Cols = make([][]uint64, len(pos))
		view.Const = make([]bool, len(pos))
	}
	key := make([]uint64, len(pos))
	b := new(probeBatch)
	return streamCoded(n.l, c, func(ch *col.Coded, sel []int32) bool {
		owned := false
		if n.lkpred != nil {
			sel = n.lkpred(c, ch, sel)
			owned = true
		}
		out := c.getSel()[:0]
		for lo := b.hashRows(ch, sel, 0, pos); b.n > 0; lo = b.hashRows(ch, sel, lo, pos) {
			if ix != nil {
				b.lookup(ix)
			} else {
				set.lookup(b)
			}
			for k := range b.n {
				// A key of one column is its hash: the slot is the answer.
				found := b.head[k] != 0
				if found && len(pos) > 1 {
					for j, p := range pos {
						key[j] = ch.Cols[p][b.row[k]]
					}
					if ix != nil {
						found = ix.InChain(b.shard[k], b.head[k], key)
					} else {
						found = set.contains(b.hash[k], key)
					}
				}
				if found != n.negate {
					out = append(out, b.row[k])
				}
			}
		}
		if owned {
			c.putSel(sel)
		}
		ok := true
		if len(out) > 0 {
			if n.lproj == nil {
				ok = emit(ch, out)
			} else {
				for k, p := range n.lproj {
					view.Cols[k] = ch.Cols[p]
					view.Const[k] = ch.Const[p]
				}
				view.Rows = ch.Rows
				ok = emit(&view, out)
			}
		}
		c.putSel(out)
		return ok
	})
}

// colEligible reports whether the shape of this subtree pays off on
// column chunks: some operator on the stream builds fresh output tuples
// per row (π, ⋈, or a diff with a fused projection), which the coded
// gather defers to a single final materialization.  Plans that only adopt
// existing tuples (bare scans, filters, whole-tuple diffs) stay on the
// row path, where adoption is free.
func colEligible(n pnode) bool {
	switch x := n.(type) {
	case *pjoin, *pproject:
		return true
	case *pdiff:
		return x.lproj != nil || colEligible(x.l)
	case *pfilter:
		return colEligible(x.in)
	case *pschema:
		return colEligible(x.in)
	case *punion:
		return colEligible(x.l) || colEligible(x.r)
	default:
		return false
	}
}

// codedEligible reports whether the coded tier should evaluate this
// subtree: the shape must pay off (colEligible), and every base relation
// the subtree reads must have an Ok() encoding — otherwise bridged chunks
// could meet a value outside the code space mid-stream.  Checking eagerly
// also builds (and caches) the encodings the scans will serve windows
// from.  A refused subtree runs on the row path.
func codedEligible(n pnode, c *pctx) bool {
	if !c.coded || c.dict == nil {
		return false
	}
	if !colEligible(n) {
		return false
	}
	return scansEncodable(n, c)
}

// scansEncodable walks every operator of the subtree — including bridged
// ones, whose rows get re-encoded on the fly — and verifies each base
// relation read encodes cleanly.  Δ reads the whole database's active
// domain, which the walk cannot bound, so it disqualifies the subtree.
func scansEncodable(n pnode, c *pctx) bool {
	switch x := n.(type) {
	case *pscan:
		rel := c.db.Relation(x.name)
		if rel == nil {
			return true // the stream will surface the unknown-relation error
		}
		return rel.Encoding(c.dict).Ok()
	case *pempty:
		return true
	case *pdelta:
		return false
	case *pfilter:
		return scansEncodable(x.in, c)
	case *pproject:
		return scansEncodable(x.in, c)
	case *pschema:
		return scansEncodable(x.in, c)
	case *punion:
		return scansEncodable(x.l, c) && scansEncodable(x.r, c)
	case *pjoin:
		return scansEncodable(x.l, c) && scansEncodable(x.r, c)
	case *pproduct:
		return scansEncodable(x.l, c) && scansEncodable(x.r, c)
	case *pdiff:
		return scansEncodable(x.l, c) && scansEncodable(x.r, c)
	case *pdivision:
		return scansEncodable(x.l, c) && scansEncodable(x.r, c)
	default:
		return true
	}
}

// gatherSlabRows bounds the slabs the gather carves tuples from: one
// allocation of values serves up to this many result rows, so a result tuple
// that outlives the rest of its relation pins at most one slab.
const gatherSlabRows = 512

// gather materializes operator output into one relation in two phases.
// Phase one (add, any number of times: union branches)
// streams coded branches into a set of code tuples and nothing else — the
// set is the authority on duplicates, since one value has one code in a
// dictionary (TestDictEncodeInjective) — while branches with no coded form
// insert into out directly, the way they always did.  Phase two (finish)
// builds the relation from the set once, at its final size: one row slice
// made for all rows, no hash or lookup per row, tuples cut from slabs; the
// relation's table waits for its first probe.  Values are decoded only
// there, once per distinct row.
type gather struct {
	c     *pctx
	out   *table.Relation
	adopt bool      // publish the set's codes as out's Encoding (see AdoptEncoding)
	set   *codedSet // nil until a coded branch streams
}

// add streams n into the gather, optionally keeping only null-free tuples
// (the fused null-stripping of certain-answer extraction).  Union branches
// split at the root so each branch picks its own execution model: under a
// coded context, branches whose base relations all encode (codedEligible)
// run on the monomorphic coded path, and everything else on the row-chunk
// path.
func (g *gather) add(n pnode, certainOnly bool) error {
	c := g.c
	if c.coded {
		if u, ok := n.(*punion); ok {
			if err := g.add(u.l, certainOnly); err != nil {
				return err
			}
			return g.add(u.r, certainOnly)
		}
	}
	if c.coded && codedEligible(n, c) {
		if g.set == nil {
			g.set = newCodedSet(n.out().Arity())
		}
		return g.set.addStream(n, c, certainOnly, nil, nil)
	}
	out := g.out
	if !certainOnly {
		return streamChunks(n, c, func(ts []table.Tuple) bool {
			out.MustAddBatch(ts)
			return true
		})
	}
	chp := getChunk()
	defer putChunk(chp)
	return streamChunks(n, c, func(ts []table.Tuple) bool {
		keep := (*chp)[:0]
		for _, t := range ts {
			if t.IsComplete() {
				keep = append(keep, t)
			}
		}
		*chp = keep
		out.MustAddBatch(keep)
		return true
	})
}

// finish moves the set's rows into out.  When out is empty every tuple comes
// from the set, which holds each once: the relation is reserved at its final
// size, and each decoded row is appended with no hash and no look at the
// others.  When out already holds tuples the set never saw — a union branch
// that did not run coded, an earlier materialization into the same relation
// — each row is probed first, and only new rows keep their place in the
// slab.  The set is released at the end.
func (g *gather) finish() {
	s := g.set
	if s == nil {
		return
	}
	g.set = nil
	defer s.release()
	if s.size() == 0 {
		return
	}
	c, n, arity := g.c, s.size(), s.width
	ins := g.out.BeginInsert()
	fresh := g.out.Len() == 0
	if fresh {
		ins.Reserve(n)
	}
	for lo := 0; lo < n; lo += gatherSlabRows {
		hi := min(lo+gatherSlabRows, n)
		slab := make([]value.Value, (hi-lo)*arity)
		k := 0 // rows kept so far: the next tuple's place in the slab
		for r := lo; r < hi; r++ {
			t := table.Tuple(slab[k*arity : (k+1)*arity : (k+1)*arity])
			for j, code := range s.row(r) {
				t[j] = c.decode(code)
			}
			if fresh {
				ins.AddNew(t)
			} else if !ins.Add(t) {
				continue
			}
			k++
		}
	}
	if g.adopt && fresh {
		// A temporary that downstream operators consume coded takes the
		// set's codes as its sidecar, so that asking for its Encoding skips
		// the re-interning pass over values just decoded here.
		cols := make([][]uint64, arity)
		vec := make([]uint64, arity*n)
		for j := range cols {
			cols[j] = vec[j*n : (j+1)*n : (j+1)*n]
		}
		for r := 0; r < n; r++ {
			for j, code := range s.row(r) {
				cols[j][r] = code
			}
		}
		g.out.AdoptEncoding(c.dict, cols)
	}
}
