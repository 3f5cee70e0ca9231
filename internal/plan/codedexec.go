package plan

import (
	"errors"
	"sync"

	"incdata/internal/col"
	"incdata/internal/table"
	"incdata/internal/value"
)

// Coded (monomorphic) execution.  Operators that implement codedStreamer
// move data as col.Coded chunks — one []uint64 code vector per column —
// instead of []value.Value columns: scans emit zero-copy windows over the
// relation's cached table.Encoding, compiled predicates narrow selection
// vectors with branch-free u64 compares (codedpred.go), the hash-join
// probe hashes raw codes (no binary key encoding, no allocation) against
// a table.CodedIndex, and diff/intersect membership probes hash code
// tuples the same way.  Codes decode back to value.Value exactly once, at
// the gather in materializeIntoCoded, and only for rows that survive
// dedup.
//
// The tier is strictly layered above the columnar path: codedEligible
// requires the colEligible shape plus an Ok() encoding for every base
// relation the subtree reads, and any runtime surprise (a partition
// bucket or build side outside the code space) falls back through
// bridgeCoded, which re-encodes the row stream on the fly.  The columnar
// path (colexec.go) is kept fully intact as the differential oracle —
// plan.EvalConfig.Coded selects the tier, and the fuzz tests pin all
// three execution models bit-identical across planners and worker
// counts.
//
// Chunk contract: identical to the columnar path — the chunk and
// selection vector passed to emit are producer-owned scratch (or
// read-only views into a cached Encoding) and must not be retained past
// the emit callback.

// codedEmit consumes one coded chunk restricted to the selected rows
// (nil sel = all rows).
type codedEmit func(ch *col.Coded, sel []int32) bool

// codedStreamer is the coded counterpart of colStreamer, implemented by
// operators with a native coded form.
type codedStreamer interface {
	streamCoded(c *pctx, emit codedEmit) error
}

// codedContains is a coded right-side membership probe for diff and
// intersect: key holds the probe's codes, h their HashCode fold.
type codedContains func(h uint64, key []uint64) bool

// errCodedOverflow reports a value outside the code space reaching the
// coded path.  codedEligible verifies every base relation encodes before
// dispatching, so this is defense in depth, not an expected state.
var errCodedOverflow = errors.New("plan: value outside the code space on the coded path")

// codedChunkPool recycles coded chunks (and their column capacity)
// across operators and evaluations, like colChunkPool.
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
// (cached encodings, coded partition buckets) are unavailable.
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
// blocks of the relation's cached encoding — no copy, no re-encode.  Under
// a morsel assignment the worker's tuple slice is encoded on the fly
// instead (the morsel is an arbitrary sub-slice of a partitioning, which
// has no cached code vectors).
func (n *pscan) streamCoded(c *pctx, emit codedEmit) error {
	arity := n.rs.Arity()
	if c.morselFor == n {
		ch := getCodedChunk(arity)
		defer putCodedChunk(ch)
		for _, t := range c.morsel {
			if !c.appendCodedRow(ch, t) {
				return errCodedOverflow
			}
			if ch.Rows == chunkSize {
				if !emit(ch, nil) {
					return nil
				}
				ch.Reset(arity)
			}
		}
		if ch.Rows > 0 {
			emit(ch, nil)
		}
		return nil
	}
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

// codedIndex returns the coded build index this join probes: on the
// partitioned parallel path the worker's per-partition coded index,
// otherwise a coded index over the build side's cached encoding.  nil
// (with no error) means the build side has no coded form — the caller
// falls back to the columnar/binary probe via bridgeCoded.
func (n *pjoin) codedIndex(c *pctx) (*table.CodedIndex, error) {
	if c.partIdxFor == n {
		return c.partCoded, nil
	}
	// A base-scan build side (including folded renames) and the parallel
	// prepare phase's shared materialization both serve the index cached
	// on the relation's sidecar.
	rrel := (*table.Relation)(nil)
	if sc, ok := n.r.(*pscan); ok {
		if rrel = c.db.Relation(sc.name); rrel == nil {
			return nil, relationErr(sc.name)
		}
	} else if c.shared != nil {
		rrel = c.shared.mats[n.r]
	}
	if rrel != nil {
		enc := rrel.Encoding(c.dict)
		if !enc.Ok() {
			return nil, nil
		}
		return enc.Index(n.rpos), nil
	}
	// Derived build side with no shared copy: index it straight off its
	// coded stream — codes never decode into tuples just to be hashed
	// again.  The dedup set supplies the set semantics a materialization
	// would have enforced.
	arity := n.r.out().Arity()
	seen := newCodedSet(arity, 16)
	cols := make([][]uint64, arity)
	row := make([]uint64, arity)
	rows := 0
	err := streamCoded(n.r, c, func(ch *col.Coded, sel []int32) bool {
		gather := func(i int32) {
			h := value.CodeHashSeed
			for j := 0; j < arity; j++ {
				code := ch.Cols[j][i]
				row[j] = code
				h = value.HashCode(h, code)
			}
			if !seen.insert(h, row) {
				return
			}
			for j, code := range row {
				cols[j] = append(cols[j], code)
			}
			rows++
		}
		if sel == nil {
			for i := int32(0); int(i) < ch.Rows; i++ {
				gather(i)
			}
		} else {
			for _, i := range sel {
				gather(i)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return table.NewCodedIndexFromCols(n.rpos, cols, rows), nil
}

// streamCoded on a hash join probes the coded build index with the
// HashCode fold of the probe columns' raw codes and appends matches
// column-wise — no binary key is built and no tuple is allocated per
// match.  Hash buckets may mix distinct keys, so every candidate is
// verified by u64 equality (MatchesKey).  The all-constant fast path
// mirrors the columnar one: null-free build side plus all-constant probe
// chunk skip the sidecar bookkeeping entirely.
func (n *pjoin) streamCoded(c *pctx, emit codedEmit) error {
	ix, err := n.codedIndex(c)
	if err != nil {
		return err
	}
	if ix == nil {
		return bridgeCoded(n, c, emit)
	}
	outArity := n.rs.Arity()
	out := getCodedChunk(outArity)
	defer putCodedChunk(out)
	// key must survive emit calls mid-probe (a downstream operator may
	// use its own scratch), so it is local to this evaluation.
	key := make([]uint64, len(n.lpos))
	stopped := false
	err = streamCoded(n.l, c, func(ch *col.Coded, sel []int32) bool {
		lar := len(ch.Cols)
		fast := ix.AllComplete() && ch.AllConst()
		probe := func(i int32) bool {
			h := value.CodeHashSeed
			for k, p := range n.lpos {
				code := ch.Cols[p][i]
				key[k] = code
				h = value.HashCode(h, code)
			}
			for sh, e := ix.Lookup(h); e != 0; {
				var row int32
				row, e = sh.At(e)
				if !sh.MatchesKey(row, key) {
					continue
				}
				rc := sh.Row(row)
				if fast {
					for j := 0; j < lar; j++ {
						out.Cols[j] = append(out.Cols[j], ch.Cols[j][i])
					}
					for k, ri := range n.extraIdx {
						out.Cols[lar+k] = append(out.Cols[lar+k], rc[ri])
					}
				} else {
					for j := 0; j < lar; j++ {
						code := ch.Cols[j][i]
						out.Cols[j] = append(out.Cols[j], code)
						if out.Const[j] && value.CodeIsNull(code) {
							out.Const[j] = false
						}
					}
					for k, ri := range n.extraIdx {
						code := rc[ri]
						out.Cols[lar+k] = append(out.Cols[lar+k], code)
						if out.Const[lar+k] && value.CodeIsNull(code) {
							out.Const[lar+k] = false
						}
					}
				}
				out.Rows++
				if out.Rows == chunkSize {
					if !emit(out, nil) {
						return false
					}
					out.Reset(outArity)
				}
			}
			return true
		}
		if sel == nil {
			for i := int32(0); int(i) < ch.Rows; i++ {
				if !probe(i) {
					stopped = true
					return false
				}
			}
			return true
		}
		for _, i := range sel {
			if !probe(i) {
				stopped = true
				return false
			}
		}
		return true
	})
	if err != nil || stopped {
		return err
	}
	if out.Rows > 0 {
		emit(out, nil)
	}
	return nil
}

// codedSet is an insert-only hash set of fixed-width code tuples, in the
// same chained-slice layout as CodedIndex — the coded counterpart of the
// map[string]struct{} key sets of the row path.
type codedSet struct {
	width int
	heads map[uint64]int32 // code hash → 1-based head into next
	next  []int32
	codes []uint64 // row-major, width-strided
}

func newCodedSet(width, sizeHint int) *codedSet {
	return &codedSet{
		width: width,
		heads: make(map[uint64]int32, sizeHint),
		next:  make([]int32, 0, sizeHint),
	}
}

// contains reports whether the set holds the key (hashed to h).
func (s *codedSet) contains(h uint64, key []uint64) bool {
	for e := s.heads[h]; e != 0; e = s.next[e-1] {
		a := int(e-1) * s.width
		match := true
		for k, kc := range key {
			if s.codes[a+k] != kc {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// insert adds the key if absent; it reports whether the key was new.
func (s *codedSet) insert(h uint64, key []uint64) bool {
	if s.contains(h, key) {
		return false
	}
	s.codes = append(s.codes, key...)
	s.next = append(s.next, s.heads[h])
	s.heads[h] = int32(len(s.next))
	return true
}

// size returns the number of keys held.
func (s *codedSet) size() int { return len(s.next) }

// codedContainsFn builds (or fetches the prepare phase's shared copy of)
// the coded right-side membership probe of a diff/intersect.  nil with
// no error means the right side has no coded form — the caller bridges.
// The returned function only reads immutable state and is safe for
// concurrent probes.
func (n *pdiff) codedContainsFn(c *pctx) (codedContains, error) {
	if c.shared != nil {
		if f, ok := c.shared.codedContains[n]; ok {
			return f, nil
		}
	}
	if sc, ok := n.r.(*pscan); ok && n.rpred == nil {
		rrel := c.db.Relation(sc.name)
		if rrel == nil {
			return nil, relationErr(sc.name)
		}
		enc := rrel.Encoding(c.dict)
		if !enc.Ok() {
			return nil, nil
		}
		pos := n.rproj
		if pos == nil {
			pos = allPositions(rrel.Arity())
		}
		ix := enc.Index(pos)
		return ix.HasKey, nil
	}
	// Derived right side (or a base scan with a fused filter): stream it
	// coded once — the right side is a pipeline breaker either way — with
	// the fused filter narrowing the selection, and collect the code tuples
	// of the (projected) keys.  The set is sized from the survivors.
	if n.rpred != nil && n.rkpred == nil {
		return nil, nil
	}
	width := n.r.out().Arity()
	if n.rproj != nil {
		width = len(n.rproj)
	}
	var keys []uint64 // the survivors' key codes, row-major
	rows := 0
	err := streamCoded(n.r, c, func(ch *col.Coded, sel []int32) bool {
		owned := false
		if n.rkpred != nil {
			sel = n.rkpred(c, ch, sel)
			owned = true
		}
		collect := func(i int32) {
			if n.rproj == nil {
				for j := 0; j < width; j++ {
					keys = append(keys, ch.Cols[j][i])
				}
			} else {
				for _, p := range n.rproj {
					keys = append(keys, ch.Cols[p][i])
				}
			}
			rows++
		}
		if sel == nil {
			for i := int32(0); int(i) < ch.Rows; i++ {
				collect(i)
			}
		} else {
			for _, i := range sel {
				collect(i)
			}
		}
		if owned {
			c.putSel(sel)
		}
		return true
	})
	if errors.Is(err, errCodedOverflow) {
		return nil, nil // a value outside the code space: the caller bridges
	}
	if err != nil {
		return nil, err
	}
	set := newCodedSet(width, rows)
	for r := 0; r < rows; r++ {
		key := keys[r*width : (r+1)*width]
		h := value.CodeHashSeed
		for _, code := range key {
			h = value.HashCode(h, code)
		}
		set.insert(h, key)
	}
	return set.contains, nil
}

// streamCoded on a diff/intersect narrows the selection with the fused
// coded pre-filter, folds each surviving row's key codes into a hash,
// and probes the coded membership set — no binary key is ever built.
func (n *pdiff) streamCoded(c *pctx, emit codedEmit) error {
	if n.lpred != nil && n.lkpred == nil {
		return bridgeCoded(n, c, emit)
	}
	contains, err := n.codedContainsFn(c)
	if err != nil {
		return err
	}
	if contains == nil {
		return bridgeCoded(n, c, emit)
	}
	var view col.Coded
	if n.lproj != nil {
		view.Cols = make([][]uint64, len(n.lproj))
		view.Const = make([]bool, len(n.lproj))
	}
	width := n.l.out().Arity()
	if n.lproj != nil {
		width = len(n.lproj)
	}
	key := make([]uint64, width)
	return streamCoded(n.l, c, func(ch *col.Coded, sel []int32) bool {
		owned := false
		if n.lkpred != nil {
			sel = n.lkpred(c, ch, sel)
			owned = true
		}
		out := c.getSel()[:0]
		keep := func(i int32) {
			h := value.CodeHashSeed
			if n.lproj == nil {
				for j := 0; j < width; j++ {
					code := ch.Cols[j][i]
					key[j] = code
					h = value.HashCode(h, code)
				}
			} else {
				for k, p := range n.lproj {
					code := ch.Cols[p][i]
					key[k] = code
					h = value.HashCode(h, code)
				}
			}
			if contains(h, key) != n.negate {
				out = append(out, i)
			}
		}
		if sel == nil {
			for i := int32(0); int(i) < ch.Rows; i++ {
				keep(i)
			}
		} else {
			for _, i := range sel {
				keep(i)
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

// codedEligible reports whether the coded tier should evaluate this
// subtree: the shape must pay off like the columnar path's
// (colEligible), and every base relation the subtree reads must have an
// Ok() encoding — otherwise bridged chunks could meet a value outside
// the code space mid-stream.  Checking eagerly also builds (and caches)
// the encodings the scans will serve windows from.
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

// codedDedupProbe is the number of gathered rows after which the
// code-tuple dedup set is dropped unless it is earning its keep: on
// distinct-heavy output the set is pure overhead on top of the
// authoritative inserter check, so it only stays for streams that
// repeat a substantial fraction of their rows (projected joins that
// collapse many pairs onto few result tuples).  Each duplicate the set
// absorbs saves a decode, a binary key and a map probe; each distinct
// row it retains costs a hash, a chained lookup and ~width words of
// growth — the break-even sits around one duplicate per eight rows,
// which codedDedupKeep encodes.
const (
	codedDedupProbe = 4096
	codedDedupKeep  = 8 // keep the set iff dups ≥ gathered/codedDedupKeep
)

// codedTupleSlab is the number of output tuples carved from one slab
// allocation in the coded gather.
const codedTupleSlab = 256

// materializeIntoCoded streams n as coded chunks into out.  Certain-only
// extraction narrows the selection with the tag-test CompleteSel, and
// duplicates are dropped on the full code tuple (hash + u64 compare)
// before any value is decoded — only the first occurrence of a row pays
// for decoding, the binary key, and the tuple allocation.  The dedup set
// is adaptive (see codedDedupProbe); ins.Has remains the authority, so
// dropping the set is always sound.
func materializeIntoCoded(n pnode, c *pctx, certainOnly, adopt bool, out *table.Relation) error {
	ins := out.BeginInsert()
	arity := n.out().Arity()
	seen := newCodedSet(arity, 16)
	gathered := 0
	row := make([]uint64, arity)
	// When adopt is set, every code that reaches the relation is also
	// collected column-wise: a fresh output adopts them as its coded
	// sidecar afterwards, so a consumer (join build side, diff probe)
	// asking for the temporary's Encoding skips the re-interning pass
	// over values just decoded here.  Root results never pass adopt.
	var codes [][]uint64
	if adopt && out.Len() == 0 {
		codes = make([][]uint64, arity)
	}
	// Tuples that survive dedup are carved out of a slab, one allocation
	// per codedTupleSlab rows instead of one per tuple.  The slab cursor
	// only advances on insertion, so a row rejected by ins.Has hands its
	// storage to the next candidate.  Slab memory is retained by the
	// inserted tuples, which out keeps alive anyway.
	var slab []value.Value
	err := streamCoded(n, c, func(ch *col.Coded, sel []int32) bool {
		if seen != nil && gathered >= codedDedupProbe &&
			gathered-seen.size() < gathered/codedDedupKeep {
			seen = nil
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
		gather := func(i int32) {
			if seen != nil {
				h := value.CodeHashSeed
				for j := 0; j < arity; j++ {
					code := ch.Cols[j][i]
					row[j] = code
					h = value.HashCode(h, code)
				}
				gathered++
				if !seen.insert(h, row) {
					return
				}
			} else {
				for j := 0; j < arity; j++ {
					row[j] = ch.Cols[j][i]
				}
			}
			if len(slab) < arity {
				slab = make([]value.Value, codedTupleSlab*arity)
			}
			t := table.Tuple(slab[:arity:arity])
			for j, code := range row {
				t[j] = c.decode(code)
			}
			key := t.AppendKey(c.keyBuf[:0])
			c.keyBuf = key
			// The code-tuple dedup is per materialization; ins.Has still
			// guards against rows merged in by other branches or workers.
			if !ins.Has(key) {
				ins.Add(key, t)
				slab = slab[arity:]
				if codes != nil {
					for j, code := range row {
						codes[j] = append(codes[j], code)
					}
				}
			}
		}
		if sel == nil {
			for i := int32(0); int(i) < ch.Rows; i++ {
				gather(i)
			}
		} else {
			for _, i := range sel {
				gather(i)
			}
		}
		return true
	})
	if err == nil && codes != nil {
		out.AdoptEncoding(c.dict, codes)
	}
	return err
}
