package plan

import (
	"fmt"
	"hash/maphash"
	"slices"

	"incdata/internal/table"
	"incdata/internal/valuation"
	"incdata/internal/value"
)

// Session is one enumeration worker's view of a WorldPlan.  A world's delta
// is evaluated over flat tuple buffers the session owns, one per node,
// cleared and refilled from world to world; only what a call returns is
// turned into a *table.Relation.  Sessions of the same WorldPlan share the
// stable results and their indexes (read-only); each worker must own its
// Session.
type Session struct {
	wp     *WorldPlan
	vals   []value.Value     // the current valuation, dense: vals[i] = v(wp.nulls[i])
	bufs   []rows            // per-node delta of the current world
	out    *table.Relation   // what Delta returns
	full_  []*table.Relation // per-node full-materialization scratch
	tuples []table.Tuple     // emit's batch
	keyBuf []byte
}

// NewSession creates an evaluation session for one enumeration worker.
func (wp *WorldPlan) NewSession() *Session {
	return &Session{
		wp:    wp,
		vals:  make([]value.Value, len(wp.nulls)),
		bufs:  make([]rows, wp.n),
		out:   table.NewRelation(wp.root.rs),
		full_: make([]*table.Relation, wp.n),
	}
}

// Delta evaluates the world-dependent remainder of the answer under
// valuation v: Q(v(D)) = Stable() ∪ Delta(v).  Only valid when the plan is
// Splittable().  The relation returned belongs to the session and is reset
// by its next call; its tuples are freshly allocated and immutable, so a
// Clone() of it, and tuples taken from it, stay valid for good.
func (s *Session) Delta(v valuation.Valuation) (*table.Relation, error) {
	if !s.wp.root.splittable {
		return nil, fmt.Errorf("plan: world plan for %s is not splittable", s.wp.out)
	}
	s.bind(v)
	d, err := s.delta(s.wp.root)
	if err != nil {
		return nil, err
	}
	s.out.Reset(s.wp.root.rs)
	return s.out, s.emit(s.out, d)
}

// Answer evaluates the full answer Q(v(D)) for valuation v, for any plan.
// The result is scratch, valid until the next call on this session (or, for
// a world-invariant plan, the shared stable result): callers must not
// mutate it.
func (s *Session) Answer(v valuation.Valuation) (*table.Relation, error) {
	s.bind(v)
	return s.full(s.wp.root)
}

// bind copies v's images of the plan's nulls into the dense valuation; the
// session keeps no reference to v.
func (s *Session) bind(v valuation.Valuation) {
	for i, nl := range s.wp.nulls {
		s.vals[i] = v.ApplyValue(nl)
	}
}

// emit adds the rows of d to out as freshly allocated tuples — the one
// place a world's buffers become stored tuples.
func (s *Session) emit(out *table.Relation, d *rows) error {
	block := slices.Clone(d.vals[:d.n*d.arity])
	s.tuples = s.tuples[:0]
	for i := 0; i < d.n; i++ {
		s.tuples = append(s.tuples, block[i*d.arity:(i+1)*d.arity:(i+1)*d.arity])
	}
	return out.AddBatch(s.tuples)
}

// rows is a set of tuples of one arity, row-major in a flat buffer, with an
// open-addressed table over the rows' hashes that keeps it a set.  reset
// keeps both allocations, so a session in steady state allocates nothing
// below what it returns.
type rows struct {
	arity int
	n     int
	vals  []value.Value // n rows, then possibly one pending row (next)
	slots []uint64      // high half of a row's hash | 1-based row; 0 = free; power-of-two length ≥ 2n
}

const rowMask = 1<<32 - 1 // the row half of a slot

func (b *rows) reset(arity int) {
	b.arity, b.n = arity, 0
	clear(b.slots)
}

// row returns row i; it is valid until the buffer's next reset.
func (b *rows) row(i int) table.Tuple { return b.vals[i*b.arity : (i+1)*b.arity] }

// next returns a pending row behind the last one for the caller to fill;
// commit keeps it, another next overwrites it.
func (b *rows) next() table.Tuple {
	end := b.n * b.arity
	b.vals = slices.Grow(b.vals[:end], b.arity)[:end+b.arity]
	return b.vals[end:]
}

// commit adds the pending row to the set unless it already holds it.
func (b *rows) commit() {
	if 2*(b.n+1) > len(b.slots) {
		b.grow()
	}
	if i, tag, found := b.probe(b.row(b.n)); !found {
		b.n++
		b.slots[i] = tag | uint64(b.n)
	}
}

func (b *rows) add(t table.Tuple) {
	copy(b.next(), t)
	b.commit()
}

// concat adds lt followed by the given positions of rt.
func (b *rows) concat(lt, rt table.Tuple, extra []int) {
	t := b.next()
	copy(t, lt)
	for j, p := range extra {
		t[len(lt)+j] = rt[p]
	}
	b.commit()
}

func (b *rows) has(t table.Tuple) bool {
	if b.n == 0 {
		return false
	}
	_, _, found := b.probe(t)
	return found
}

// probe returns the slot holding a row equal to t, or else the free slot t
// belongs in, and the hash half of t's slot.
func (b *rows) probe(t table.Tuple) (i int, tag uint64, found bool) {
	h := hashRow(t)
	tag = h &^ rowMask
	mask := len(b.slots) - 1
	for i = int(h) & mask; ; i = (i + 1) & mask {
		sl := b.slots[i]
		if sl == 0 {
			return i, tag, false
		}
		if sl&^rowMask == tag && slices.Equal(b.row(int(sl&rowMask)-1), t) {
			return i, tag, true
		}
	}
}

// grow doubles the table and re-enters the stored rows.
func (b *rows) grow() {
	b.slots = make([]uint64, max(16, 2*len(b.slots)))
	for r := 0; r < b.n; r++ {
		i, tag, _ := b.probe(b.row(r))
		b.slots[i] = tag | uint64(r+1)
	}
}

var rowSeed = maphash.MakeSeed()

func hashRow(t table.Tuple) uint64 {
	h := value.CodeHashSeed
	for _, v := range t {
		if s, ok := v.AsString(); ok {
			h = value.HashCode(h, maphash.String(rowSeed, s))
		} else if i, ok := v.AsInt(); ok {
			h = value.HashCode(h, uint64(i))
		} else {
			h = value.HashCode(h, ^v.NullID())
		}
	}
	return h
}

// keyAt returns the key of the given positions of t in the session's
// buffer, for a probe of an index.
func (s *Session) keyAt(t table.Tuple, pos []int) []byte {
	key := s.keyBuf[:0]
	for _, p := range pos {
		key = t[p].AppendKey(key)
	}
	s.keyBuf = key
	return key
}

// delta computes the per-world remainder of a splittable node into the
// node's buffer (ρ hands its child's up as it is).  Every node's delta is a
// set, so duplicates a projection or a union makes are not multiplied by a
// join above it.
func (s *Session) delta(n *wnode) (*rows, error) {
	if n.kind == wRename {
		return s.delta(n.l)
	}
	out := &s.bufs[n.id]
	out.reset(n.rs.Arity())
	if n.invariant {
		return out, nil // empty
	}
	var sl, sr *table.Relation
	var dl, dr *rows
	var err error
	if n.l != nil {
		if dl, err = s.delta(n.l); err != nil {
			return nil, err
		}
	}
	if n.r != nil {
		if dr, err = s.delta(n.r); err != nil {
			return nil, err
		}
		if sl, err = s.wp.stable(n.l); err != nil {
			return nil, err
		}
		if sr, err = s.wp.stable(n.r); err != nil {
			return nil, err
		}
	}
	switch n.kind {
	case wRel, wDelta:
		// The template with this world's constants in place of the nulls.
		st, err := s.wp.stable(n)
		if err != nil {
			return nil, err
		}
		p := 0
		for lo := 0; lo < len(n.tmpl); lo += out.arity {
			t := out.next()
			copy(t, n.tmpl[lo:])
			for ; p < len(n.patch) && int(n.patch[p].pos) < lo+out.arity; p++ {
				t[int(n.patch[p].pos)-lo] = s.vals[n.patch[p].ord]
			}
			// Keep the delta minimal: a valuation can map a null tuple onto
			// a tuple the complete part already holds.
			if !st.Contains(t) {
				out.commit()
			}
		}

	case wSelect:
		for i := 0; i < dl.n; i++ {
			if t := dl.row(i); n.pred(t) {
				out.add(t)
			}
		}

	case wProject:
		for i := 0; i < dl.n; i++ {
			out.concat(nil, dl.row(i), n.projIdx)
		}

	case wUnion:
		for i := 0; i < dl.n; i++ {
			out.add(dl.row(i))
		}
		for i := 0; i < dr.n; i++ {
			out.add(dr.row(i))
		}

	case wIntersect:
		// (fullL ∩ dR) ∪ (dL ∩ sR), iterating only the deltas.
		for i := 0; i < dr.n; i++ {
			if t := dr.row(i); dl.has(t) || sl.Contains(t) {
				out.add(t)
			}
		}
		for i := 0; i < dl.n; i++ {
			if t := dl.row(i); sr.Contains(t) {
				out.add(t)
			}
		}

	case wDiff:
		// The right side is invariant (otherwise the node is not splittable).
		for i := 0; i < dl.n; i++ {
			if t := dl.row(i); !sr.Contains(t) {
				out.add(t)
			}
		}

	case wProduct:
		// (dL × sR) ∪ (dL × dR) ∪ (sL × dR) — everything touching a delta.
		if dl.n > 0 {
			sr.Each(func(rt table.Tuple) bool {
				for i := 0; i < dl.n; i++ {
					out.concat(dl.row(i), rt, n.extraIdx)
				}
				return true
			})
		}
		if dr.n > 0 {
			sl.Each(func(lt table.Tuple) bool {
				for j := 0; j < dr.n; j++ {
					out.concat(lt, dr.row(j), n.extraIdx)
				}
				return true
			})
		}
		for i := 0; i < dl.n; i++ {
			for j := 0; j < dr.n; j++ {
				out.concat(dl.row(i), dr.row(j), n.extraIdx)
			}
		}

	case wJoin:
		// (dL ⋈ sR) ∪ (sL ⋈ dR) ∪ (dL ⋈ dR): the deltas probe the stable
		// sides' indexes, built once and cached on the stable relations, and
		// meet each other in a nested loop over values.
		if dl.n > 0 && sr.Len() > 0 {
			ix := sr.Index(n.rpos)
			for i := 0; i < dl.n; i++ {
				lt := dl.row(i)
				for sh, e := ix.Lookup(s.keyAt(lt, n.lpos)); e != 0; {
					var rt table.Tuple
					rt, e = sh.At(e)
					out.concat(lt, rt, n.extraIdx)
				}
			}
		}
		if dr.n > 0 && sl.Len() > 0 {
			ix := sl.Index(n.lpos)
			for j := 0; j < dr.n; j++ {
				rt := dr.row(j)
				for sh, e := ix.Lookup(s.keyAt(rt, n.rpos)); e != 0; {
					var lt table.Tuple
					lt, e = sh.At(e)
					out.concat(lt, rt, n.extraIdx)
				}
			}
		}
		for i := 0; i < dl.n; i++ {
			lt := dl.row(i)
		pairs:
			for j := 0; j < dr.n; j++ {
				rt := dr.row(j)
				for k, p := range n.lpos {
					if lt[p] != rt[n.rpos[k]] {
						continue pairs
					}
				}
				out.concat(lt, rt, n.extraIdx)
			}
		}

	case wEmpty:

	default:
		return nil, fmt.Errorf("plan: delta of non-splittable operator %d", n.kind)
	}
	return out, nil
}

func (s *Session) scratchFull(n *wnode) *table.Relation {
	r := s.full_[n.id]
	if r == nil {
		r = table.NewRelation(n.rs)
		s.full_[n.id] = r
	} else {
		r.Reset(n.rs)
	}
	return r
}

// full materializes a node's complete per-world result, reusing stable
// parts wherever the tree allows: a splittable subtree is its stable part
// plus its delta, and only the operators above the first non-splittable one
// (division, a difference whose right side varies) evaluate over relations.
func (s *Session) full(n *wnode) (*table.Relation, error) {
	if n.invariant {
		return s.wp.stable(n)
	}
	if n.splittable {
		st, err := s.wp.stable(n)
		if err != nil {
			return nil, err
		}
		d, err := s.delta(n)
		if err != nil {
			return nil, err
		}
		out := s.scratchFull(n)
		if err := out.AddAll(st); err != nil {
			return nil, err
		}
		return out, s.emit(out, d)
	}
	fl, err := s.full(n.l)
	if err != nil {
		return nil, err
	}
	var fr *table.Relation
	if n.r != nil {
		if fr, err = s.full(n.r); err != nil {
			return nil, err
		}
	}
	if n.kind == wDivision {
		return divide(fl, fr, n.divPos, n.keepPos, n.rs), nil
	}
	out := s.scratchFull(n)
	switch n.kind {
	case wSelect:
		fl.Each(func(t table.Tuple) bool {
			if n.pred(t) {
				out.MustAdd(t)
			}
			return true
		})
	case wProject:
		fl.Each(func(t table.Tuple) bool {
			out.MustAdd(t.Project(n.projIdx...))
			return true
		})
	case wRename, wUnion:
		if err := out.AddAll(fl); err != nil {
			return nil, err
		}
		if fr != nil {
			err = out.AddAll(fr)
		}
	case wProduct:
		fl.Each(func(lt table.Tuple) bool {
			fr.Each(func(rt table.Tuple) bool {
				out.MustAdd(lt.Concat(rt))
				return true
			})
			return true
		})
	case wJoin:
		ix := fr.Index(n.rpos)
		fl.Each(func(lt table.Tuple) bool {
			joinProbe(out, ix, s.keyAt(lt, n.lpos), lt, n.extraIdx)
			return true
		})
	case wIntersect, wDiff:
		keep := n.kind == wIntersect
		fl.Each(func(t table.Tuple) bool {
			if fr.Contains(t) == keep {
				out.MustAdd(t)
			}
			return true
		})
	default:
		return nil, fmt.Errorf("plan: cannot materialize operator %d per world", n.kind)
	}
	return out, err
}
