package plan

import (
	"bytes"
	"fmt"

	"incdata/internal/table"
	"incdata/internal/valuation"
)

// Session is one enumeration worker's view of a WorldPlan: per-node
// scratch relations recycled from world to world, and the current
// valuation.  Sessions of the same WorldPlan share the stable results and
// their indexes (read-only); each worker must own its Session.
type Session struct {
	wp     *WorldPlan
	val    valuation.Valuation
	delta_ []*table.Relation // per-node delta scratch
	full_  []*table.Relation // per-node full-materialization scratch
	keyBuf []byte
	altBuf []byte
}

// NewSession creates an evaluation session for one enumeration worker.
func (wp *WorldPlan) NewSession() *Session {
	return &Session{
		wp:     wp,
		delta_: make([]*table.Relation, wp.n),
		full_:  make([]*table.Relation, wp.n),
	}
}

// Delta evaluates the world-dependent remainder of the answer under
// valuation v: Q(v(D)) = Stable() ∪ Delta(v).  Only valid when the plan is
// Splittable().  The result is scratch, valid until the next call on this
// session; callers clone (copy-on-write) to retain it.
func (s *Session) Delta(v valuation.Valuation) (*table.Relation, error) {
	if !s.wp.root.splittable {
		return nil, fmt.Errorf("plan: world plan for %s is not splittable", s.wp.out)
	}
	s.val = v
	return s.delta(s.wp.root)
}

// Answer evaluates the full answer Q(v(D)) for valuation v, for any plan.
// The result is scratch, valid until the next call on this session.
func (s *Session) Answer(v valuation.Valuation) (*table.Relation, error) {
	s.val = v
	return s.full(s.wp.root)
}

// scratchDelta returns the node's delta scratch relation, reset to empty.
func (s *Session) scratchDelta(n *wnode) *table.Relation {
	r := s.delta_[n.id]
	if r == nil {
		r = table.NewRelation(n.rs)
		s.delta_[n.id] = r
	} else {
		r.Reset(n.rs)
	}
	return r
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

// delta computes the per-world remainder of a splittable node.
func (s *Session) delta(n *wnode) (*table.Relation, error) {
	if n.invariant {
		return s.scratchDelta(n), nil // empty
	}
	stable := func(c *wnode) (*table.Relation, error) { return s.wp.stable(c) }
	switch n.kind {
	case wRel:
		out := s.scratchDelta(n)
		sl, err := stable(n)
		if err != nil {
			return nil, err
		}
		for _, t := range n.nullTuples {
			nt := t.Map(s.val.ApplyValue)
			// Keep the delta minimal: a valuation can map a null tuple onto
			// a tuple the complete part already holds.
			if !sl.Contains(nt) {
				out.MustAdd(nt)
			}
		}
		return out, nil

	case wSelect:
		din, err := s.delta(n.l)
		if err != nil {
			return nil, err
		}
		out := s.scratchDelta(n)
		din.Each(func(t table.Tuple) bool {
			if n.pred(t) {
				out.MustAdd(t)
			}
			return true
		})
		return out, nil

	case wProject:
		din, err := s.delta(n.l)
		if err != nil {
			return nil, err
		}
		out := s.scratchDelta(n)
		din.Each(func(t table.Tuple) bool {
			out.MustAdd(t.Project(n.projIdx...))
			return true
		})
		return out, nil

	case wRename:
		din, err := s.delta(n.l)
		if err != nil {
			return nil, err
		}
		out := s.scratchDelta(n)
		if err := out.AddAll(din); err != nil {
			return nil, err
		}
		return out, nil

	case wProduct:
		sl, err := stable(n.l)
		if err != nil {
			return nil, err
		}
		sr, err := stable(n.r)
		if err != nil {
			return nil, err
		}
		dl, err := s.delta(n.l)
		if err != nil {
			return nil, err
		}
		dr, err := s.delta(n.r)
		if err != nil {
			return nil, err
		}
		out := s.scratchDelta(n)
		// (dL × sR) ∪ (dL × dR) ∪ (sL × dR) — everything touching a delta.
		cross := func(a, b *table.Relation) {
			a.Each(func(lt table.Tuple) bool {
				b.Each(func(rt table.Tuple) bool {
					out.MustAdd(lt.Concat(rt))
					return true
				})
				return true
			})
		}
		cross(dl, sr)
		cross(dl, dr)
		cross(sl, dr)
		return out, nil

	case wJoin:
		return s.deltaJoin(n)

	case wUnion:
		dl, err := s.delta(n.l)
		if err != nil {
			return nil, err
		}
		dr, err := s.delta(n.r)
		if err != nil {
			return nil, err
		}
		out := s.scratchDelta(n)
		if err := out.AddAll(dl); err != nil {
			return nil, err
		}
		if err := out.AddAll(dr); err != nil {
			return nil, err
		}
		return out, nil

	case wIntersect:
		sl, err := stable(n.l)
		if err != nil {
			return nil, err
		}
		sr, err := stable(n.r)
		if err != nil {
			return nil, err
		}
		dl, err := s.delta(n.l)
		if err != nil {
			return nil, err
		}
		dr, err := s.delta(n.r)
		if err != nil {
			return nil, err
		}
		out := s.scratchDelta(n)
		// (fullL ∩ dR) ∪ (dL ∩ sR), iterating only the deltas.
		dr.Each(func(t table.Tuple) bool {
			if sl.Contains(t) || dl.Contains(t) {
				out.MustAdd(t)
			}
			return true
		})
		dl.Each(func(t table.Tuple) bool {
			if sr.Contains(t) {
				out.MustAdd(t)
			}
			return true
		})
		return out, nil

	case wDiff:
		// Right side is invariant (otherwise the node is not splittable).
		sr, err := stable(n.r)
		if err != nil {
			return nil, err
		}
		dl, err := s.delta(n.l)
		if err != nil {
			return nil, err
		}
		out := s.scratchDelta(n)
		dl.Each(func(t table.Tuple) bool {
			if !sr.Contains(t) {
				out.MustAdd(t)
			}
			return true
		})
		return out, nil

	case wDelta:
		sl, err := stable(n)
		if err != nil {
			return nil, err
		}
		out := s.scratchDelta(n)
		for _, nl := range n.adomN {
			c := s.val.ApplyValue(nl)
			t := table.NewTuple(c, c)
			if !sl.Contains(t) {
				out.MustAdd(t)
			}
		}
		return out, nil

	case wEmpty:
		return s.scratchDelta(n), nil

	default:
		return nil, fmt.Errorf("plan: delta of non-splittable operator %d", n.kind)
	}
}

// deltaJoin joins the per-world deltas against the persistently indexed
// stable sides: (dL ⋈ sR) ∪ (sL ⋈ dR) ∪ (dL ⋈ dR).
func (s *Session) deltaJoin(n *wnode) (*table.Relation, error) {
	sl, err := s.wp.stable(n.l)
	if err != nil {
		return nil, err
	}
	sr, err := s.wp.stable(n.r)
	if err != nil {
		return nil, err
	}
	dl, err := s.delta(n.l)
	if err != nil {
		return nil, err
	}
	dr, err := s.delta(n.r)
	if err != nil {
		return nil, err
	}
	out := s.scratchDelta(n)
	if dl.Len() > 0 {
		ixSR := sr.Index(n.rpos) // built once, cached on the stable relation
		dl.Each(func(lt table.Tuple) bool {
			key := s.keyBuf[:0]
			for _, p := range n.lpos {
				key = lt[p].AppendKey(key)
			}
			s.keyBuf = key
			joinProbe(out, ixSR, key, lt, n.extraIdx)
			return true
		})
	}
	if dr.Len() > 0 {
		ixSL := sl.Index(n.lpos)
		dr.Each(func(rt table.Tuple) bool {
			key := s.keyBuf[:0]
			for _, p := range n.rpos {
				key = rt[p].AppendKey(key)
			}
			s.keyBuf = key
			for sh, i := ixSL.Lookup(key); i != 0; {
				var lt table.Tuple
				lt, i = sh.At(i)
				combined := make(table.Tuple, len(lt), len(lt)+len(n.extraIdx))
				copy(combined, lt)
				for _, ri := range n.extraIdx {
					combined = append(combined, rt[ri])
				}
				out.MustAdd(combined)
			}
			return true
		})
	}
	if dl.Len() > 0 && dr.Len() > 0 {
		// Both deltas are small; nested loop with key comparison.
		dl.Each(func(lt table.Tuple) bool {
			lkey := s.keyBuf[:0]
			for _, p := range n.lpos {
				lkey = lt[p].AppendKey(lkey)
			}
			s.keyBuf = lkey
			dr.Each(func(rt table.Tuple) bool {
				rkey := s.altBuf[:0]
				for _, p := range n.rpos {
					rkey = rt[p].AppendKey(rkey)
				}
				s.altBuf = rkey
				if bytes.Equal(lkey, rkey) {
					combined := make(table.Tuple, len(lt), len(lt)+len(n.extraIdx))
					copy(combined, lt)
					for _, ri := range n.extraIdx {
						combined = append(combined, rt[ri])
					}
					out.MustAdd(combined)
				}
				return true
			})
			return true
		})
	}
	return out, nil
}

// full materializes a node's complete per-world result, reusing stable
// parts wherever the tree allows.
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
		if err := out.AddAll(d); err != nil {
			return nil, err
		}
		return out, nil
	}
	switch n.kind {
	case wSelect:
		fin, err := s.full(n.l)
		if err != nil {
			return nil, err
		}
		out := s.scratchFull(n)
		fin.Each(func(t table.Tuple) bool {
			if n.pred(t) {
				out.MustAdd(t)
			}
			return true
		})
		return out, nil

	case wProject:
		fin, err := s.full(n.l)
		if err != nil {
			return nil, err
		}
		out := s.scratchFull(n)
		fin.Each(func(t table.Tuple) bool {
			out.MustAdd(t.Project(n.projIdx...))
			return true
		})
		return out, nil

	case wRename:
		fin, err := s.full(n.l)
		if err != nil {
			return nil, err
		}
		out := s.scratchFull(n)
		if err := out.AddAll(fin); err != nil {
			return nil, err
		}
		return out, nil

	case wProduct:
		fl, err := s.full(n.l)
		if err != nil {
			return nil, err
		}
		fr, err := s.full(n.r)
		if err != nil {
			return nil, err
		}
		out := s.scratchFull(n)
		fl.Each(func(lt table.Tuple) bool {
			fr.Each(func(rt table.Tuple) bool {
				out.MustAdd(lt.Concat(rt))
				return true
			})
			return true
		})
		return out, nil

	case wJoin:
		fl, err := s.full(n.l)
		if err != nil {
			return nil, err
		}
		fr, err := s.full(n.r)
		if err != nil {
			return nil, err
		}
		out := s.scratchFull(n)
		ix := fr.Index(n.rpos)
		fl.Each(func(lt table.Tuple) bool {
			key := s.keyBuf[:0]
			for _, p := range n.lpos {
				key = lt[p].AppendKey(key)
			}
			s.keyBuf = key
			joinProbe(out, ix, key, lt, n.extraIdx)
			return true
		})
		return out, nil

	case wUnion:
		fl, err := s.full(n.l)
		if err != nil {
			return nil, err
		}
		fr, err := s.full(n.r)
		if err != nil {
			return nil, err
		}
		out := s.scratchFull(n)
		if err := out.AddAll(fl); err != nil {
			return nil, err
		}
		if err := out.AddAll(fr); err != nil {
			return nil, err
		}
		return out, nil

	case wIntersect:
		fl, err := s.full(n.l)
		if err != nil {
			return nil, err
		}
		fr, err := s.full(n.r)
		if err != nil {
			return nil, err
		}
		out := s.scratchFull(n)
		fl.Each(func(t table.Tuple) bool {
			if fr.Contains(t) {
				out.MustAdd(t)
			}
			return true
		})
		return out, nil

	case wDiff:
		fl, err := s.full(n.l)
		if err != nil {
			return nil, err
		}
		fr, err := s.full(n.r)
		if err != nil {
			return nil, err
		}
		out := s.scratchFull(n)
		fl.Each(func(t table.Tuple) bool {
			if !fr.Contains(t) {
				out.MustAdd(t)
			}
			return true
		})
		return out, nil

	case wDivision:
		fl, err := s.full(n.l)
		if err != nil {
			return nil, err
		}
		fr, err := s.full(n.r)
		if err != nil {
			return nil, err
		}
		return divide(fl, fr, n.divPos, n.keepPos, n.rs), nil

	default:
		return nil, fmt.Errorf("plan: cannot materialize operator %d per world", n.kind)
	}
}
