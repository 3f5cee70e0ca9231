// Package valuation implements valuations of nulls: mappings
// v : Null(D) → Const that replace marked nulls by constants.  Valuations
// are the engine of both semantics of incompleteness in the paper,
//
//	[[D]]cwa = { v(D)            | v a valuation }
//	[[D]]owa = { D' ⊇ v(D)       | v a valuation },
//
// and of the ≈C conditions of Section 5.1 (replacing nulls by fresh
// constants outside a finite set C).
package valuation

import (
	"fmt"
	"math"
	"slices"

	"incdata/internal/table"
	"incdata/internal/value"
)

// Valuation maps nulls to constants.  Nulls not in its domain are left
// untouched by Apply* methods, so a Valuation can be partial.
type Valuation map[value.Value]value.Value

// New returns an empty valuation.
func New() Valuation { return Valuation{} }

// Set binds a null to a constant; it fails when the key is not a null or
// the image is not a constant.
func (v Valuation) Set(null, con value.Value) error {
	if !null.IsNull() {
		return fmt.Errorf("valuation: key %v is not a null", null)
	}
	if !con.IsConst() {
		return fmt.Errorf("valuation: image %v is not a constant", con)
	}
	v[null] = con
	return nil
}

// MustSet is Set that panics on error.
func (v Valuation) MustSet(null, con value.Value) {
	if err := v.Set(null, con); err != nil {
		panic(err)
	}
}

// Clone returns a copy of the valuation.
func (v Valuation) Clone() Valuation {
	out := make(Valuation, len(v))
	for k, c := range v {
		out[k] = c
	}
	return out
}

// ApplyValue returns v(x): the image of a null in the valuation's domain,
// and any other value unchanged.
func (v Valuation) ApplyValue(x value.Value) value.Value {
	if x.IsNull() {
		if c, ok := v[x]; ok {
			return c
		}
	}
	return x
}

// ApplyTuple applies the valuation to every field of a tuple.
func (v Valuation) ApplyTuple(t table.Tuple) table.Tuple {
	return t.Map(v.ApplyValue)
}

// ApplyRelation applies the valuation to every tuple of a relation.
// Null-free tuples are shared with r (together with their stored hash keys)
// rather than copied, so applying a valuation to a mostly-complete relation
// allocates only for the tuples it actually changes.
func (v Valuation) ApplyRelation(r *table.Relation) *table.Relation {
	return r.Map(v.ApplyValue)
}

// ApplyDatabase returns v(D), sharing null-free tuples with d (see
// ApplyRelation).  World enumeration over databases with few nulls therefore
// costs per-world allocations proportional to the nulls, not the database.
func (v Valuation) ApplyDatabase(d *table.Database) *table.Database {
	return d.Map(v.ApplyValue)
}

// TotalOn reports whether the valuation binds every null of D.
func (v Valuation) TotalOn(d *table.Database) bool {
	for n := range d.Nulls() {
		if _, ok := v[n]; !ok {
			return false
		}
	}
	return true
}

// Domain returns the nulls bound by the valuation, deterministically
// ordered.
func (v Valuation) Domain() []value.Value {
	out := make([]value.Value, 0, len(v))
	for k := range v {
		out = append(out, k)
	}
	slices.SortFunc(out, value.Compare)
	return out
}

// Image returns the set of constants used by the valuation.
func (v Valuation) Image() map[value.Value]bool {
	out := map[value.Value]bool{}
	for _, c := range v {
		out[c] = true
	}
	return out
}

// Equal reports whether two valuations are identical mappings.
func (v Valuation) Equal(o Valuation) bool {
	if len(v) != len(o) {
		return false
	}
	for k, c := range v {
		if oc, ok := o[k]; !ok || oc != c {
			return false
		}
	}
	return true
}

// String renders the valuation deterministically as {⊥1↦a, ⊥2↦b}.
func (v Valuation) String() string {
	dom := v.Domain()
	s := "{"
	for i, n := range dom {
		if i > 0 {
			s += ", "
		}
		s += n.String() + "↦" + v[n].String()
	}
	return s + "}"
}

// Fresh returns a valuation sending each of the given nulls to a distinct
// fresh constant not belonging to avoid.  This realises the condition of
// Section 5.1: for every finite C ⊂ Const there is a valuation v with
// v(D) ≈C D (replace nulls by distinct constants outside C).
//
// Fresh constants are strings of the form "@fresh<k>"; callers that need a
// different shape can post-process the valuation.
func Fresh(nulls []value.Value, avoid map[value.Value]bool) Valuation {
	v := New()
	next := 0
	used := func(c value.Value) bool {
		if avoid[c] {
			return true
		}
		for _, img := range v {
			if img == c {
				return true
			}
		}
		return false
	}
	sorted := append([]value.Value(nil), nulls...)
	slices.SortFunc(sorted, value.Compare)
	for _, n := range sorted {
		if !n.IsNull() {
			continue
		}
		for {
			c := value.String(fmt.Sprintf("@fresh%d", next))
			next++
			if !used(c) {
				v[n] = c
				break
			}
		}
	}
	return v
}

// FreshFor is Fresh applied to all nulls of D, avoiding all constants of D.
func FreshFor(d *table.Database) Valuation {
	return Fresh(d.SortedNulls(), d.Consts())
}

// Enumerate calls fn with every total valuation of the given nulls into the
// given constant domain, in a deterministic order: nulls and constants
// sorted, the last null varying fastest.  It stops early (and reports
// false) when fn returns false.  The number of valuations is
// |domain|^|nulls|, so callers must keep both small; this is the
// world-enumeration ground truth used by the certain-answer experiments.
//
// The Valuation passed to fn is reused across calls; fn must Clone it if it
// wants to retain it.
func Enumerate(nulls []value.Value, domain []value.Value, fn func(Valuation) bool) bool {
	return EnumerateRange(nulls, domain, 0, math.MaxInt, fn)
}

// EnumerateRange is Enumerate restricted to the valuations at positions
// [lo, hi) of Enumerate's order: an odometer over the domain that starts at
// position lo.  hi = math.MaxInt leaves the range open at the end, so a
// count saturated there (see Count) still reaches the last valuation.
// Consecutive ranges run back to back call fn exactly as Enumerate does.
func EnumerateRange(nulls []value.Value, domain []value.Value, lo, hi int, fn func(Valuation) bool) bool {
	ns := make([]value.Value, 0, len(nulls))
	for _, n := range nulls {
		if n.IsNull() {
			ns = append(ns, n)
		}
	}
	slices.SortFunc(ns, value.Compare)

	dom := make([]value.Value, 0, len(domain))
	for _, c := range domain {
		if c.IsConst() {
			dom = append(dom, c)
		}
	}
	slices.SortFunc(dom, value.Compare)

	lo = max(lo, 0)
	if len(ns) == 0 {
		if lo == 0 && hi > 0 {
			return fn(New())
		}
		return true
	}
	if len(dom) == 0 {
		return true // no valuations exist
	}

	// Seek: the digits of lo in base |dom|, the last null's least significant.
	digits := make([]int, len(ns))
	rest := lo
	for i := len(ns) - 1; i >= 0; i-- {
		digits[i], rest = rest%len(dom), rest/len(dom)
	}
	if rest > 0 {
		return true // lo is past the last valuation
	}
	v := make(Valuation, len(ns))
	for p, i := lo, 0; hi == math.MaxInt || p < hi; p++ {
		for ; i < len(ns); i++ {
			v[ns[i]] = dom[digits[i]]
		}
		if !fn(v) {
			return false
		}
		// Step: carry into the rightmost digit below its maximum, and
		// rebind the nulls from it on.
		for i = len(ns) - 1; i >= 0 && digits[i] == len(dom)-1; i-- {
			digits[i] = 0
		}
		if i < 0 {
			return true // wrapped past the last valuation
		}
		digits[i]++
	}
	return true
}

// Count returns the number of total valuations of k nulls into a domain of
// size d (d^k), saturating at math.MaxInt when the true count would
// overflow.  Saturation keeps world-count bounds meaningful: any positive
// MaxWorlds-style limit still trips, because math.MaxInt exceeds every
// representable bound.
func Count(k, d int) int {
	if k == 0 {
		return 1
	}
	if d == 0 {
		return 0
	}
	n := 1
	for i := 0; i < k; i++ {
		if n > math.MaxInt/d {
			return math.MaxInt
		}
		n *= d
	}
	return n
}
