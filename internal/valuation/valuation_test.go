package valuation

import (
	"math"
	"slices"
	"testing"

	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

func sampleDB() *table.Database {
	s := schema.MustNew(schema.NewRelation("R", "a", "b"))
	d := table.NewDatabase(s)
	d.MustAddRow("R", "1", "⊥1")
	d.MustAddRow("R", "⊥2", "2")
	return d
}

func TestSetAndApply(t *testing.T) {
	v := New()
	v.MustSet(value.Null(1), value.Int(7))
	if got := v.ApplyValue(value.Null(1)); got != value.Int(7) {
		t.Errorf("ApplyValue = %v", got)
	}
	if got := v.ApplyValue(value.Null(2)); got != value.Null(2) {
		t.Errorf("unbound null should stay, got %v", got)
	}
	if got := v.ApplyValue(value.Int(3)); got != value.Int(3) {
		t.Errorf("constants should be fixed, got %v", got)
	}
	if err := v.Set(value.Int(1), value.Int(2)); err == nil {
		t.Error("Set with constant key should fail")
	}
	if err := v.Set(value.Null(1), value.Null(2)); err == nil {
		t.Error("Set with null image should fail")
	}
}

func TestMustSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSet should panic")
		}
	}()
	New().MustSet(value.Int(1), value.Int(1))
}

func TestApplyTupleRelationDatabase(t *testing.T) {
	d := sampleDB()
	v := New()
	v.MustSet(value.Null(1), value.Int(10))
	v.MustSet(value.Null(2), value.Int(20))
	if !v.TotalOn(d) {
		t.Error("valuation should be total on d")
	}
	vd := v.ApplyDatabase(d)
	if !vd.IsComplete() {
		t.Error("v(D) should be complete")
	}
	r := vd.Relation("R")
	if !r.Contains(table.MustParseTuple("1", "10")) || !r.Contains(table.MustParseTuple("20", "2")) {
		t.Errorf("v(D) = %v", vd)
	}
	tp := v.ApplyTuple(table.MustParseTuple("⊥1", "⊥3"))
	if !tp.Equal(table.MustParseTuple("10", "⊥3")) {
		t.Errorf("ApplyTuple = %v", tp)
	}
	vr := v.ApplyRelation(d.Relation("R"))
	if vr.Len() != 2 {
		t.Errorf("ApplyRelation len = %d", vr.Len())
	}
	partial := New()
	partial.MustSet(value.Null(1), value.Int(1))
	if partial.TotalOn(d) {
		t.Error("partial valuation should not be total")
	}
}

func TestCloneDomainImageEqualString(t *testing.T) {
	v := New()
	v.MustSet(value.Null(2), value.Int(5))
	v.MustSet(value.Null(1), value.String("a"))
	c := v.Clone()
	c.MustSet(value.Null(3), value.Int(9))
	if len(v) != 2 {
		t.Error("Clone aliases")
	}
	dom := v.Domain()
	if len(dom) != 2 || dom[0] != value.Null(1) || dom[1] != value.Null(2) {
		t.Errorf("Domain = %v", dom)
	}
	img := v.Image()
	if len(img) != 2 || !img[value.Int(5)] || !img[value.String("a")] {
		t.Errorf("Image = %v", img)
	}
	if !v.Equal(v.Clone()) {
		t.Error("Equal should hold for clones")
	}
	if v.Equal(c) {
		t.Error("different valuations should not be Equal")
	}
	w := v.Clone()
	w.MustSet(value.Null(2), value.Int(6))
	if v.Equal(w) {
		t.Error("different image should not be Equal")
	}
	if v.String() != "{⊥1↦a, ⊥2↦5}" {
		t.Errorf("String = %q", v.String())
	}
}

func TestFresh(t *testing.T) {
	nulls := []value.Value{value.Null(3), value.Null(1), value.Int(5)}
	avoid := map[value.Value]bool{value.String("@fresh0"): true}
	v := Fresh(nulls, avoid)
	if len(v) != 2 {
		t.Fatalf("Fresh bound %d nulls", len(v))
	}
	if v[value.Null(1)] == v[value.Null(3)] {
		t.Error("fresh constants must be pairwise distinct")
	}
	for _, c := range v {
		if avoid[c] {
			t.Errorf("fresh constant %v is in avoid set", c)
		}
		if !c.IsConst() {
			t.Errorf("fresh image %v is not a constant", c)
		}
	}
}

func TestFreshFor(t *testing.T) {
	d := sampleDB()
	v := FreshFor(d)
	if !v.TotalOn(d) {
		t.Error("FreshFor should be total")
	}
	vd := v.ApplyDatabase(d)
	if !vd.IsComplete() {
		t.Error("FreshFor(D)(D) should be complete")
	}
	// fresh constants avoid the constants of D
	for _, c := range v {
		if d.Consts()[c] {
			t.Errorf("fresh constant %v collides with Const(D)", c)
		}
	}
}

func TestEnumerate(t *testing.T) {
	nulls := []value.Value{value.Null(1), value.Null(2)}
	domain := []value.Value{value.Int(1), value.Int(2), value.Int(3)}
	var seen []Valuation
	done := Enumerate(nulls, domain, func(v Valuation) bool {
		seen = append(seen, v.Clone())
		return true
	})
	if !done {
		t.Error("Enumerate should complete")
	}
	if len(seen) != 9 {
		t.Fatalf("expected 9 valuations, got %d", len(seen))
	}
	// all distinct and all total
	for i := range seen {
		if len(seen[i]) != 2 {
			t.Errorf("valuation %v not total", seen[i])
		}
		for j := i + 1; j < len(seen); j++ {
			if seen[i].Equal(seen[j]) {
				t.Errorf("duplicate valuation %v", seen[i])
			}
		}
	}
}

func TestEnumerateEdgeCases(t *testing.T) {
	// No nulls: exactly one (empty) valuation.
	count := 0
	Enumerate(nil, []value.Value{value.Int(1)}, func(v Valuation) bool {
		count++
		if len(v) != 0 {
			t.Error("empty valuation expected")
		}
		return true
	})
	if count != 1 {
		t.Errorf("expected 1 call, got %d", count)
	}
	// Empty domain with nulls: no valuations.
	count = 0
	Enumerate([]value.Value{value.Null(1)}, nil, func(Valuation) bool { count++; return true })
	if count != 0 {
		t.Errorf("expected 0 calls, got %d", count)
	}
	// Early stop.
	count = 0
	finished := Enumerate([]value.Value{value.Null(1)}, []value.Value{value.Int(1), value.Int(2)}, func(Valuation) bool {
		count++
		return false
	})
	if finished || count != 1 {
		t.Errorf("early stop failed: finished=%v count=%d", finished, count)
	}
	// Non-null entries in inputs are filtered.
	count = 0
	Enumerate([]value.Value{value.Int(9)}, []value.Value{value.Null(1), value.Int(1)}, func(v Valuation) bool {
		count++
		return true
	})
	if count != 1 {
		t.Errorf("expected single empty valuation, got %d", count)
	}
}

func TestCount(t *testing.T) {
	if Count(0, 5) != 1 || Count(3, 0) != 0 || Count(2, 3) != 9 || Count(10, 2) != 1024 {
		t.Error("Count wrong")
	}
}

func TestCountSaturatesAtMaxInt(t *testing.T) {
	cases := []struct{ k, d int }{
		{100, 100},       // astronomically large
		{63, 2},          // one doubling past the int63 range
		{2, math.MaxInt}, // d itself at the limit
		{40, 1000},       // |dom|^#nulls with many nulls
		{math.MaxInt, 2}, // pathological null count
	}
	for _, c := range cases {
		if got := Count(c.k, c.d); got != math.MaxInt {
			t.Errorf("Count(%d,%d) = %d, want math.MaxInt", c.k, c.d, got)
		}
	}
	// Saturated counts must still exceed any positive bound.
	if Count(40, 1000) <= 1<<40 {
		t.Error("saturated count does not dominate large bounds")
	}
}

// enumerateRef is the recursive enumeration EnumerateRange's odometer
// replaced: the first null varies slowest.
func enumerateRef(ns, dom []value.Value) []string {
	if len(ns) == 0 {
		return []string{New().String()}
	}
	var out []string
	v := New()
	var rec func(i int)
	rec = func(i int) {
		if i == len(ns) {
			out = append(out, v.String())
			return
		}
		for _, c := range dom {
			v[ns[i]] = c
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// TestEnumerateRangeSplits: for small null and domain sizes and every
// split point, the ranges [0, s) and [s, end) run back to back call fn with
// exactly Enumerate's sequence, which is the recursive order; so do three
// ranges, the last one open at math.MaxInt.
func TestEnumerateRangeSplits(t *testing.T) {
	for k := 0; k <= 3; k++ {
		for d := 0; d <= 3; d++ {
			var ns, dom []value.Value
			for i := k; i >= 1; i-- { // unsorted on purpose
				ns = append(ns, value.Null(uint64(i)))
			}
			for i := d; i >= 1; i-- {
				dom = append(dom, value.Int(int64(i)))
			}
			want := enumerateRef([]value.Value{value.Null(1), value.Null(2), value.Null(3)}[:k],
				[]value.Value{value.Int(1), value.Int(2), value.Int(3)}[:d])
			var full []string
			if !Enumerate(ns, dom, func(v Valuation) bool { full = append(full, v.String()); return true }) {
				t.Fatalf("k=%d d=%d: Enumerate stopped", k, d)
			}
			if !slices.Equal(full, want) {
				t.Fatalf("k=%d d=%d: Enumerate %v, want %v", k, d, full, want)
			}
			n := Count(k, d)
			for s1 := 0; s1 <= n+1; s1++ {
				for s2 := s1; s2 <= n+1; s2++ {
					var got []string
					for _, r := range [][2]int{{0, s1}, {s1, s2}, {s2, math.MaxInt}} {
						if !EnumerateRange(ns, dom, r[0], r[1], func(v Valuation) bool { got = append(got, v.String()); return true }) {
							t.Fatalf("k=%d d=%d: range %v stopped", k, d, r)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("k=%d d=%d splits %d,%d: %v, want %v", k, d, s1, s2, got, want)
					}
				}
			}
		}
	}
}

func TestEnumerateRangeEdges(t *testing.T) {
	ns := []value.Value{value.Null(1), value.Null(2)}
	dom := []value.Value{value.Int(1), value.Int(2)}
	count := func(lo, hi int) (int, bool) {
		c := 0
		done := EnumerateRange(ns, dom, lo, hi, func(Valuation) bool { c++; return true })
		return c, done
	}
	for _, c := range []struct{ lo, hi, want int }{
		{4, 10, 0}, {100, math.MaxInt, 0}, {3, 2, 0}, {-5, 2, 2}, {1, 3, 2}, {3, math.MaxInt, 1},
	} {
		if got, done := count(c.lo, c.hi); got != c.want || !done {
			t.Errorf("[%d, %d): %d calls (done %v), want %d", c.lo, c.hi, got, done, c.want)
		}
	}
	// No nulls: the empty valuation is position 0 only.
	if n := 0; !EnumerateRange(nil, dom, 1, 5, func(Valuation) bool { n++; return true }) || n != 0 {
		t.Errorf("no nulls past position 0: %d calls", n)
	}
	// Empty domain: no valuation in any range.
	if n := 0; !EnumerateRange(ns, nil, 0, math.MaxInt, func(Valuation) bool { n++; return true }) || n != 0 {
		t.Errorf("empty domain: %d calls", n)
	}
	// Early stop inside a range that starts mid-way.
	var seen []string
	if EnumerateRange(ns, dom, 1, math.MaxInt, func(v Valuation) bool { seen = append(seen, v.String()); return len(seen) < 2 }) {
		t.Error("early stop reported completion")
	}
	if want := []string{"{⊥1↦1, ⊥2↦2}", "{⊥1↦2, ⊥2↦1}"}; !slices.Equal(seen, want) {
		t.Errorf("early stop saw %v, want %v", seen, want)
	}
}
