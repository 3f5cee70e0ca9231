package col

import (
	"slices"
	"testing"

	"incdata/internal/value"
)

// directCode is the code of a value that encodes without a dictionary
// (an inline int or a null).
func directCode(t *testing.T, v value.Value) uint64 {
	t.Helper()
	c, ok := value.EncodeDirect(v)
	if !ok {
		t.Fatalf("%v must encode directly", v)
	}
	return c
}

// sampleCoded is a two-column chunk of the rows (1, 5), (2, ⊥7), (⊥3, 6),
// (4, 8).
func sampleCoded(t *testing.T) *Coded {
	c := NewCoded(2, 4)
	for _, row := range [][2]value.Value{
		{value.Int(1), value.Int(5)},
		{value.Int(2), value.Null(7)},
		{value.Null(3), value.Int(6)},
		{value.Int(4), value.Int(8)},
	} {
		for j, v := range row {
			c.Append(j, directCode(t, v))
		}
		c.EndRow()
	}
	return c
}

// TestSidecar pins the all-constant sidecar semantics.
func TestSidecar(t *testing.T) {
	c := NewCoded(2, 4)
	c.Append(0, directCode(t, value.Int(1)))
	c.Append(1, directCode(t, value.Int(2)))
	c.EndRow()
	if !c.AllConst() || !c.ConstAt([]int{0, 1}) {
		t.Fatalf("constant-only chunk must be all-constant")
	}
	c.Append(0, directCode(t, value.Null(1)))
	c.Append(1, directCode(t, value.Int(3)))
	c.EndRow()
	if c.AllConst() {
		t.Fatalf("chunk with a null must not be all-constant")
	}
	if c.Const[0] || !c.Const[1] {
		t.Fatalf("sidecar wrong: Const=%v, want [false true]", c.Const)
	}
	if c.ConstAt([]int{0}) || !c.ConstAt([]int{1}) {
		t.Fatalf("ConstAt disagrees with sidecar")
	}
	if c.ConstAt(nil) {
		t.Fatalf("ConstAt(nil) must equal AllConst")
	}
	c.Reset(2)
	if !c.AllConst() || c.Rows != 0 {
		t.Fatalf("Reset must restore the all-constant sidecar")
	}
}

// TestCompleteSel pins the completeness scan against the rows known to
// hold a null, including the all-constant short-circuit.
func TestCompleteSel(t *testing.T) {
	c := sampleCoded(t)
	got, used := c.CompleteSel(nil, nil)
	if !used {
		t.Fatalf("chunk with nulls must scan")
	}
	if want := []int32{0, 3}; !slices.Equal(got, want) {
		t.Fatalf("CompleteSel = %v, want %v", got, want)
	}

	// Restricted input selection narrows within it.
	sel := []int32{0, 1, 2}
	if got, _ = c.CompleteSel(sel, nil); !slices.Equal(got, []int32{0}) {
		t.Fatalf("CompleteSel(%v) = %v, want [0]", sel, got)
	}

	// All-constant chunks return the input selection untouched.
	c.Reset(2)
	c.Append(0, directCode(t, value.Int(1)))
	c.Append(1, directCode(t, value.Int(2)))
	c.EndRow()
	in := []int32{0}
	got, used = c.CompleteSel(in, nil)
	if used || !slices.Equal(got, in) {
		t.Fatalf("all-constant CompleteSel must pass the selection through, got %v used=%v", got, used)
	}
}

// TestCodedResetReuseAcrossArities is the pooled-reuse regression test
// for Reset: one chunk cycled through shrinking and growing arities (the
// lifecycle a sync.Pool imposes) must always present exactly arity
// columns, all empty and all-constant, with no state leaking from the
// wider life before it — and a chunk whose Cols and Const capacities
// diverge must not slice Const out of range.
func TestCodedResetReuseAcrossArities(t *testing.T) {
	nullCode := func(id uint64) uint64 { return directCode(t, value.Null(id)) }
	c := &Coded{}
	for _, arity := range []int{3, 1, 4, 2, 4, 0, 3} {
		c.Reset(arity)
		if got := c.Arity(); got != arity {
			t.Fatalf("Arity = %d after Reset(%d)", got, arity)
		}
		if len(c.Const) != arity || c.Rows != 0 {
			t.Fatalf("len(Const) = %d, Rows = %d after Reset(%d)", len(c.Const), c.Rows, arity)
		}
		for j := 0; j < arity; j++ {
			if len(c.Cols[j]) != 0 || !c.Const[j] {
				t.Fatalf("column %d dirty after Reset(%d)", j, arity)
			}
			c.Append(j, nullCode(uint64(j+1)))
		}
		if arity > 0 {
			c.EndRow()
			if c.AllConst() {
				t.Fatal("null codes must clear the sidecar")
			}
		}
	}

	dv := &Coded{
		Cols:  make([][]uint64, 4),
		Const: make([]bool, 2),
	}
	dv.Reset(3)
	if len(dv.Cols) != 3 || len(dv.Const) != 3 {
		t.Fatalf("diverged caps: len(Cols) = %d, len(Const) = %d, want 3 and 3", len(dv.Cols), len(dv.Const))
	}
}
