package col

import (
	"bytes"
	"testing"

	"incdata/internal/table"
	"incdata/internal/value"
)

func sampleTuples() []table.Tuple {
	return []table.Tuple{
		table.NewTuple(value.Int(1), value.String("x")),
		table.NewTuple(value.Int(2), value.Null(7)),
		table.NewTuple(value.Null(3), value.String("y")),
		table.NewTuple(value.Int(4), value.String("z")),
	}
}

// TestRoundTrip pins the row bridge: FromTuples then Tuple/AppendTuples
// reproduces the input exactly, with fresh (non-aliasing) tuples.
func TestRoundTrip(t *testing.T) {
	ts := sampleTuples()
	c := New(2, 4)
	c.FromTuples(ts, 2)
	if c.Rows != len(ts) || c.Arity() != 2 {
		t.Fatalf("Rows=%d Arity=%d, want %d,2", c.Rows, c.Arity(), len(ts))
	}
	for i, want := range ts {
		got := c.Tuple(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("Tuple(%d) = %v, want %v", i, got, want)
			}
		}
	}
	gathered := c.AppendTuples(nil, nil)
	if len(gathered) != len(ts) {
		t.Fatalf("AppendTuples gathered %d rows, want %d", len(gathered), len(ts))
	}
	sel := []int32{1, 3}
	some := c.AppendTuples(nil, sel)
	if len(some) != 2 || some[0][0] != ts[1][0] || some[1][0] != ts[3][0] {
		t.Fatalf("selected gather wrong: %v", some)
	}
	// Gathered tuples must not alias chunk storage.
	c.Reset(2)
	c.AppendTuple(table.NewTuple(value.Int(99), value.Int(99)))
	if gathered[0][0] != ts[0][0] {
		t.Fatalf("gathered tuple aliases chunk storage")
	}
}

// TestSidecar pins the all-constant sidecar semantics.
func TestSidecar(t *testing.T) {
	c := New(2, 4)
	c.AppendTuple(table.NewTuple(value.Int(1), value.String("x")))
	if !c.AllConst() || !c.ConstAt([]int{0, 1}) {
		t.Fatalf("constant-only chunk must be all-constant")
	}
	c.AppendTuple(table.NewTuple(value.Null(1), value.String("y")))
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

// TestCompleteSel pins the vectorized completeness scan against the
// per-tuple IsComplete oracle, including the all-constant short-circuit.
func TestCompleteSel(t *testing.T) {
	ts := sampleTuples()
	c := New(2, 4)
	c.FromTuples(ts, 2)
	got, used := c.CompleteSel(nil, nil)
	if !used {
		t.Fatalf("chunk with nulls must scan")
	}
	var want []int32
	for i, tp := range ts {
		if tp.IsComplete() {
			want = append(want, int32(i))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("CompleteSel = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CompleteSel = %v, want %v", got, want)
		}
	}

	// Restricted input selection narrows within it.
	sel := []int32{0, 1, 2}
	got, _ = c.CompleteSel(sel, nil)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("CompleteSel(%v) = %v, want [0]", sel, got)
	}

	// All-constant chunks return the input selection untouched.
	c.Reset(2)
	c.AppendTuple(table.NewTuple(value.Int(1), value.Int(2)))
	in := []int32{0}
	got, used = c.CompleteSel(in, nil)
	if used || len(got) != 1 || got[0] != 0 {
		t.Fatalf("all-constant CompleteSel must pass the selection through, got %v used=%v", got, used)
	}
}

// TestRowKeys pins the column-wise key encoding identical to the per-tuple
// one the hash structures are built with, and the gathered rows identical
// to the tuples and their projections.
func TestRowKeys(t *testing.T) {
	ts := sampleTuples()
	c := New(2, 4)
	c.FromTuples(ts, 2)
	for i, tp := range ts {
		pos := []int{1, 0}
		if got := c.AppendRow(nil, nil, i); !got.Equal(tp) {
			t.Fatalf("AppendRow(%d) = %v, want %v", i, got, tp)
		}
		if got := c.AppendRow(table.Tuple{tp[0]}, pos, i); !got.Equal(table.Tuple{tp[0], tp[1], tp[0]}) {
			t.Fatalf("AppendRow(%d) at %v after one value = %v", i, pos, got)
		}
		want := tp[1].AppendKey(nil)
		want = tp[0].AppendKey(want)
		if got := c.AppendPosKey(nil, pos, i); !bytes.Equal(got, want) {
			t.Fatalf("AppendPosKey(%d) = %x, want %x", i, got, want)
		}
	}
}
