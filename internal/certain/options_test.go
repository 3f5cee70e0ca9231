package certain

import (
	"math"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// TestExtraConstantsNotAliased is the regression test for the option
// aliasing bug: appending query constants to opts.ExtraConstants used to
// write into the caller's backing array, so a reused Options value could
// carry one query's constants into the next call.
func TestExtraConstantsNotAliased(t *testing.T) {
	ev := NewEvaluator(true)
	s := schema.MustNew(schema.WithArity("R", 1))
	d := table.NewDatabase(s)
	d.MustAddRow("R", "⊥1")

	// A shared backing array with spare capacity, as a caller might build.
	backing := make([]value.Value, 1, 4)
	backing[0] = value.Int(7)
	opts := Options{ExtraConstants: backing[:1]}

	q1 := ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Attr("#1"), ra.LitString("qconst1"))}
	if _, err := ev.ByWorldsCWA(q1, d, opts); err != nil {
		t.Fatal(err)
	}
	// The caller's slice and its spare capacity must be untouched.
	if len(opts.ExtraConstants) != 1 || opts.ExtraConstants[0] != value.Int(7) {
		t.Fatalf("caller's ExtraConstants mutated: %v", opts.ExtraConstants)
	}
	probe := backing[:cap(backing)]
	for i := 1; i < len(probe); i++ {
		if probe[i] != (value.Value{}) {
			t.Fatalf("spare capacity of caller's slice written at %d: %v", i, probe[i])
		}
	}

	// Reusing the same Options for a second query must not see q1's
	// constants: the enumeration domain for q2 contains qconst2 but not
	// qconst1, so the certain answer for a σ[#1=qconst1] query is empty
	// while σ[#1=qconst2] keeps its counterexample world.
	q2 := ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Attr("#1"), ra.LitString("qconst2"))}
	certain2, err := ev.BoolCertainCWA(q2, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if certain2 {
		t.Fatal("q2 should not be certainly true")
	}
	if len(opts.ExtraConstants) != 1 || opts.ExtraConstants[0] != value.Int(7) {
		t.Fatalf("second call mutated ExtraConstants: %v", opts.ExtraConstants)
	}
}

// TestMaxWorldsTripsOnSaturatedCount pins the overflow guard end to end: a
// many-null instance whose world count saturates at math.MaxInt must still
// trip MaxWorlds instead of wrapping to a small (or negative) count.
func TestMaxWorldsTripsOnSaturatedCount(t *testing.T) {
	ev := NewEvaluator(true)
	s := schema.MustNew(schema.WithArity("R", 2))
	d := table.NewDatabase(s)
	for i := 0; i < 48; i++ {
		d.MustAdd("R", table.NewTuple(value.Int(int64(i%24)), value.Null(uint64(i+1))))
	}
	opts := Options{MaxWorlds: math.MaxInt - 1}
	if _, err := ev.ByWorldsCWA(ra.Base("R"), d, opts); err != ErrTooManyWorlds {
		t.Fatalf("ByWorldsCWA error = %v, want ErrTooManyWorlds", err)
	}
	if _, err := ev.CertainObjectCWA(ra.Base("R"), d, opts); err != ErrTooManyWorlds {
		t.Fatalf("CertainObjectCWA error = %v, want ErrTooManyWorlds", err)
	}
	if _, err := ev.BoolCertainCWA(ra.Base("R"), d, opts); err != ErrTooManyWorlds {
		t.Fatalf("BoolCertainCWA error = %v, want ErrTooManyWorlds", err)
	}
}
