package table

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"incdata/internal/value"
)

// edgeValues are the corners of value.Compare: integers and null ids at
// ±2^63 (a null id at or above 2^63 compares as a negative int64), and
// strings that share eight-byte prefixes, end in or consist of NUL bytes,
// or are empty.
var edgeValues = []value.Value{
	value.Int(math.MinInt64), value.Int(math.MinInt64 + 1), value.Int(math.MinInt64 + 4),
	value.Int(-5), value.Int(-1), value.Int(0), value.Int(1), value.Int(2), value.Int(3), value.Int(4),
	value.Int(math.MaxInt64 - 4), value.Int(math.MaxInt64 - 1), value.Int(math.MaxInt64),
	value.Null(0), value.Null(1), value.Null(2), value.Null(5),
	value.Null(1<<63 - 1), value.Null(1 << 63), value.Null(1<<63 + 1), value.Null(math.MaxUint64),
	value.String(""), value.String("\x00"), value.String("\x00\x00"), value.String("\x00a"),
	value.String("a"), value.String("a\x00"), value.String("a\x00\x00"), value.String("ab"),
	value.String("abcdefgh"), value.String("abcdefgh\x00"), value.String("abcdefghi"),
	value.String("abcdefgi"), value.String("abcdefgg\xff\xff"), value.String("abcdefgh\xff"),
	value.String("\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
}

// TestSortKeyMonotone pins the one property the radix sort rests on:
// whenever value.Compare orders a before b, a's key does not exceed b's —
// tagged keys across kinds, untagged keys within one kind, and string keys
// after a prefix every string shares.
func TestSortKeyMonotone(t *testing.T) {
	check := func(a, b value.Value, skip int, tagged bool) {
		t.Helper()
		if value.Compare(a, b) < 0 && sortKey(a, skip, tagged) > sortKey(b, skip, tagged) {
			t.Errorf("%q < %q but key %#x > %#x (skip %d, tagged %v)", a, b,
				sortKey(a, skip, tagged), sortKey(b, skip, tagged), skip, tagged)
		}
	}
	for _, a := range edgeValues {
		for _, b := range edgeValues {
			check(a, b, 0, true)
			if a.Kind() == b.Kind() {
				check(a, b, 0, false)
			}
		}
	}
	var shared []value.Value
	for _, v := range edgeValues {
		if s, ok := v.AsString(); ok {
			shared = append(shared, value.String("common/"+s))
		}
	}
	for _, a := range shared {
		for _, b := range shared {
			check(a, b, len("common/"), false)
			check(a, b, len("common/"), true)
		}
	}
}

// randomFirst draws a first-column value of the given shape.
func randomFirst(rng *rand.Rand, shape int) value.Value {
	switch shape {
	case 0: // mixed kinds, edges included
		if rng.Intn(4) == 0 {
			return edgeValues[rng.Intn(len(edgeValues))]
		}
		switch rng.Intn(3) {
		case 0:
			return value.Int(rng.Int63n(200) - 100)
		case 1:
			return value.Null(uint64(rng.Intn(50)))
		}
		return value.String(fmt.Sprint("s", rng.Intn(100)))
	case 1: // all ties
		return value.String("same")
	case 2: // strings sharing a long prefix, some with NUL bytes
		return value.String("order-number-" + strings.Repeat("\x00", rng.Intn(2)) + fmt.Sprint(rng.Intn(1000)))
	case 3: // small integers: keys differ only in their low bits
		return value.Int(int64(rng.Intn(8)))
	}
	return value.Null(rng.Uint64())
}

// TestSortTuplesMatchesCompare pins SortedTuples and Tuples to a comparison
// sort by Tuple.Compare on random relations of arity 0–3, on both sides of
// radixMin, including first columns that are one value throughout.
func TestSortTuplesMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		arity := iter % 4
		shape := (iter / 4) % 5
		size := rng.Intn(4 * radixMin)
		r := NewRelationArity("R", arity)
		for i := 0; i < size; i++ {
			tu := make(Tuple, arity)
			for j := range tu {
				if j == 0 {
					tu[j] = randomFirst(rng, shape)
				} else {
					tu[j] = randomFirst(rng, 0)
				}
			}
			r.MustAdd(tu)
		}
		var want []Tuple
		r.Each(func(tu Tuple) bool {
			want = append(want, tu)
			return true
		})
		slices.SortFunc(want, Tuple.Compare)
		for name, got := range map[string][]Tuple{"SortedTuples": r.SortedTuples(), "Tuples": r.Tuples()} {
			if !slices.EqualFunc(got, want, Tuple.Equal) {
				t.Fatalf("iter %d (arity %d, shape %d, %d tuples): %s out of canonical order", iter, arity, shape, len(want), name)
			}
		}
	}
}

// TestSortTuplesMixedArities sorts a slice holding tuples of several
// arities, the empty tuple among them: shorter tuples precede the longer
// ones they prefix, whatever their keys.
func TestSortTuplesMixedArities(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ts := []Tuple{{}}
	for i := 0; i < 3*radixMin; i++ {
		tu := make(Tuple, rng.Intn(3))
		for j := range tu {
			tu[j] = randomFirst(rng, i%4)
		}
		ts = append(ts, tu)
	}
	want := slices.Clone(ts)
	slices.SortStableFunc(want, Tuple.Compare)
	SortTuples(ts)
	for i := range ts {
		if ts[i].Compare(want[i]) != 0 {
			t.Fatalf("position %d: %v, want %v", i, ts[i], want[i])
		}
	}
}
