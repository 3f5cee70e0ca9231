package value

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestKinds(t *testing.T) {
	cases := []struct {
		v       Value
		kind    Kind
		isNull  bool
		isConst bool
	}{
		{Int(3), KindInt, false, true},
		{Int(-7), KindInt, false, true},
		{String("abc"), KindString, false, true},
		{String(""), KindString, false, true},
		{Null(0), KindNull, true, false},
		{Null(42), KindNull, true, false},
	}
	for _, c := range cases {
		if got := c.v.Kind(); got != c.kind {
			t.Errorf("%v: Kind = %v, want %v", c.v, got, c.kind)
		}
		if got := c.v.IsNull(); got != c.isNull {
			t.Errorf("%v: IsNull = %v, want %v", c.v, got, c.isNull)
		}
		if got := c.v.IsConst(); got != c.isConst {
			t.Errorf("%v: IsConst = %v, want %v", c.v, got, c.isConst)
		}
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatalf("zero Value should be a null, got %v", v)
	}
	if v.NullID() != 0 {
		t.Fatalf("zero Value should be ⊥0, got %v", v)
	}
}

func TestNullIdentity(t *testing.T) {
	if Null(1) != Null(1) {
		t.Error("⊥1 should equal ⊥1 (marked nulls have identity)")
	}
	if Null(1) == Null(2) {
		t.Error("⊥1 should not equal ⊥2")
	}
	if Null(1) == Int(1) {
		t.Error("⊥1 should not equal constant 1")
	}
	if Int(1) == String("1") {
		t.Error("int 1 should not equal string \"1\"")
	}
}

func TestNullIDPanicsOnConstant(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NullID on a constant should panic")
		}
	}()
	_ = Int(1).NullID()
}

func TestAccessors(t *testing.T) {
	if i, ok := Int(9).AsInt(); !ok || i != 9 {
		t.Errorf("AsInt(Int(9)) = %d,%v", i, ok)
	}
	if _, ok := String("x").AsInt(); ok {
		t.Error("AsInt on string should fail")
	}
	if s, ok := String("x").AsString(); !ok || s != "x" {
		t.Errorf("AsString(String(x)) = %q,%v", s, ok)
	}
	if _, ok := Int(1).AsString(); ok {
		t.Error("AsString on int should fail")
	}
	if _, ok := Null(1).AsInt(); ok {
		t.Error("AsInt on null should fail")
	}
}

func TestFreshNullsDistinct(t *testing.T) {
	ResetFreshNulls()
	seen := map[Value]bool{}
	for i := 0; i < 1000; i++ {
		n := FreshNull()
		if !n.IsNull() {
			t.Fatal("FreshNull returned a constant")
		}
		if seen[n] {
			t.Fatalf("FreshNull returned duplicate %v", n)
		}
		seen[n] = true
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Int(-1), "-1"},
		{String("abc"), "abc"},
		{String("has space"), `"has space"`},
		{String("7"), `"7"`},
		{String(""), `""`},
		{String("NULL"), `"NULL"`},
		{String("null"), `"null"`},
		{String("+5"), `"+5"`},
		{String("-x"), "-x"},
		{Null(3), "⊥3"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// TestStringRenderingAllocs pins that rendering a string constant that
// needs no quotes allocates nothing, whatever it starts or ends with.
func TestStringRenderingAllocs(t *testing.T) {
	for _, s := range []string{"abc", "oid123", "-x", "+", "12a", "1-2", "NULLS"} {
		v := String(s)
		if got := testing.AllocsPerRun(100, func() { _ = v.String() }); got != 0 {
			t.Errorf("String(%q).String() allocates %v times, want 0", s, got)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	vals := []Value{
		Int(0), Int(12345), Int(-6),
		String("hello"), String("with space"), String("42"), String(""),
		String("NULL"), String("null"), String("+5"), String("007"),
		Null(0), Null(7), Null(123456),
	}
	for _, v := range vals {
		got, err := Parse(v.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", v.String(), err)
			continue
		}
		if got != v {
			t.Errorf("round trip %v -> %q -> %v", v, v.String(), got)
		}
	}
}

func TestParseForms(t *testing.T) {
	if v := MustParse("_:9"); v != Null(9) {
		t.Errorf("_:9 parsed as %v", v)
	}
	if v := MustParse("17"); v != Int(17) {
		t.Errorf("17 parsed as %v", v)
	}
	if v := MustParse("oid1"); v != String("oid1") {
		t.Errorf("oid1 parsed as %v", v)
	}
	if v := MustParse("NULL"); !v.IsNull() {
		t.Errorf("NULL parsed as %v", v)
	}
	if _, err := Parse(""); err == nil {
		t.Error("Parse(\"\") should fail")
	}
	if _, err := Parse("⊥x"); err == nil {
		t.Error("Parse(⊥x) should fail")
	}
	if _, err := Parse(`"unterminated`); err == nil {
		t.Error("Parse of bad quoted string should fail")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("")
}

func TestCompareTotalOrder(t *testing.T) {
	ordered := []Value{
		Null(0), Null(1), Null(9),
		Int(-3), Int(0), Int(5),
		String("a"), String("b"),
	}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
			if Less(ordered[i], ordered[j]) != (want < 0) {
				t.Errorf("Less(%v,%v) inconsistent with Compare", ordered[i], ordered[j])
			}
		}
	}
}

func TestCompareSortsDeterministically(t *testing.T) {
	vs := []Value{String("z"), Int(3), Null(2), Int(-1), String("a"), Null(0)}
	sort.Slice(vs, func(i, j int) bool { return Less(vs[i], vs[j]) })
	want := []Value{Null(0), Null(2), Int(-1), Int(3), String("a"), String("z")}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, vs[i], want[i])
		}
	}
}

func TestMaxNullID(t *testing.T) {
	if got := MaxNullID(Int(5), String("x")); got != 0 {
		t.Errorf("MaxNullID with no nulls = %d", got)
	}
	if got := MaxNullID(Null(3), Int(9), Null(11), Null(2)); got != 11 {
		t.Errorf("MaxNullID = %d, want 11", got)
	}
	if got := MaxNullID(); got != 0 {
		t.Errorf("MaxNullID() = %d, want 0", got)
	}
}

// Property: Compare is antisymmetric and transitive-ish on random ints, and
// Parse∘String is the identity for integer and null values.
func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Int(a), Int(b)
		return Compare(x, y) == -Compare(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickParseStringIdentity(t *testing.T) {
	f := func(a int64, id uint64, s string) bool {
		iv := Int(a)
		nv := Null(id)
		sv := String(s)
		p1, err1 := Parse(iv.String())
		p2, err2 := Parse(nv.String())
		p3, err3 := Parse(sv.String())
		return err1 == nil && p1 == iv &&
			err2 == nil && p2 == nv &&
			err3 == nil && p3 == sv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzValueRoundTrip holds Parse(v.String()) == v for string constants,
// integers and null ids.
func FuzzValueRoundTrip(f *testing.F) {
	for _, s := range []string{"NULL", "null", "+5", "007", "⊥1", "_:2", `"q"`, "a,b", ""} {
		f.Add(s, int64(len(s)), uint64(len(s)))
	}
	f.Fuzz(func(t *testing.T, s string, i int64, id uint64) {
		for _, v := range []Value{String(s), Int(i), Null(id)} {
			got, err := Parse(v.String())
			if err != nil || got != v {
				t.Fatalf("%#v renders as %q, which parses as %#v, %v", v, v.String(), got, err)
			}
		}
	})
}

func TestKindString(t *testing.T) {
	if KindNull.String() != "null" || KindInt.String() != "int" || KindString.String() != "string" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// unhashCode inverts HashCode(CodeHashSeed, ·) step by step: every step of
// the hash is a bijection on uint64, so each has an inverse — a multiplication
// by an odd constant is undone by multiplying with the constant's inverse
// modulo 2^64, an xor with a right shift of itself by repeating the xor until
// the shifted-out bits are restored.
func unhashCode(h uint64) uint64 {
	inv := func(c uint64) uint64 { // Newton's iteration for 1/c modulo 2^64, c odd
		x := c
		for i := 0; i < 6; i++ {
			x *= 2 - c*x
		}
		return x
	}
	h *= inv(1099511628211)
	code := h ^ CodeHashSeed
	code ^= code >> 32
	code *= inv(0xBF58476D1CE4E5B9)
	code ^= code>>29 ^ code>>58
	code *= inv(0x9E3779B97F4A7C15)
	return code
}

// TestHashCodeSingleCodeBijective pins what lets a probe of a single-column
// key trust the hash alone (table.CodeTable, CodedIndex.HashIsKey): over one
// code HashCode is a bijection, shown by an inverse that recovers every code
// from its hash — codes of every tag, the corners of the code space, a
// million dense dictionary codes and random ones — and, the other way round,
// hashes back to every hash it is given.
func TestHashCodeSingleCodeBijective(t *testing.T) {
	check := func(code uint64) {
		t.Helper()
		h := HashCode(CodeHashSeed, code)
		if back := unhashCode(h); back != code {
			t.Fatalf("code %#x hashes to %#x, which inverts to %#x", code, h, back)
		}
		if again := HashCode(CodeHashSeed, unhashCode(code)); again != code {
			t.Fatalf("%#x inverts to %#x, which hashes to %#x", code, unhashCode(code), again)
		}
	}
	for _, c := range []uint64{0, 1, 2, 1<<62 - 1, 1 << 62, 1<<63 - 1, 1 << 63, codeNullTag, ^uint64(0), ^uint64(0) - 1} {
		check(c)
	}
	for i := uint64(0); i < 1_000_000; i++ {
		check(DictCode(i))
	}
	x := uint64(0x2545F4914F6CDD1D)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		check(x)
	}
}
