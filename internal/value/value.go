// Package value defines the atomic values that populate incomplete
// databases: constants drawn from a countably infinite set Const and
// (marked) nulls drawn from a countably infinite set Null.
//
// The model follows Section 2 of Libkin, "Incomplete Data: What Went
// Wrong, and How to Fix It" (PODS 2014): database entries are elements of
// Const ∪ Null, a null ⊥i may occur several times (naïve nulls), and a
// valuation maps nulls to constants.  Constants are typed (integers and
// strings) purely for convenience of workload generation and CSV I/O; the
// theory never depends on the type of a constant.
package value

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Kind discriminates the variants of a Value.
type Kind uint8

const (
	// KindNull marks a labelled (naïve/marked) null ⊥i.
	KindNull Kind = iota
	// KindInt marks an integer constant.
	KindInt
	// KindString marks a string constant.
	KindString
)

// String returns a human-readable name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single database entry: either a constant (int or string) or a
// marked null.  The zero Value is the null ⊥0.
//
// Value is a small comparable struct; it can be used as a map key and
// compared with ==.  Two nulls are equal iff they carry the same id, which
// is exactly the semantics of marked (naïve) nulls.
type Value struct {
	kind Kind
	i    int64  // integer payload or null id
	s    string // string payload
}

// Int returns an integer constant.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// String returns a string constant.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Null returns the marked null with the given id (⊥id).
func Null(id uint64) Value { return Value{kind: KindNull, i: int64(id)} }

// nullCounter backs FreshNull.
var nullCounter atomic.Uint64

// FreshNull returns a marked null with an id that has not been returned by
// FreshNull before in this process.  It is safe for concurrent use.
func FreshNull() Value { return Null(nullCounter.Add(1)) }

// ResetFreshNulls resets the fresh-null counter.  Only tests and the
// benchmark harness should call it, to obtain reproducible null ids.
func ResetFreshNulls() { nullCounter.Store(0) }

// EnsureFreshNullsAfter raises the fresh-null counter to at least id, so
// every later FreshNull returns an id strictly above it.  The durable
// store calls it when opening a database whose persisted state mentions
// null ids this process has not issued — without it a later FreshNull
// could collide with a stored marked null and silently alias two
// unrelated unknowns.  It is safe for concurrent use.
func EnsureFreshNullsAfter(id uint64) {
	for {
		cur := nullCounter.Load()
		if cur >= id || nullCounter.CompareAndSwap(cur, id) {
			return
		}
	}
}

// Kind reports the variant of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is a null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsConst reports whether v is a constant.
func (v Value) IsConst() bool { return v.kind != KindNull }

// NullID returns the id of a null value; it panics when v is a constant.
func (v Value) NullID() uint64 {
	if v.kind != KindNull {
		panic("value: NullID called on a constant")
	}
	return uint64(v.i)
}

// AsInt returns the integer payload and whether v is an integer constant.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return v.i, true
}

// AsString returns the string payload and whether v is a string constant.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.s, true
}

// AppendKey appends a compact self-delimiting binary encoding of v to dst
// and returns the extended slice.  Distinct values have distinct encodings,
// and because string payloads are length-prefixed, the concatenation of
// several encodings decodes unambiguously — unlike separator-based schemes,
// a payload can never be confused with an encoding boundary.
func (v Value) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	if v.kind == KindString {
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	}
	// KindNull and KindInt both carry an integer payload.
	return binary.AppendVarint(dst, v.i)
}

// DecodeKey decodes one value from the front of a key encoding produced
// by AppendKey and returns it together with the remaining bytes.  It is
// the inverse of AppendKey: the durable chunk store persists tuples in
// exactly the key format, so the encoding does double duty as the
// serialization format.  It never
// panics; corrupt input returns an error.
func DecodeKey(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Value{}, nil, fmt.Errorf("value: decode: empty input")
	}
	kind := Kind(b[0])
	b = b[1:]
	switch kind {
	case KindString:
		n, sz := binary.Uvarint(b)
		if sz <= 0 {
			return Value{}, nil, fmt.Errorf("value: decode: bad string length")
		}
		b = b[sz:]
		if uint64(len(b)) < n {
			return Value{}, nil, fmt.Errorf("value: decode: string payload cut short (want %d bytes, have %d)", n, len(b))
		}
		return String(string(b[:n])), b[n:], nil
	case KindNull, KindInt:
		i, sz := binary.Varint(b)
		if sz <= 0 {
			return Value{}, nil, fmt.Errorf("value: decode: bad varint payload")
		}
		return Value{kind: kind, i: i}, b[sz:], nil
	default:
		return Value{}, nil, fmt.Errorf("value: decode: unknown kind byte %d", kind)
	}
}

// String renders the value: integers as decimal literals, strings verbatim
// (quoted only if they could be confused with another literal form), and
// nulls as ⊥id.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "⊥" + strconv.FormatUint(uint64(v.i), 10)
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindString:
		if needsQuoting(v.s) {
			return strconv.Quote(v.s)
		}
		return v.s
	default:
		return fmt.Sprintf("value.Value(kind=%d)", v.kind)
	}
}

// needsQuoting reports whether a string constant must be quoted to survive a
// round trip through Parse: Parse reads the bare words NULL and null as
// fresh nulls, and an integer literal as an integer.
func needsQuoting(s string) bool {
	if s == "" || s == "NULL" || s == "null" {
		return true
	}
	if intLike(s) {
		// ParseInt is asked only here: its error for any other string
		// would cost every rendering three allocations.
		if _, err := strconv.ParseInt(s, 10, 64); err == nil {
			return true
		}
	}
	if strings.HasPrefix(s, "⊥") || strings.HasPrefix(s, "_:") || strings.HasPrefix(s, "\"") {
		return true
	}
	for _, r := range s {
		switch r {
		case ',', '(', ')', ' ', '\t', '\n':
			return true
		}
	}
	return false
}

// intLike reports whether s has the form [+-]?[0-9]+, the only form
// strconv.ParseInt(s, 10, 64) accepts.
func intLike(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// Parse converts a textual form back into a Value. Accepted forms:
//
//	⊥7 or _:7        marked null with id 7
//	NULL, null       a fresh null (SQL-style unlabelled null)
//	-42, 17          integer constant
//	"quoted text"    string constant (Go quoting rules)
//	anything else    string constant, verbatim
func Parse(s string) (Value, error) {
	switch {
	case s == "":
		return Value{}, fmt.Errorf("value: cannot parse empty string")
	case strings.HasPrefix(s, "⊥"):
		id, err := strconv.ParseUint(strings.TrimPrefix(s, "⊥"), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad null literal %q: %w", s, err)
		}
		return Null(id), nil
	case strings.HasPrefix(s, "_:"):
		id, err := strconv.ParseUint(strings.TrimPrefix(s, "_:"), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad null literal %q: %w", s, err)
		}
		return Null(id), nil
	case s == "NULL" || s == "null":
		return FreshNull(), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i), nil
	}
	if strings.HasPrefix(s, "\"") {
		unq, err := strconv.Unquote(s)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad quoted string %q: %w", s, err)
		}
		return String(unq), nil
	}
	return String(s), nil
}

// MustParse is Parse that panics on error; it is intended for literals in
// tests and examples.
func MustParse(s string) Value {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Compare defines a total order on values used to canonicalise relations:
// nulls (by id) < integers (numerically) < strings (lexicographically).
// It returns -1, 0 or +1.
func Compare(a, b Value) int {
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull, KindInt:
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		default:
			return 0
		}
	case KindString:
		return strings.Compare(a.s, b.s)
	default:
		return 0
	}
}

// Less reports whether a precedes b in the canonical order.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// Equal reports whether two values are identical.  For constants this is
// value equality; for nulls it is identity of the mark (⊥i = ⊥i but
// ⊥i ≠ ⊥j for i ≠ j), matching the semantics of naïve tables.
func Equal(a, b Value) bool { return a == b }

// MaxNullID returns the largest null id among the given values, or 0 if
// none of them is a null.
func MaxNullID(vs ...Value) uint64 {
	var max uint64
	for _, v := range vs {
		if v.IsNull() && v.NullID() > max {
			max = v.NullID()
		}
	}
	return max
}
