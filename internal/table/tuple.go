// Package table implements the data model of incomplete relational
// databases from Section 2 of the paper: naïve tables (relations over
// Const ∪ Null in which a marked null may occur several times), Codd tables
// (each null occurs at most once), and databases assigning such relations to
// schema names.
//
// Relations use set semantics: duplicates are eliminated, and the tuple
// order exposed by accessors is the canonical (sorted) order, so that two
// relations with the same tuples compare equal.
package table

import (
	"fmt"
	"strings"

	"incdata/internal/value"
)

// Tuple is an ordered list of values (constants and/or nulls).
type Tuple []value.Value

// NewTuple builds a tuple from values.
func NewTuple(vs ...value.Value) Tuple {
	t := make(Tuple, len(vs))
	copy(t, vs)
	return t
}

// ParseTuple builds a tuple by parsing each textual field with value.Parse.
func ParseTuple(fields ...string) (Tuple, error) {
	t := make(Tuple, len(fields))
	for i, f := range fields {
		v, err := value.Parse(f)
		if err != nil {
			return nil, fmt.Errorf("table: field %d: %w", i, err)
		}
		t[i] = v
	}
	return t, nil
}

// MustParseTuple is ParseTuple that panics on error.
func MustParseTuple(fields ...string) Tuple {
	t, err := ParseTuple(fields...)
	if err != nil {
		panic(err)
	}
	return t
}

// Arity returns the number of fields.
func (t Tuple) Arity() int { return len(t) }

// Equal reports field-wise equality (marked-null identity for nulls).
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically using value.Compare; shorter
// tuples precede longer ones that share a prefix.
func (t Tuple) Compare(o Tuple) int {
	n := len(t)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		if c := value.Compare(t[i], o[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(o):
		return -1
	case len(t) > len(o):
		return 1
	default:
		return 0
	}
}

// Less reports whether t precedes o in the canonical order.
func (t Tuple) Less(o Tuple) bool { return t.Compare(o) < 0 }

// IsComplete reports whether the tuple contains no nulls.
func (t Tuple) IsComplete() bool {
	for _, v := range t {
		if v.IsNull() {
			return false
		}
	}
	return true
}

// HasNull reports whether the tuple contains at least one null.
func (t Tuple) HasNull() bool { return !t.IsComplete() }

// Nulls returns the set of nulls occurring in the tuple.
func (t Tuple) Nulls() map[value.Value]bool {
	out := map[value.Value]bool{}
	for _, v := range t {
		if v.IsNull() {
			out[v] = true
		}
	}
	return out
}

// Consts returns the set of constants occurring in the tuple.
func (t Tuple) Consts() map[value.Value]bool {
	out := map[value.Value]bool{}
	for _, v := range t {
		if v.IsConst() {
			out[v] = true
		}
	}
	return out
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Project returns the tuple restricted to the given positions (0-based).
// It panics if a position is out of range.
func (t Tuple) Project(positions ...int) Tuple {
	out := make(Tuple, len(positions))
	for i, p := range positions {
		out[i] = t[p]
	}
	return out
}

// Concat returns the concatenation of t and o.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// Map applies f to every field and returns the resulting tuple.
func (t Tuple) Map(f func(value.Value) value.Value) Tuple {
	out := make(Tuple, len(t))
	for i, v := range t {
		out[i] = f(v)
	}
	return out
}

// keyBufSize is the size of the stack scratch buffers used for tuple keys;
// keys longer than this spill to the heap but stay correct.
const keyBufSize = 96

// AppendKey appends the tuple's canonical binary key to dst and returns the
// extended slice.  Each field's encoding is self-delimiting (length-prefixed
// strings, varint integers), so distinct tuples — including tuples of
// different arities sharing a prefix — have distinct keys.  Hot paths append
// into a reusable scratch buffer and convert to string only at map inserts.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendKey(dst)
	}
	return dst
}

// Key returns a canonical string encoding of the tuple suitable for use as a
// map key.  Distinct tuples have distinct keys.
func (t Tuple) Key() string {
	var buf [keyBufSize]byte
	return string(t.AppendKey(buf[:0]))
}

// DecodeTuple decodes one tuple of the given arity from the front of a key
// encoding produced by AppendKey, returning it and the remaining bytes.
// The key format is self-delimiting per value, so concatenated tuple keys
// (the durable store's chunk payloads) decode unambiguously.  Corrupt input returns an error, never a panic.
func DecodeTuple(b []byte, arity int) (Tuple, []byte, error) {
	t := make(Tuple, arity)
	var err error
	for i := 0; i < arity; i++ {
		t[i], b, err = value.DecodeKey(b)
		if err != nil {
			return nil, nil, fmt.Errorf("table: decode tuple field %d: %w", i, err)
		}
	}
	return t, b, nil
}

// mapChanged applies f to every field.  When f fixes every field it returns
// the original tuple and false without allocating; otherwise it returns a
// fresh mapped tuple and true.
func (t Tuple) mapChanged(f func(value.Value) value.Value) (Tuple, bool) {
	for i, v := range t {
		nv := f(v)
		if nv == v {
			continue
		}
		out := make(Tuple, len(t))
		copy(out, t[:i])
		out[i] = nv
		for j := i + 1; j < len(t); j++ {
			out[j] = f(t[j])
		}
		return out, true
	}
	return t, false
}

// String renders the tuple as (v1, v2, ..., vk).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
