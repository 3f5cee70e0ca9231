package table

import (
	"slices"

	"incdata/internal/value"
)

// Canonical order is Tuple.Compare.  SortTuples computes it with a
// least-significant-digit radix sort over a 64-bit prefix of each tuple's
// first value (sortKey), which is monotone in value.Compare: a key that
// differs decides the order, and Tuple.Compare runs only inside runs of
// equal keys.  A scan reply, a checkpoint and Relation.String all order
// thousands of tuples this way; at about 30 ns a comparison, a comparison
// sort of them costs more than the query that produced the tuples.

// radixMin is the length below which SortTuples leaves the slice to a
// comparison sort: under it, clearing eight digit histograms costs more
// than the comparisons save.
const radixMin = 64

// keyed is one tuple's sort key and its position in the input.
type keyed struct {
	key uint64
	i   uint32
}

// keyedPool recycles the key arrays; they hold no pointers, so a pooled
// one pins no tuples.
var keyedPool ClassPool[keyed]

// SortTuples sorts ts in place into canonical order (Tuple.Compare).
func SortTuples(ts []Tuple) {
	n := len(ts)
	if n < radixMin {
		slices.SortFunc(ts, Tuple.Compare)
		return
	}
	skip, tagged := keyShape(ts)
	box := keyedPool.Get(2 * n)
	a, b := (*box)[:n], (*box)[n:2*n]
	var counts [8][256]uint32
	for i, t := range ts {
		var k uint64 // an empty tuple precedes every other
		if len(t) > 0 {
			k = sortKey(t[0], skip, tagged)
		}
		a[i] = keyed{k, uint32(i)}
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if c[byte(a[0].key>>(8*d))] == uint32(n) {
			continue // every key has this digit
		}
		var sum uint32
		for j, m := range c {
			c[j], sum = sum, sum+m
		}
		for _, e := range a {
			dg := byte(e.key >> (8 * d))
			b[c[dg]] = e
			c[dg]++
		}
		a, b = b, a
	}
	// Move ts[a[j].i] to ts[j] cycle by cycle, in place; a placed entry's
	// index is set to its own position.
	for j := range a {
		if int(a[j].i) == j {
			continue
		}
		first, k := ts[j], j
		for {
			src := int(a[k].i)
			a[k].i = uint32(k)
			if src == j {
				ts[k] = first
				break
			}
			ts[k], k = ts[src], src
		}
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && a[hi].key == a[lo].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(ts[lo:hi], Tuple.Compare)
		}
		lo = hi
	}
	keyedPool.Put(box)
}

// keyShape reports how the first values of ts are keyed: past the prefix
// every string among them shares, since it orders nothing, and tagged with
// their kind when they are of more than one.
func keyShape(ts []Tuple) (skip int, tagged bool) {
	var kinds uint8
	var first string
	seen := false
	for _, t := range ts {
		if len(t) == 0 {
			continue
		}
		kinds |= 1 << t[0].Kind()
		s, ok := t[0].AsString()
		if !ok {
			continue
		}
		if !seen {
			first, skip, seen = s, len(s), true
			continue
		}
		n := min(skip, len(s))
		skip = 0
		for skip < n && s[skip] == first[skip] {
			skip++
		}
	}
	return skip, kinds&(kinds-1) != 0
}

// sortKey returns a 64-bit prefix of v that is monotone in value.Compare:
// Compare(a, b) < 0 implies sortKey(a) ≤ sortKey(b) for two values keyed
// alike.  The payload is the integer or null id with its sign bit flipped,
// or the first eight bytes of the string after skip, zero-padded; skip must
// not exceed any string keyed alike.  A tagged key puts the kind in the top
// two bits, above the payload's top 62; an untagged key is the payload and
// orders values of one kind.
func sortKey(v value.Value, skip int, tagged bool) uint64 {
	var p uint64
	if s, ok := v.AsString(); ok {
		s = s[skip:]
		for j := 0; j < 8; j++ {
			p <<= 8
			if j < len(s) {
				p |= uint64(s[j])
			}
		}
	} else if i, ok := v.AsInt(); ok {
		p = uint64(i) ^ 1<<63
	} else {
		p = v.NullID() ^ 1<<63 // null ids compare as int64
	}
	if tagged {
		return uint64(v.Kind())<<62 | p>>2
	}
	return p
}
