//go:build tablecheck

package table

import "maps"

// tablecheck is true under -tags tablecheck: mutating a header made by
// Database.Snapshot panics (Relation.checkWritable), and so does an
// Inserter.AddNew of a tuple the relation holds.
const tablecheck = true

// rowKeys holds the keys of a deferred segment's rows, which AddNew appends
// with no table to find a duplicate in.
type rowKeys map[string]struct{}

// add records t's key and reports whether it was new.
func (k *rowKeys) add(t Tuple) bool {
	if *k == nil {
		*k = rowKeys{}
	}
	key := t.Key()
	if _, dup := (*k)[key]; dup {
		return false
	}
	(*k)[key] = struct{}{}
	return true
}

func (k rowKeys) clone() rowKeys { return maps.Clone(k) }
