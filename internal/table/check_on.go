//go:build tablecheck

package table

// tablecheck is true under -tags tablecheck: mutating a header made by
// Database.Snapshot panics (Relation.checkWritable).
const tablecheck = true
