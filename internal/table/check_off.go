//go:build !tablecheck

package table

// tablecheck is false in ordinary builds: Relation.checkWritable compiles
// to nothing.
const tablecheck = false

// rowKeys keeps nothing in ordinary builds: AddNew trusts its caller.
type rowKeys struct{}

func (*rowKeys) add(Tuple) bool { return true }

func (rowKeys) clone() rowKeys { return rowKeys{} }
