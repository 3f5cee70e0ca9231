//go:build !tablecheck

package table

// tablecheck is false in ordinary builds: Relation.checkWritable compiles
// to nothing.
const tablecheck = false
