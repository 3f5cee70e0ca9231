package table

// Keyed batch insertion.  The columnar gather path (internal/plan)
// computes each output row's binary key column-wise before it decides
// whether to materialize the row as a tuple at all; Inserter lets it
// probe and insert with that precomputed key so duplicate rows are
// dropped without ever allocating a tuple, and the sharing check and
// version bump happen once per batch instead of once per row (the same
// amortization AddBatch provides for row batches).

// Inserter performs amortized keyed inserts into a relation.  It is
// obtained from BeginInsert and must be used exclusively: no other
// mutation, share, or snapshot of the relation may happen between
// BeginInsert and the last Add/Has call, and an Inserter must not be
// used from multiple goroutines.
type Inserter struct {
	r *Relation
}

// BeginInsert prepares the relation for a batch of keyed inserts,
// performing the sharing check, version bump, and derived-cache
// invalidation once for the whole batch.
func (r *Relation) BeginInsert() Inserter {
	r.mutable()
	return Inserter{r: r}
}

// Has reports whether a tuple with the given precomputed key is already
// stored.  The key is never retained.
func (in Inserter) Has(key []byte) bool {
	_, ok := in.r.lookup(key)
	return ok
}

// Add inserts t under its precomputed key (which must equal
// t.AppendKey(nil)); it is a no-op when the key is already present.  The
// key bytes are copied into the interned map key, never retained.
func (in Inserter) Add(key []byte, t Tuple) {
	in.r.insertBytes(key, t)
}
