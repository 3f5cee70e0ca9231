package table

// Keyed batch insertion.  The gather paths of internal/plan know each output
// row's binary key before they decide whether to materialize the row as a
// tuple at all, and the coded one knows beforehand which rows are new and
// how many there are; Inserter lets them probe and insert with that
// knowledge, so duplicate rows are dropped without ever allocating a tuple,
// a new row costs one map probe, and the sharing check and version bump
// happen once per batch instead of once per row (the same amortization
// AddBatch provides for row batches).

// Inserter performs amortized keyed inserts into a relation.  It is
// obtained from BeginInsert and must be used exclusively: no other
// mutation, share, or snapshot of the relation may happen between
// BeginInsert and the last call, and an Inserter must not be used from
// multiple goroutines.
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

// Reserve tells an empty relation that n tuples are about to be inserted, so
// that its map is made once at its final size instead of doubling its way
// there; a relation that already holds tuples is left as it is.
func (in Inserter) Reserve(n int) {
	r := in.r
	if r.n == 0 && len(r.segs) == 1 && r.segs[0].gen == r.gen {
		r.segs[0].m = make(map[string]Tuple, n)
	}
}

// Has reports whether a tuple with the given precomputed key is already
// stored.  The key is never retained.
func (in Inserter) Has(key []byte) bool {
	_, ok := in.r.lookup(key)
	return ok
}

// AddNew inserts t under its key (which must equal t.Key()), which the caller
// knows to be absent: Has said so, or the caller holds the only source of
// the relation's tuples and has deduplicated it.  The relation keeps the key
// string, so a caller inserting many tuples can cut their keys from one.
// Inserting a key that is present would count it twice; under the tablecheck
// build tag it panics.
func (in Inserter) AddNew(key string, t Tuple) {
	r := in.r
	w := r.writable(r.segOfString(key))
	if tablecheck {
		if _, ok := w.m[key]; ok {
			panic("table: AddNew of a key already stored in " + r.schema.Name)
		}
	}
	w.m[key] = t
	r.n++
	r.noteInsert(key, t)
}
