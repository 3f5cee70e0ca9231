package table

// Batch insertion.  The gather paths of internal/plan know beforehand which
// rows are new and how many there are; Inserter lets them insert with that
// knowledge, so a new row costs one hash and one slot (into a reserved
// relation, one row header and no hash), and the sharing check and version
// bump happen once per batch instead of once per row (the same amortization
// AddBatch provides for row batches).

// Inserter performs amortized inserts into a relation.  It is obtained from
// BeginInsert and must be used exclusively: no other mutation, share, or
// snapshot of the relation may happen between BeginInsert and the last
// call, and an Inserter must not be used from multiple goroutines.
type Inserter struct {
	r *Relation
}

// BeginInsert prepares the relation for a batch of inserts, performing the
// sharing check, version bump, and derived-cache invalidation once for the
// whole batch.
func (r *Relation) BeginInsert() Inserter {
	r.mutable()
	return Inserter{r: r}
}

// Reserve tells an empty relation that n tuples are about to be inserted, so
// that its rows are made once at their final size instead of doubling their
// way there; a relation that already holds tuples is left as it is.  The
// segment is deferred (see segment.go): AddNew appends rows and hashes
// none, and the table is built by the first keyed access, if any comes.
func (in Inserter) Reserve(n int) {
	r := in.r
	if r.n == 0 && len(r.segs) == 1 && r.segs[0].gen == r.gen {
		r.segs[0] = newDeferredSegment(n, r.gen)
	}
}

// Add inserts t unless the relation holds an equal tuple, and reports
// whether it did.  The relation adopts t when it does.
func (in Inserter) Add(t Tuple) bool {
	return in.r.insert(tupleHash(t), t)
}

// AddNew inserts t, which the caller knows to be absent: the caller holds
// the only source of the relation's tuples and has deduplicated it, or
// Contains said so.  No stored row is looked at, and into a deferred
// segment nothing is hashed.  Inserting a tuple that is present would count
// it twice; under the tablecheck build tag it panics.
func (in Inserter) AddNew(t Tuple) {
	r := in.r
	if len(r.segs) == 1 {
		if s := r.writable(0); s.deferred.Load() {
			s.appendNew(t, r.schema.Name)
			r.n++
			r.noteInsert(t)
			return
		}
	}
	h := tupleHash(t)
	i := r.segOf(h)
	if tablecheck && r.has(h, t) {
		panic("table: AddNew of a tuple already stored in " + r.schema.Name)
	}
	r.writable(i).putNew(h, t)
	r.n++
	r.noteInsert(t)
}
