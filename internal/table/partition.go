package table

// Partition splits the relation's tuples into parts disjoint buckets: by
// the FNV-1a hash of the key of the given column positions, or round-robin
// when positions is nil.  Nothing is cached; every call rebuilds.  The
// buckets share the relation's tuples, which must not be mutated.
//
// Partition is deprecated: no evaluation path partitions relations.  It
// stays only while the benchmark harness times it, and carries no
// "Deprecated:" marker because staticcheck would report that call.
func (r *Relation) Partition(positions []int, parts int) [][]Tuple {
	parts = max(parts, 1)
	buckets := make([][]Tuple, parts)
	for i := range buckets {
		buckets[i] = make([]Tuple, 0, r.Len()/parts+1)
	}
	var buf [keyBufSize]byte
	i := -1
	r.Each(func(t Tuple) bool {
		if positions == nil {
			i = (i + 1) % parts
		} else {
			i = int(hashKey(appendProjectedKey(buf[:0], t, positions)) % uint64(parts))
		}
		buckets[i] = append(buckets[i], t)
		return true
	})
	return buckets
}

// hashKey is FNV-1a over the key bytes.
func hashKey(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
