package table

// Hash partitioning of relations.  A Partitioning splits the tuples of a
// relation into a fixed number of disjoint buckets — by the FNV-1a hash of
// the binary key of a list of column positions (the join-key case), or
// round-robin when no positions are given (plain scan morsels).  Matching
// join keys always hash to the same bucket, so a hash join whose build and
// probe sides are partitioned on their respective key columns decomposes
// into per-partition joins with no cross-partition probes: bucket i of the
// probe side only ever matches bucket i of the build side.
//
// Partitionings are built lazily by Relation.Partition and cached on the
// relation like hash indexes: any mutation drops them, and because
// relations are immutable while being evaluated (stamp-validated plan
// caches retain stable relations unchanged), a cached partitioning —
// including its lazily built per-partition indexes — survives for as long
// as plans keep evaluating over the same segments.  Unlike an index or an
// encoding it is never brought up to date for a later state of the
// relation: a header whose segments differ rebuilds it in full.

import (
	"sync/atomic"
)

// Partitioning is an immutable split of a relation's tuples into disjoint
// buckets, with a lazily built hash index per bucket.
type Partitioning struct {
	positions []int      // nil: round-robin morsel split, no key semantics
	segs      []*segment // the segments partitioned
	parts     int
	buckets   [][]Tuple
	indexes   []atomic.Pointer[Index]       // per-bucket, built on first use
	coded     []atomic.Pointer[codedBucket] // per-bucket coded indexes (see encode.go)
}

// Parts returns the number of buckets.
func (p *Partitioning) Parts() int { return p.parts }

// Positions returns the column positions the partitioning hashes on; nil
// for a round-robin morsel split.
func (p *Partitioning) Positions() []int { return p.positions }

// Bucket returns the tuples of bucket i.  The slice and its tuples are
// shared with the partitioning and must not be mutated.
func (p *Partitioning) Bucket(i int) []Tuple { return p.buckets[i] }

// Index returns the hash index of bucket i over the partitioning's
// positions, building it on first use.  Concurrent callers are safe.  It
// panics on a round-robin partitioning, which has no key columns.
func (p *Partitioning) Index(i int) *Index {
	if p.positions == nil {
		panic("table: Index on a round-robin partitioning")
	}
	if ix := p.indexes[i].Load(); ix != nil {
		return ix
	}
	ix := newIndexFromTuples(p.positions, p.buckets[i])
	if p.indexes[i].CompareAndSwap(nil, ix) {
		return ix
	}
	return p.indexes[i].Load()
}

// PartitionOfKey returns the bucket a tuple with the given binary key (as
// built by appending the partition positions' value keys) lands in.
func (p *Partitioning) PartitionOfKey(key []byte) int {
	return int(hashKey(key) % uint64(p.parts))
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

// Partition returns a partitioning of the relation into parts buckets over
// the given column positions (nil positions split round-robin), building it
// on first use and caching it on the relation.  Concurrent callers are
// safe as long as the relation is not being mutated; any mutation drops
// the cache, exactly like Index's.  The positions slice is copied.
func (r *Relation) Partition(positions []int, parts int) *Partitioning {
	if parts < 1 {
		parts = 1
	}
	r.ensure()
	for {
		set := r.partitions.Load()
		cur, at := findSidecar(set, func(p *Partitioning) bool {
			return p.parts == parts && samePositions(p.positions, positions)
		})
		if cur != nil && sameSegs(cur.segs, r.segs) {
			return cur
		}
		p := r.buildPartitioning(positions, parts)
		if r.partitions.CompareAndSwap(set, withSidecar(set, at, p)) {
			return p
		}
		// Lost a race with another builder; retry (and likely adopt theirs).
	}
}

func (r *Relation) buildPartitioning(positions []int, parts int) *Partitioning {
	p := &Partitioning{
		parts:   parts,
		buckets: make([][]Tuple, parts),
		indexes: make([]atomic.Pointer[Index], parts),
		coded:   make([]atomic.Pointer[codedBucket], parts),
	}
	if positions != nil {
		p.positions = append([]int(nil), positions...)
	}
	p.segs = r.segs
	sizeHint := r.n/parts + 1
	var buf [keyBufSize]byte
	i := -1
	for _, s := range r.segs {
		for _, t := range s.rows {
			if positions == nil {
				// Round-robin morsels: assignment is arbitrary (consumers
				// always merge every bucket under set semantics), so
				// spread evenly.
				i = (i + 1) % parts
			} else {
				i = p.PartitionOfKey(appendProjectedKey(buf[:0], t, positions))
			}
			if p.buckets[i] == nil {
				p.buckets[i] = make([]Tuple, 0, sizeHint)
			}
			p.buckets[i] = append(p.buckets[i], t)
		}
	}
	return p
}

// newIndexFromTuples builds a single-shard hash index over a tuple slice.
func newIndexFromTuples(positions []int, ts []Tuple) *Index {
	ix := newIndex(positions, nil, 1, len(ts))
	var buf [keyBufSize]byte
	for _, t := range ts {
		ix.shards[0].add(appendProjectedKey(buf[:0], t, positions), t)
	}
	ix.seal()
	return ix
}
