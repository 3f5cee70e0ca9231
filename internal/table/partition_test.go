package table

import (
	"testing"

	"incdata/internal/schema"
	"incdata/internal/value"
)

func partitionTestRelation(n int) *Relation {
	r := NewRelation(schema.NewRelation("R", "a", "b"))
	for i := 0; i < n; i++ {
		r.MustAdd(NewTuple(value.Int(int64(i)), value.Int(int64(i%13))))
	}
	return r
}

// TestPartitionBucketsDisjointAndComplete checks that keyed and round-robin
// partitionings cover every tuple exactly once.
func TestPartitionBucketsDisjointAndComplete(t *testing.T) {
	r := partitionTestRelation(300)
	for _, positions := range [][]int{nil, {1}, {0, 1}} {
		p := r.Partition(positions, 7)
		if p.Parts() != 7 {
			t.Fatalf("Parts() = %d, want 7", p.Parts())
		}
		seen := map[string]int{}
		total := 0
		for i := 0; i < p.Parts(); i++ {
			for _, tp := range p.Bucket(i) {
				seen[tp.Key()]++
				total++
			}
		}
		if total != r.Len() {
			t.Fatalf("positions %v: buckets hold %d tuples, relation has %d", positions, total, r.Len())
		}
		for k, n := range seen {
			if n != 1 {
				t.Fatalf("positions %v: tuple %q appears in %d buckets", positions, k, n)
			}
		}
	}
}

// TestPartitionKeyAgreement checks the property hash joins rely on: equal
// key values land in the same bucket, on both sides of a join, and
// PartitionOfKey agrees with where buildPartitioning actually put tuples.
func TestPartitionKeyAgreement(t *testing.T) {
	r := partitionTestRelation(200)
	p := r.Partition([]int{1}, 5)
	for i := 0; i < p.Parts(); i++ {
		for _, tp := range p.Bucket(i) {
			key := tp[1].AppendKey(nil)
			if got := p.PartitionOfKey(key); got != i {
				t.Fatalf("tuple %s in bucket %d but PartitionOfKey says %d", tp, i, got)
			}
		}
	}
	// A partitioning of a different relation on a different position with the
	// same part count must agree bucket-for-bucket on equal values.
	s := NewRelation(schema.NewRelation("S", "b", "c"))
	for i := 0; i < 60; i++ {
		s.MustAdd(NewTuple(value.Int(int64(i%13)), value.Int(int64(i))))
	}
	ps := s.Partition([]int{0}, 5)
	for v := 0; v < 13; v++ {
		key := value.Int(int64(v)).AppendKey(nil)
		if p.PartitionOfKey(key) != ps.PartitionOfKey(key) {
			t.Fatalf("value %d maps to different buckets on the two sides", v)
		}
	}
}

// TestPartitionIndexes checks the lazily built per-bucket indexes find
// exactly the bucket's tuples, and that round-robin partitionings refuse to
// build one.
func TestPartitionIndexes(t *testing.T) {
	r := partitionTestRelation(150)
	p := r.Partition([]int{1}, 4)
	for i := 0; i < p.Parts(); i++ {
		ix := p.Index(i)
		if again := p.Index(i); again != ix {
			t.Fatalf("bucket %d index not cached", i)
		}
		if ix.Len() != len(p.Bucket(i)) {
			t.Fatalf("bucket %d index has %d entries, bucket has %d", i, ix.Len(), len(p.Bucket(i)))
		}
		for _, tp := range p.Bucket(i) {
			key := tp[1].AppendKey(nil)
			found := false
			for sh, e := ix.Lookup(key); e != 0; {
				var cand Tuple
				cand, e = sh.At(e)
				if cand.Key() == tp.Key() {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("bucket %d index misses tuple %s", i, tp)
			}
		}
	}

	rr := r.Partition(nil, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Index on round-robin partitioning did not panic")
		}
	}()
	rr.Index(0)
}

// TestPartitionCacheIdentityAndInvalidation checks that Partition caches per
// (positions, parts) shape and that any mutation drops the cache.
func TestPartitionCacheIdentityAndInvalidation(t *testing.T) {
	r := partitionTestRelation(50)
	p1 := r.Partition([]int{1}, 4)
	if p2 := r.Partition([]int{1}, 4); p2 != p1 {
		t.Fatal("same-shape Partition not cached")
	}
	if p3 := r.Partition([]int{1}, 8); p3 == p1 {
		t.Fatal("different part count must build a new partitioning")
	}
	if p4 := r.Partition([]int{0}, 4); p4 == p1 {
		t.Fatal("different positions must build a new partitioning")
	}
	if p5 := r.Partition(nil, 4); p5 == p1 {
		t.Fatal("round-robin must not alias a keyed partitioning")
	}

	r.MustAdd(NewTuple(value.Int(999), value.Int(999)))
	p6 := r.Partition([]int{1}, 4)
	if p6 == p1 {
		t.Fatal("mutation did not invalidate cached partitioning")
	}
	total := 0
	for i := 0; i < p6.Parts(); i++ {
		total += len(p6.Bucket(i))
	}
	if total != r.Len() {
		t.Fatalf("rebuilt partitioning holds %d tuples, relation has %d", total, r.Len())
	}

	r.Remove(NewTuple(value.Int(999), value.Int(999)))
	if p7 := r.Partition([]int{1}, 4); p7 == p6 {
		t.Fatal("removal did not invalidate cached partitioning")
	}
}

// TestPartitionSnapshotIndependence checks that a copy-on-write snapshot
// keeps its own derived caches: mutating the original after a snapshot must
// not disturb partitionings taken from the snapshot's state.
func TestPartitionSnapshotIndependence(t *testing.T) {
	d := NewDatabase(schema.MustNew(schema.NewRelation("R", "a", "b")))
	for i := 0; i < 40; i++ {
		d.MustAdd("R", NewTuple(value.Int(int64(i)), value.Int(int64(i%5))))
	}
	snap := d.Snapshot()
	p := snap.Relation("R").Partition([]int{1}, 3)
	before := 0
	for i := 0; i < p.Parts(); i++ {
		before += len(p.Bucket(i))
	}
	d.MustAdd("R", NewTuple(value.Int(1000), value.Int(1000)))
	after := 0
	for i := 0; i < p.Parts(); i++ {
		after += len(p.Bucket(i))
	}
	if before != after || after != snap.Relation("R").Len() {
		t.Fatalf("snapshot partitioning changed under writer: before %d after %d snap %d",
			before, after, snap.Relation("R").Len())
	}
}
