package table

import (
	"testing"

	"incdata/internal/schema"
	"incdata/internal/value"
)

// TestPartitionBucketsDisjointAndComplete checks that keyed and round-robin
// splits cover every tuple exactly once, and that a keyed split puts equal
// keys in one bucket.
func TestPartitionBucketsDisjointAndComplete(t *testing.T) {
	r := NewRelation(schema.NewRelation("R", "a", "b"))
	for i := 0; i < 300; i++ {
		r.MustAdd(NewTuple(value.Int(int64(i)), value.Int(int64(i%13))))
	}
	for _, positions := range [][]int{nil, {1}, {0, 1}} {
		buckets := r.Partition(positions, 7)
		if len(buckets) != 7 {
			t.Fatalf("%d buckets, want 7", len(buckets))
		}
		seen := map[string]int{}
		keyBucket := map[string]int{}
		total := 0
		for i, bucket := range buckets {
			for _, tp := range bucket {
				seen[tp.Key()]++
				total++
				if positions == nil {
					continue
				}
				key := tp.Project(positions...).Key()
				if j, ok := keyBucket[key]; ok && j != i {
					t.Fatalf("positions %v: key %q in buckets %d and %d", positions, key, j, i)
				}
				keyBucket[key] = i
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
