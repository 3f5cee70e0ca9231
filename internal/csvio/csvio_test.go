package csvio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
	"incdata/internal/workload"
)

func TestReadWriteRelationRoundTrip(t *testing.T) {
	rel := table.NewRelation(schema.NewRelation("Pay", "p_id", "order", "amount"))
	rel.MustAdd(table.MustParseTuple("pid1", "⊥1", "100"))
	rel.MustAdd(table.MustParseTuple("pid2", "oid2", "250"))
	// Strings that look like an empty field, a null, a blank and an int.
	rel.MustAdd(table.NewTuple(value.String(""), value.String("NULL"), value.String(" ")))
	rel.MustAdd(table.NewTuple(value.String("7"), value.String(""), value.Int(7)))

	var buf bytes.Buffer
	if err := WriteRelation(&buf, rel); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "p_id,order,amount\n") {
		t.Errorf("missing header: %q", out)
	}
	got, err := ReadRelation(strings.NewReader(out), "Pay")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(rel) {
		t.Errorf("round trip mismatch: %v vs %v", got, rel)
	}
	if got.Schema().Attrs[1] != "order" {
		t.Error("attribute names lost")
	}
}

func TestReadRelationErrors(t *testing.T) {
	if _, err := ReadRelation(strings.NewReader(""), "R"); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadRelation(strings.NewReader("a,b\n1\n"), "R"); err == nil {
		t.Error("row with wrong field count should error")
	}
	if _, err := ReadRelation(strings.NewReader("a\n\"unterminated\n"), "R"); err == nil {
		t.Error("bad CSV should error")
	}
	// A parseable file with a bad value literal.
	if _, err := ReadRelation(strings.NewReader("a\n⊥x\n"), "R"); err == nil {
		t.Error("bad null literal should error")
	}
}

// TestNullMarkerCollision is the regression test for the duplicate-null-
// marker bug: an unlabelled NULL is assigned a fresh id by the process-wide
// counter, and when that id coincides with an explicit ⊥i elsewhere in the
// read, the two columns — which the user meant as distinct unknowns —
// silently became the SAME marked null.  Such reads must fail instead.
func TestNullMarkerCollision(t *testing.T) {
	// Explicit marker first, colliding NULL later.  After a counter reset
	// the first unlabelled NULL is assigned id 1, clashing with ⊥1.
	value.ResetFreshNulls()
	_, err := ReadRelation(strings.NewReader("a,b\n⊥1,x\nNULL,y\n"), "R")
	if err == nil {
		t.Fatal("NULL colliding with an explicit ⊥1 must be rejected")
	}
	if !strings.Contains(err.Error(), "⊥1") || !strings.Contains(err.Error(), "collid") {
		t.Errorf("collision error should name the marker, got: %v", err)
	}

	// The other order: NULL first, explicit marker after.
	value.ResetFreshNulls()
	_, err = ReadRelation(strings.NewReader("a,b\nNULL,x\n⊥1,y\n"), "R")
	if err == nil {
		t.Fatal("explicit ⊥1 colliding with an earlier NULL must be rejected")
	}

	// Repeated explicit markers are the point of marked nulls — fine.
	value.ResetFreshNulls()
	rel, err := ReadRelation(strings.NewReader("a,b\n⊥1,x\n⊥1,y\n"), "R")
	if err != nil {
		t.Fatalf("repeated explicit markers must stay legal: %v", err)
	}
	if len(rel.Nulls()) != 1 {
		t.Errorf("⊥1 used twice is one null, got %d", len(rel.Nulls()))
	}

	// Non-colliding mixes stay legal and keep the nulls distinct.
	value.ResetFreshNulls()
	rel, err = ReadRelation(strings.NewReader("a,b\n⊥7,x\nNULL,y\n"), "R")
	if err != nil {
		t.Fatalf("non-colliding NULL and ⊥7 must be accepted: %v", err)
	}
	if len(rel.Nulls()) != 2 {
		t.Errorf("expected 2 distinct nulls, got %d", len(rel.Nulls()))
	}
}

// TestNullMarkerCollisionAcrossFiles checks the database-wide scope of the
// collision check: nulls are shared across relations, so a NULL in one
// file clashing with a ⊥i in another must fail the whole directory read.
func TestNullMarkerCollisionAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "R.csv"), []byte("a\n⊥1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "S.csv"), []byte("b\nNULL\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	value.ResetFreshNulls()
	if _, err := ReadDatabaseDir(dir); err == nil {
		t.Fatal("cross-file marker collision must be rejected")
	}
}

func TestDatabaseDirRoundTrip(t *testing.T) {
	d, _ := workload.Orders(workload.OrdersConfig{Orders: 25, PaidFraction: 0.6, NullRate: 0.4, Seed: 3})
	dir := t.TempDir()
	if err := WriteDatabaseDir(dir, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDatabaseDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) {
		t.Error("database round trip mismatch")
	}
	if got.Schema().MustRelation("Pay").Attrs[1] != "order" {
		t.Error("schema attribute names lost")
	}
}

func TestReadDatabaseDirErrors(t *testing.T) {
	if _, err := ReadDatabaseDir("/nonexistent/dir"); err == nil {
		t.Error("missing dir should error")
	}
	empty := t.TempDir()
	if _, err := ReadDatabaseDir(empty); err == nil {
		t.Error("dir without csv files should error")
	}
	// A directory with a malformed CSV.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "R.csv"), []byte("a,b\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDatabaseDir(bad); err == nil {
		t.Error("malformed relation should error")
	}
	// Non-csv files and subdirectories are ignored.
	mixed := t.TempDir()
	if err := os.WriteFile(filepath.Join(mixed, "notes.txt"), []byte("ignore"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(mixed, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(mixed, "R.csv"), []byte("a\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ReadDatabaseDir(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema().Len() != 1 || d.Relation("R").Len() != 1 {
		t.Errorf("unexpected database: %v", d)
	}
}

func TestWriteDatabaseDirError(t *testing.T) {
	d, _ := workload.Orders(workload.OrdersConfig{Orders: 2, PaidFraction: 1, NullRate: 0, Seed: 1})
	// Writing into a path that is a file should fail.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteDatabaseDir(blocker, d); err == nil {
		t.Error("writing into a file path should error")
	}
}

// TestEmptyAndBlankFields pins the reading of empty-looking fields (the
// cases of a CSV import suite for empty strings and null values): a quoted
// pair of quotes is the empty string and a space is a string, while an empty
// field, quoted or not, is an error naming its row and column — never a
// fresh null, which only NULL denotes.
func TestEmptyAndBlankFields(t *testing.T) {
	for _, tc := range []struct {
		field string // as written in the file
		want  value.Value
		err   bool
	}{
		{`""""""`, value.String(""), false},
		{`""`, value.Value{}, true},
		{``, value.Value{}, true},
		{` `, value.String(" "), false},
	} {
		got, err := ReadRelation(strings.NewReader("k,v\na,1\nb,"+tc.field+"\n"), "R")
		if tc.err {
			if err == nil || !strings.Contains(err.Error(), `row 3 column "v"`) {
				t.Errorf("field %q: error %v, want one naming row 3 column \"v\"", tc.field, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("field %q: %v", tc.field, err)
		}
		if want := table.NewTuple(value.String("b"), tc.want); !got.Contains(want) {
			t.Errorf("field %q: read %v, want it to hold %v", tc.field, got, want)
		}
	}
}
