package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

func testSchema() *schema.Schema {
	return schema.MustNew(
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "x", "y", "z"),
	)
}

// testDB builds a database mixing ints, strings and nulls, large enough
// to span several tuple-block chunks.
func testDB(t *testing.T, rows int) *table.Database {
	t.Helper()
	d := table.NewDatabase(testSchema())
	for i := 0; i < rows; i++ {
		d.MustAdd("R", table.NewTuple(value.Int(int64(i)), value.String(fmt.Sprintf("row-%04d", i))))
		var v value.Value
		if i%5 == 0 {
			v = value.Null(uint64(i%7 + 1))
		} else {
			v = value.String(fmt.Sprintf("payload-%d", i%97))
		}
		d.MustAdd("S", table.NewTuple(value.Int(int64(i%13)), v, value.Int(int64(i))))
	}
	return d
}

func TestChunkRoundTrip(t *testing.T) {
	cs, err := newChunkStore(filepath.Join(t.TempDir(), "chunks"))
	if err != nil {
		t.Fatalf("newChunkStore: %v", err)
	}
	data := []byte("some chunk payload")
	h1, err := cs.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	h2, err := cs.Put(data)
	if err != nil {
		t.Fatalf("Put again: %v", err)
	}
	if h1 != h2 {
		t.Fatalf("content addressing broken: %s vs %s", h1, h2)
	}
	if !cs.Has(h1) {
		t.Fatalf("Has(%s) = false after Put", h1)
	}
	got, err := cs.Get(h1)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get returned %q, want %q", got, data)
	}
	if _, err := cs.Get("0000000000000000000000000000000000000000000000000000000000000000"); err == nil {
		t.Fatalf("Get of missing chunk succeeded")
	}
}

func TestChunkGetDetectsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "chunks")
	cs, err := newChunkStore(dir)
	if err != nil {
		t.Fatalf("newChunkStore: %v", err)
	}
	h, err := cs.Put([]byte("chunk to corrupt"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := filepath.Join(dir, h[:2], h)
	if err := os.WriteFile(path, []byte("flipped bits"), 0o644); err != nil {
		t.Fatalf("corrupt chunk: %v", err)
	}
	if _, err := cs.Get(h); err == nil {
		t.Fatalf("Get of corrupted chunk succeeded")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	// Enough rows that R and S each need multiple chunks (chunkTarget is
	// 64 KiB and rows are tens of bytes).
	db := testDB(t, 4000)
	s, err := Create(t.TempDir())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer s.Close()
	manifest, err := s.WriteManifest(db)
	if err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	got, err := s.LoadDatabase(manifest)
	if err != nil {
		t.Fatalf("LoadDatabase: %v", err)
	}
	if got.CanonicalKey() != db.CanonicalKey() {
		t.Fatalf("loaded database differs from written one")
	}
	// The loaded copy is lazy: force both relations and re-compare.
	for _, name := range got.RelationNames() {
		if got.Relation(name).Len() != db.Relation(name).Len() {
			t.Fatalf("relation %s: loaded %d rows, want %d", name, got.Relation(name).Len(), db.Relation(name).Len())
		}
	}
}

func TestManifestSharesChunksAcrossStates(t *testing.T) {
	db := testDB(t, 500)
	s, err := Create(t.TempDir())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer s.Close()
	m1, err := s.WriteManifest(db)
	if err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	// The identical state hashes to the identical manifest (and therefore
	// shares every chunk).
	m2, err := s.WriteManifest(db.Clone())
	if err != nil {
		t.Fatalf("WriteManifest of clone: %v", err)
	}
	if m1 != m2 {
		t.Fatalf("identical states produced different manifests: %s vs %s", m1, m2)
	}
	// A state differing in one relation shares the untouched relation's
	// chunks: only the changed relation's blocks and the manifest differ.
	before := countChunks(t, s.dir)
	db2 := db.Clone()
	if err := db2.Add("R", table.NewTuple(value.Int(-1), value.String("new"))); err != nil {
		t.Fatalf("Add: %v", err)
	}
	m3, err := s.WriteManifest(db2)
	if err != nil {
		t.Fatalf("WriteManifest of modified state: %v", err)
	}
	if m3 == m1 {
		t.Fatalf("modified state produced the unmodified manifest")
	}
	added := countChunks(t, s.dir) - before
	// R fits one chunk at 500 rows, so: one new R block + one new manifest.
	if added > 3 {
		t.Fatalf("small change added %d chunks; structural sharing broken", added)
	}
}

// pinnedDB builds a fixed database whose canonical order exercises every
// corner of the tuple order: first columns mixing nulls (ids at and above
// 2^63 included), integers at ±2^63, and strings that share 8-byte prefixes
// or hold NUL bytes; a relation whose first column is one value throughout;
// and testDB's two relations.
func pinnedDB(t *testing.T) *table.Database {
	t.Helper()
	d := table.NewDatabase(schema.MustNew(
		schema.NewRelation("E", "k", "v"),
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "x", "y", "z"),
		schema.NewRelation("T", "k", "v"),
	))
	edge := []value.Value{
		value.Int(math.MinInt64), value.Int(math.MinInt64 + 1), value.Int(-1), value.Int(0), value.Int(1),
		value.Int(math.MaxInt64 - 1), value.Int(math.MaxInt64),
		value.Null(0), value.Null(1), value.Null(1 << 63), value.Null(math.MaxUint64),
		value.String(""), value.String("\x00"), value.String("a\x00"), value.String("a"),
		value.String("abcdefgh"), value.String("abcdefgh\x00"), value.String("abcdefghi"), value.String("abcdefgg~"),
	}
	for i := 0; i < 1200; i++ {
		var k value.Value
		switch i % 4 {
		case 0:
			k = value.Int(int64(i*2654435761) - 1<<40)
		case 1:
			k = value.Null(uint64(i) * 0x9E3779B97F4A7C15)
		case 2:
			k = value.String(fmt.Sprintf("shared-prefix-%d", i*7919%1200))
		default:
			k = edge[i%len(edge)]
		}
		d.MustAdd("E", table.NewTuple(k, value.Int(int64(i))))
		d.MustAdd("T", table.NewTuple(value.String("same"), value.String(fmt.Sprint(i*31%1200))))
	}
	src := testDB(t, 6000)
	for _, name := range []string{"R", "S"} {
		src.Relation(name).Each(func(tu table.Tuple) bool {
			d.MustAdd(name, tu)
			return true
		})
	}
	return d
}

// TestCheckpointChunkHashesPinned pins the content addresses a fixed
// database checkpoints to, and the commit-record bytes of its insertion.
// Both are cut from canonical tuple order: a change to that order or to the
// tuple key format moves these hashes, and every existing store would stop
// sharing chunks with new checkpoints.
func TestCheckpointChunkHashesPinned(t *testing.T) {
	db := pinnedDB(t)
	s, err := Create(t.TempDir())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer s.Close()
	h, err := s.WriteManifest(db)
	if err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	m, err := s.readManifest(h)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rm := range m.Relations {
		got = append(got, rm.Name+" "+strings.Join(rm.Chunks, " "))
	}
	cs := table.NewChangeSet()
	for _, name := range db.RelationNames() {
		d := table.NewDelta()
		cs.Rels[name] = d
		db.Relation(name).Each(func(tu table.Tuple) bool {
			d.Inserted[tu.Key()] = tu
			return true
		})
	}
	rec, err := json.Marshal(recordDeltas(cs))
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, "manifest "+h, fmt.Sprintf("record %x", sha256.Sum256(rec)))
	want := []string{
		"E 0d37a4e90ea18ebbbf4122dc1381b0102f5769bbcc90b3ccd7d3bc867962e17a",
		"R 39134dbd54cf30c448f1806edeeba8cb03cea9b12cb9c42495a7b21eabafea1b aec75842eaad102e181f427ce45b4efb3f081fa4b3969e8af118f4c52edd774e",
		"S 77362b9689346bd5a4f0acc3bfbabf5b39cb4b155bb4e410e5d10fc4acf84d57 818cf7f6df4fd1b79fd24422dbaf50e1708f0314b30545f2cf82b449f120a433",
		"T 15131253f2f74ce3becb91346fba3636789b092fa5531f8243fef83275e5bca0",
		"manifest 5cd612e1513d01be770ba7c1c90b4b947edffd107c81cf7abd5635c513a26f15",
		"record 07ec2c4d99ad93b48037eae24accebbf594b49b944227aff7297dbe85b7b5c09",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("checkpoint hashes moved:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func countChunks(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.Walk(filepath.Join(dir, chunksName), func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk chunks: %v", err)
	}
	return n
}

func TestLogRoundTrip(t *testing.T) {
	recs := []*Record{
		{Type: RecRoot, Branch: "main", ID: "c0", Manifest: "m0", CheckpointEvery: 4},
		{Type: RecCommit, Branch: "main", ID: "c1", Parents: []string{"c0"}, Message: "one",
			Delta: map[string]RecordDelta{"R": {Ins: [][]string{{"1", `"a"`}}}}},
		{Type: RecBranch, Branch: "dev", ID: "c1"},
		{Type: RecHead, Branch: "dev"},
		{Type: RecCheckpoint, ID: "c1", Manifest: "m1"},
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		frame, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("EncodeRecord: %v", err)
		}
		buf.Write(frame)
	}
	got, valid, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if valid != int64(buf.Len()) {
		t.Fatalf("valid prefix %d, want %d", valid, buf.Len())
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i, rec := range got {
		if rec.Type != recs[i].Type || rec.ID != recs[i].ID || rec.Branch != recs[i].Branch {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, rec, recs[i])
		}
	}
}

// TestLogTornTailEveryOffset truncates a three-record log at every byte
// offset inside the final frame: recovery must return exactly the first
// two records and a valid length at the second frame's boundary.
func TestLogTornTailEveryOffset(t *testing.T) {
	var buf bytes.Buffer
	var frames [][]byte
	for i := 0; i < 3; i++ {
		frame, err := EncodeRecord(&Record{Type: RecCommit, ID: fmt.Sprintf("c%d", i), Message: "m"})
		if err != nil {
			t.Fatalf("EncodeRecord: %v", err)
		}
		frames = append(frames, frame)
		buf.Write(frame)
	}
	full := buf.Bytes()
	prefixLen := len(full) - len(frames[2])
	for cut := prefixLen; cut < len(full); cut++ {
		got, valid, err := ReadLog(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: ReadLog: %v", cut, err)
		}
		if len(got) != 2 || valid != int64(prefixLen) {
			t.Fatalf("cut %d: recovered %d records / %d bytes, want 2 / %d", cut, len(got), valid, prefixLen)
		}
	}
}

// TestLogCorruptTailDropped flips a payload byte in the final frame: the
// CRC catches it and recovery drops just that record.
func TestLogCorruptTailDropped(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 2; i++ {
		frame, err := EncodeRecord(&Record{Type: RecCommit, ID: fmt.Sprintf("c%d", i)})
		if err != nil {
			t.Fatalf("EncodeRecord: %v", err)
		}
		buf.Write(frame)
	}
	full := buf.Bytes()
	full[len(full)-1] ^= 0xff
	got, _, err := ReadLog(bytes.NewReader(full))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("recovered %d records, want 1", len(got))
	}
}

// TestLogOversizedLengthHeader checks the length sanity cap: a frame
// announcing > maxRecordLen bytes is treated as a torn tail, not as a
// gigantic allocation.
func TestLogOversizedLengthHeader(t *testing.T) {
	frame, err := EncodeRecord(&Record{Type: RecHead, Branch: "main"})
	if err != nil {
		t.Fatalf("EncodeRecord: %v", err)
	}
	bad := append(append([]byte{}, frame...), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	got, valid, err := ReadLog(bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(got) != 1 || valid != int64(len(frame)) {
		t.Fatalf("recovered %d records / %d bytes, want 1 / %d", len(got), valid, len(frame))
	}
}

func FuzzLogDecode(f *testing.F) {
	for _, rec := range []*Record{
		{Type: RecRoot, Branch: "main", ID: "abc", Manifest: "def", CheckpointEvery: 16},
		{Type: RecCommit, ID: "c1", Parents: []string{"c0"}, Delta: map[string]RecordDelta{
			"R": {Ins: [][]string{{"1", `"x"`, "_2"}}, Del: [][]string{{"3"}}},
		}},
		{Type: RecHead, Branch: "dev"},
	} {
		frame, err := EncodeRecord(rec)
		if err != nil {
			f.Fatalf("EncodeRecord: %v", err)
		}
		f.Add(frame[8:])
		f.Add(frame)
	}
	f.Add([]byte(`{"Type":"commit"`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		// DecodeRecord must never panic, and on success the record's delta
		// must decode or error cleanly too.
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		_, _, _ = decodeDeltas(rec.Delta)
		// The same bytes as a (framed) log must also never panic.
		frame, err := EncodeRecord(rec)
		if err != nil {
			return
		}
		if _, _, err := ReadLog(bytes.NewReader(append(frame, payload...))); err != nil {
			_ = err // mid-log corruption errors are fine; panics are not
		}
	})
}
