// Package csvio reads and writes relations as CSV files with a header row
// of attribute names.  Null markers follow the textual conventions of
// package value: "⊥7" or "_:7" for the marked null with id 7, and "NULL"
// for a fresh null.  This is the on-disk format used by the incq CLI.
package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// nullTracker records where every null marker of a database read came
// from, so collisions between explicit markers (⊥7, _:7) and the
// process-assigned ids of unlabelled NULLs can be rejected.  An unlabelled
// NULL always means a *distinct* unknown; if its assigned id coincides
// with an explicit ⊥i used elsewhere in the same read, the two columns
// would silently become the SAME null — changing the query semantics — so
// the read fails instead.  The tracker is scoped to one logical read: a
// single ReadRelation call, or a whole ReadDatabaseDir (nulls are shared
// database-wide).
type nullTracker struct {
	explicit map[uint64]string // null id → "relation row N" of an explicit marker
	fresh    map[uint64]string // null id → location of an unlabelled NULL
}

func newNullTracker() *nullTracker {
	return &nullTracker{explicit: map[uint64]string{}, fresh: map[uint64]string{}}
}

// isFreshMarker reports whether the textual field is an unlabelled null
// (which value.Parse turns into a fresh marked null).
func isFreshMarker(field string) bool { return field == "NULL" || field == "null" }

// record notes one parsed null and returns an error on an explicit/fresh
// id collision.
func (nt *nullTracker) record(id uint64, fresh bool, where string) error {
	if fresh {
		if prev, ok := nt.explicit[id]; ok {
			return fmt.Errorf("csvio: %s: unlabelled NULL was assigned id %d, colliding with the explicit marker ⊥%d at %s; the two would become the same null — renumber the explicit markers (e.g. ⊥%d00) or replace NULL with a distinct ⊥i",
				where, id, id, prev, id)
		}
		nt.fresh[id] = where
		return nil
	}
	if prev, ok := nt.fresh[id]; ok {
		return fmt.Errorf("csvio: %s: explicit marker ⊥%d collides with the id assigned to the unlabelled NULL at %s; the two would become the same null — renumber the explicit markers (e.g. ⊥%d00) or replace NULL with a distinct ⊥i",
			where, id, prev, id)
	}
	nt.explicit[id] = where
	return nil
}

// ReadRelation reads a relation from CSV: the first record is the header of
// attribute names, every following record is a tuple.  Null markers that
// collide — an explicit ⊥i next to an unlabelled NULL that happens to be
// assigned the same id — are rejected; see nullTracker.
func ReadRelation(r io.Reader, name string) (*table.Relation, error) {
	return readRelation(r, name, newNullTracker())
}

func readRelation(r io.Reader, name string, nulls *nullTracker) (*table.Relation, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("csvio: relation %q has no header row", name)
	}
	header := records[0]
	if len(header) == 0 {
		return nil, fmt.Errorf("csvio: relation %q has an empty header", name)
	}
	rel := table.NewRelation(schema.NewRelation(name, header...))
	for i, rec := range records[1:] {
		if len(rec) != len(header) {
			return nil, fmt.Errorf("csvio: relation %q row %d has %d fields, want %d", name, i+2, len(rec), len(header))
		}
		t := make(table.Tuple, len(rec))
		for j, field := range rec {
			// An empty field is an error, not a fresh null: NULL says that.
			v, err := value.Parse(field)
			if err != nil {
				return nil, fmt.Errorf("csvio: relation %q row %d column %q: %w", name, i+2, header[j], err)
			}
			if v.IsNull() {
				where := fmt.Sprintf("relation %q row %d", name, i+2)
				if err := nulls.record(v.NullID(), isFreshMarker(field), where); err != nil {
					return nil, err
				}
			}
			t[j] = v
		}
		if err := rel.Add(t); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// WriteRelation writes the relation as CSV (header plus tuples in canonical
// order).
func WriteRelation(w io.Writer, rel *table.Relation) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(rel.Schema().Attrs); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	for _, t := range rel.Tuples() {
		rec := make([]string, len(t))
		for i, v := range t {
			rec[i] = v.String()
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("csvio: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadDatabaseDir loads every *.csv file of a directory as a relation named
// after the file (without extension) and assembles a database.
func ReadDatabaseDir(dir string) (*table.Database, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("csvio: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("csvio: no .csv files in %q", dir)
	}
	var rels []*table.Relation
	var schemas []schema.Relation
	// Nulls are shared database-wide, so marker collisions are checked
	// across all files of the directory, not per relation.
	nulls := newNullTracker()
	for _, fn := range names {
		f, err := os.Open(dir + string(os.PathSeparator) + fn)
		if err != nil {
			return nil, fmt.Errorf("csvio: %w", err)
		}
		rel, err := readRelation(f, strings.TrimSuffix(fn, ".csv"), nulls)
		f.Close()
		if err != nil {
			return nil, err
		}
		rels = append(rels, rel)
		schemas = append(schemas, rel.Schema())
	}
	s, err := schema.New(schemas...)
	if err != nil {
		return nil, err
	}
	d := table.NewDatabase(s)
	for _, rel := range rels {
		if err := d.SetRelation(rel.Name(), rel); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// WriteDatabaseDir writes every relation of the database as dir/<name>.csv.
func WriteDatabaseDir(dir string, d *table.Database) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("csvio: %w", err)
	}
	for _, name := range d.RelationNames() {
		f, err := os.Create(dir + string(os.PathSeparator) + name + ".csv")
		if err != nil {
			return fmt.Errorf("csvio: %w", err)
		}
		if err := WriteRelation(f, d.Relation(name)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("csvio: %w", err)
		}
	}
	return nil
}
