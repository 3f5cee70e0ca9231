package store

// Manifests: one JSON document per materialized database state, itself
// stored as a chunk and referenced by content address from log records.
// A manifest names, per relation, the ordered tuple-block chunks holding
// the relation's rows, plus the database dictionary sidecar, so a full
// state is a Merkle tree: manifest → chunks → bytes, every edge a hash.
//
// Tuple blocks reuse the canonical binary key encoding of package table
// (Tuple.AppendKey / DecodeTuple): a block is a uvarint tuple count
// followed by that many self-delimiting tuple encodings, cut at a target
// block size.  Because SortedTuples fixes the order, an unchanged
// relation always serializes to the identical chunk list — that is what
// makes snapshots, branches and restarts share storage.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// chunkTarget is the target tuple-block size in bytes.  Blocks may
// overshoot by one tuple; a relation smaller than the target is one block.
const chunkTarget = 64 << 10

// RelManifest describes one relation's persisted form.
type RelManifest struct {
	Name   string
	Attrs  []string
	Rows   int
	Chunks []string `json:",omitempty"` // tuple blocks, in sorted-tuple order
}

// Manifest describes one full database state.
type Manifest struct {
	FormatVersion int
	Relations     []RelManifest // sorted by name
	Dict          string        `json:",omitempty"` // dictionary sidecar chunk
	MaxNull       uint64        // largest null id in the state (incl. dict)
}

// manifestFormatVersion guards against reading manifests written by a
// future incompatible layout.
const manifestFormatVersion = 1

// WriteManifest serializes the database into the chunk store and returns
// the manifest's content address.  Unchanged relations re-hash to chunks
// that already exist, so the incremental cost of a checkpoint is
// proportional to what changed plus one hashing pass.
func (s *Store) WriteManifest(db *table.Database) (string, error) {
	m := Manifest{FormatVersion: manifestFormatVersion}
	names := db.RelationNames()
	for _, name := range names {
		r := db.Relation(name)
		rm := RelManifest{Name: name, Attrs: append([]string(nil), r.Schema().Attrs...), Rows: r.Len()}
		block := make([]byte, 0, chunkTarget+256)
		count := 0
		flush := func() error {
			if count == 0 {
				return nil
			}
			payload := binary.AppendUvarint(nil, uint64(count))
			payload = append(payload, block...)
			h, err := s.chunks.Put(payload)
			if err != nil {
				return err
			}
			rm.Chunks = append(rm.Chunks, h)
			block = block[:0]
			count = 0
			return nil
		}
		for _, t := range r.SortedTuples() {
			block = t.AppendKey(block)
			count++
			for _, v := range t {
				if v.IsNull() && v.NullID() > m.MaxNull {
					m.MaxNull = v.NullID()
				}
			}
			if len(block) >= chunkTarget {
				if err := flush(); err != nil {
					return "", err
				}
			}
		}
		if err := flush(); err != nil {
			return "", err
		}
		m.Relations = append(m.Relations, rm)
	}
	if dict := db.Dict(); dict != nil && dict.Len() > 0 {
		vals := dict.Values()
		payload := binary.AppendUvarint(nil, uint64(len(vals)))
		for _, v := range vals {
			payload = v.AppendKey(payload)
			if v.IsNull() && v.NullID() > m.MaxNull {
				m.MaxNull = v.NullID()
			}
		}
		h, err := s.chunks.Put(payload)
		if err != nil {
			return "", err
		}
		m.Dict = h
	}
	sort.Slice(m.Relations, func(i, j int) bool { return m.Relations[i].Name < m.Relations[j].Name })
	doc, err := json.Marshal(&m)
	if err != nil {
		return "", fmt.Errorf("store: encode manifest: %w", err)
	}
	return s.chunks.Put(doc)
}

// readManifest loads and parses a manifest chunk.
func (s *Store) readManifest(hash string) (*Manifest, error) {
	doc, err := s.chunks.Get(hash)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, fmt.Errorf("store: decode manifest %s: %w", hash, err)
	}
	if m.FormatVersion != manifestFormatVersion {
		return nil, fmt.Errorf("store: manifest %s has format version %d, this build reads %d",
			hash, m.FormatVersion, manifestFormatVersion)
	}
	return &m, nil
}

// LoadDatabase materializes the database a manifest describes.  The
// returned database is lazy: each relation holds only its header and
// chunk list, and reads its tuple blocks from the chunk store on first
// access — Open over a huge store costs O(manifest), and a query pays
// only for the relations it touches.  Every database a store loads shares
// the store's one dictionary, so codes compare across checkpoint states.
// The first manifest loaded that names a dictionary sidecar replays it in
// its original order, which keeps those codes stable across restarts; the
// sidecars of later manifests are not read, since a value they hold and
// the dictionary lacks is interned when an encoding first meets it.
// Repeated calls for one manifest return the same immutable snapshot,
// keeping relation stamps — and with them the engine's plan caches —
// valid across historical reads.
func (s *Store) LoadDatabase(manifestHash string) (*table.Database, error) {
	s.mu.Lock()
	if db, ok := s.loaded[manifestHash]; ok {
		s.mu.Unlock()
		return db, nil
	}
	s.mu.Unlock()
	m, err := s.readManifest(manifestHash)
	if err != nil {
		return nil, err
	}
	rels := make([]schema.Relation, 0, len(m.Relations))
	for _, rm := range m.Relations {
		rels = append(rels, schema.NewRelation(rm.Name, rm.Attrs...))
	}
	sch, err := schema.New(rels...)
	if err != nil {
		return nil, fmt.Errorf("store: manifest %s: %w", manifestHash, err)
	}
	db := table.NewDatabaseDict(sch, s.dict)
	s.mu.Lock()
	intern := m.Dict != "" && !s.interned
	s.interned = s.interned || intern
	s.mu.Unlock()
	if intern {
		payload, err := s.chunks.Get(m.Dict)
		if err != nil {
			return nil, err
		}
		if err := internDict(s.dict, payload); err != nil {
			return nil, fmt.Errorf("store: dict sidecar %s: %w", m.Dict, err)
		}
	}
	for _, rm := range m.Relations {
		rm := rm
		rs, _ := sch.Relation(rm.Name)
		lazy := table.NewLazyRelation(rs, func(add func(table.Tuple)) error {
			return s.fillRelation(rm, add)
		})
		if err := db.SetRelation(rm.Name, lazy); err != nil {
			return nil, fmt.Errorf("store: manifest %s: %w", manifestHash, err)
		}
	}
	value.EnsureFreshNullsAfter(m.MaxNull)
	s.mu.Lock()
	if prev, ok := s.loaded[manifestHash]; ok {
		db = prev // lost a benign race with a concurrent load
	} else {
		s.loaded[manifestHash] = db
	}
	s.mu.Unlock()
	return db, nil
}

// fillRelation streams one relation's tuple blocks into a lazy load.
func (s *Store) fillRelation(rm RelManifest, add func(table.Tuple)) error {
	arity := len(rm.Attrs)
	total := 0
	for _, h := range rm.Chunks {
		payload, err := s.chunks.Get(h)
		if err != nil {
			return err
		}
		n, sz := binary.Uvarint(payload)
		if sz <= 0 {
			return fmt.Errorf("store: tuple block %s: bad count header", h)
		}
		rest := payload[sz:]
		for i := uint64(0); i < n; i++ {
			var t table.Tuple
			t, rest, err = table.DecodeTuple(rest, arity)
			if err != nil {
				return fmt.Errorf("store: tuple block %s: %w", h, err)
			}
			add(t)
			total++
		}
		if len(rest) != 0 {
			return fmt.Errorf("store: tuple block %s: %d trailing bytes", h, len(rest))
		}
	}
	if total != rm.Rows {
		return fmt.Errorf("store: relation %s: manifest says %d rows, blocks hold %d", rm.Name, rm.Rows, total)
	}
	return nil
}

// internDict replays a dictionary sidecar into the store's dictionary,
// preserving the interned order (and therefore the codes) when it is the
// first to fill it.
func internDict(dict *table.Dict, payload []byte) error {
	n, sz := binary.Uvarint(payload)
	if sz <= 0 {
		return fmt.Errorf("bad count header")
	}
	rest := payload[sz:]
	for i := uint64(0); i < n; i++ {
		v, r, err := value.DecodeKey(rest)
		if err != nil {
			return err
		}
		rest = r
		if _, ok := dict.Encode(v); !ok {
			return fmt.Errorf("value %s does not fit the code space", v)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing bytes", len(rest))
	}
	return nil
}
