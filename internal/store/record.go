package store

// The commit log: an append-only file of CRC-framed records.  Each frame
// is
//
//	[4B little-endian payload length][4B CRC32 (IEEE) of payload][payload]
//
// and the payload is one JSON Record.  Append order is replay order.  A
// torn final frame — short header, short payload, or CRC mismatch, the
// signature of a crash mid-append — ends the valid prefix: recovery keeps
// everything before it and truncates the rest, so the store recovers to
// the last fully committed record, never to a corrupt state.
//
// Commit records carry the commit's table.ChangeSet with tuples in the
// textual value form of value.Parse/String, which round-trips exactly
// (the wire protocol relies on the same property).  The delta algebra IS
// the WAL format: replaying the log composes the same deltas the
// in-memory version DAG replays from its checkpoints.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"incdata/internal/table"
	"incdata/internal/value"
)

// RecordType discriminates log records.
type RecordType string

const (
	// RecRoot opens a store: the root commit, its full-state manifest,
	// the initial branch, and the checkpoint policy.
	RecRoot RecordType = "root"
	// RecCommit appends one commit (its change set) and advances the
	// branch ref named in Branch; Manifest, when set, is a checkpoint of
	// the post-commit state.
	RecCommit RecordType = "commit"
	// RecBranch creates a new branch ref at an existing commit.
	RecBranch RecordType = "branch"
	// RecRef moves an existing branch ref (fast-forward merges).
	RecRef RecordType = "ref"
	// RecHead records which branch is checked out.
	RecHead RecordType = "head"
	// RecCheckpoint adds a materialized state manifest for an existing
	// commit (Engine.Flush).
	RecCheckpoint RecordType = "checkpoint"
)

// RecordDelta is one relation's delta in a commit record: inserted and
// deleted tuples, each tuple a list of textual fields.
type RecordDelta struct {
	Ins [][]string `json:",omitempty"`
	Del [][]string `json:",omitempty"`
}

// Record is one log entry.  Field use by type: see the RecordType
// constants; unused fields stay zero and are omitted from the JSON.
type Record struct {
	Type            RecordType
	Branch          string                 `json:",omitempty"`
	ID              string                 `json:",omitempty"` // commit id
	Parents         []string               `json:",omitempty"`
	Message         string                 `json:",omitempty"`
	Manifest        string                 `json:",omitempty"` // state manifest chunk
	CheckpointEvery int                    `json:",omitempty"` // root only
	Delta           map[string]RecordDelta `json:",omitempty"`
}

// maxRecordLen is a sanity cap on a single record payload; a length
// header beyond it is treated as corruption, not as a 4 GiB allocation.
const maxRecordLen = 1 << 30

// EncodeRecord renders a record as one CRC-framed log frame.
func EncodeRecord(rec *Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame, nil
}

// DecodeRecord parses one record payload (the bytes after the frame
// header).  It never panics; corrupt input returns an error.
func DecodeRecord(payload []byte) (*Record, error) {
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("store: decode record: %w", err)
	}
	switch rec.Type {
	case RecRoot, RecCommit, RecBranch, RecRef, RecHead, RecCheckpoint:
	default:
		return nil, fmt.Errorf("store: decode record: unknown type %q", rec.Type)
	}
	return &rec, nil
}

// ReadLog reads the valid prefix of a log file: every fully framed,
// CRC-clean record in order, plus the byte length of that prefix.  A torn
// tail (short header, short payload, CRC mismatch, oversized length) ends
// the prefix silently — that is the crash-recovery contract — but a
// record that frames correctly and still fails to decode is corruption in
// the middle of the log and is returned as an error.
func ReadLog(r io.Reader) ([]*Record, int64, error) {
	var (
		recs  []*Record
		valid int64
		head  [8]byte
	)
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return recs, valid, nil // clean EOF or torn header
		}
		n := binary.LittleEndian.Uint32(head[0:4])
		if n > maxRecordLen {
			return recs, valid, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, valid, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(head[4:8]) {
			return recs, valid, nil // torn/corrupt tail
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			// A CRC-clean but undecodable record cannot be a torn append;
			// report it rather than silently dropping history behind it.
			return recs, valid, fmt.Errorf("store: log record %d: %w", len(recs), err)
		}
		recs = append(recs, rec)
		valid += int64(8 + len(payload))
	}
}

// ReadLogFile is ReadLog over a file path; a missing file is an empty log.
func ReadLogFile(path string) ([]*Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("store: open log: %w", err)
	}
	defer f.Close()
	return ReadLog(f)
}

// recordDeltas renders a change set as record deltas, tuples in their
// exact-round-trip textual form; empty deltas vanish.
func recordDeltas(cs *table.ChangeSet) map[string]RecordDelta {
	if cs == nil || len(cs.Rels) == 0 {
		return nil
	}
	out := make(map[string]RecordDelta, len(cs.Rels))
	for name, d := range cs.Rels {
		if d.Empty() {
			continue
		}
		rd := RecordDelta{
			Ins: tuplesToFields(sortedTuples(d.Inserted)),
			Del: tuplesToFields(sortedTuples(d.Deleted)),
		}
		out[name] = rd
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// decodeDeltas is the inverse of recordDeltas: it rebuilds the change set
// and reports the largest null id mentioned, so recovery can advance the
// fresh-null counter past every persisted null.
func decodeDeltas(rd map[string]RecordDelta) (*table.ChangeSet, uint64, error) {
	cs := table.NewChangeSet()
	var maxNull uint64
	for name, d := range rd {
		delta := table.NewDelta()
		for _, fields := range d.Ins {
			t, mn, err := parseFields(fields)
			if err != nil {
				return nil, 0, fmt.Errorf("store: delta of %s: %w", name, err)
			}
			delta.Inserted[t.Key()] = t
			if mn > maxNull {
				maxNull = mn
			}
		}
		for _, fields := range d.Del {
			t, mn, err := parseFields(fields)
			if err != nil {
				return nil, 0, fmt.Errorf("store: delta of %s: %w", name, err)
			}
			delta.Deleted[t.Key()] = t
			if mn > maxNull {
				maxNull = mn
			}
		}
		cs.Rels[name] = delta
	}
	return cs, maxNull, nil
}

func parseFields(fields []string) (table.Tuple, uint64, error) {
	t := make(table.Tuple, len(fields))
	var maxNull uint64
	for i, f := range fields {
		v, err := value.Parse(f)
		if err != nil {
			return nil, 0, fmt.Errorf("field %d: %w", i, err)
		}
		t[i] = v
		if v.IsNull() && v.NullID() > maxNull {
			maxNull = v.NullID()
		}
	}
	return t, maxNull, nil
}

func sortedTuples(m map[string]table.Tuple) []table.Tuple {
	out := make([]table.Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	// Deterministic record bytes: same delta, same frame.
	table.SortTuples(out)
	return out
}

func tuplesToFields(ts []table.Tuple) [][]string {
	if len(ts) == 0 {
		return nil
	}
	out := make([][]string, len(ts))
	for i, t := range ts {
		fields := make([]string, len(t))
		for j, v := range t {
			fields[j] = v.String()
		}
		out[i] = fields
	}
	return out
}
