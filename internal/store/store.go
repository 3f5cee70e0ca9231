package store

// Store: the directory handle tying the chunk store and the commit log
// together, plus crash recovery.
//
// Write protocol (the engine's side of the contract):
//
//  1. State first: chunks and the manifest referencing them are written
//     (atomically, temp-then-rename) BEFORE any log record that names the
//     manifest is appended.  A log record therefore never dangles.
//  2. Log second: the record frame is appended and fsynced.  A crash
//     between (1) and (2) leaves orphaned chunks — wasted bytes, never
//     corruption — and recovery lands on the previous record.
//
// Recovery (Open) reads the valid record prefix, truncates a torn tail
// in place, and replays the records into a Recovery image: the exported
// commits, branch refs, checked-out head, and the manifest of every
// checkpointed commit.  The engine feeds that image to version.Restore
// and lazily loads the checkpoint states it needs.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"incdata/internal/table"
	"incdata/internal/version"
)

const (
	logName    = "log.bin"
	chunksName = "chunks"
)

// Store is an open durable store.  Append operations are serialized
// internally; one process must own a store directory at a time (the
// usual single-writer contract of an embedded database).
type Store struct {
	dir    string
	chunks *chunkStore
	mu     sync.Mutex
	logF   *os.File
	seen   map[string]bool // commit ids already in the log
	loaded map[string]*table.Database
	// dict is the one dictionary of every database LoadDatabase returns;
	// interned records that a sidecar has been replayed into it.
	dict     *table.Dict
	interned bool
}

// IsStore reports whether dir looks like a store directory (has a log).
func IsStore(dir string) bool {
	st, err := os.Stat(filepath.Join(dir, logName))
	return err == nil && st.Mode().IsRegular()
}

// Create initializes a fresh store directory.  The directory may exist
// but must not already hold a store.
func Create(dir string) (*Store, error) {
	if IsStore(dir) {
		return nil, fmt.Errorf("store: %s already holds a store", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	chunks, err := newChunkStore(filepath.Join(dir, chunksName))
	if err != nil {
		return nil, err
	}
	logF, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create log: %w", err)
	}
	return &Store{
		dir:    dir,
		chunks: chunks,
		logF:   logF,
		seen:   map[string]bool{},
		loaded: map[string]*table.Database{},
		dict:   table.NewDict(),
	}, nil
}

// Recovery is the replayed image of a store's log: everything needed to
// rebuild the version history and resume appending.
type Recovery struct {
	Opts        version.Options
	Commits     []version.ExportedCommit
	Branches    map[string]version.CommitID
	Head        string                      // checked-out branch
	Checkpoints map[version.CommitID]string // commit → manifest chunk
	MaxNull     uint64                      // largest null id in any replayed delta
}

// Open opens an existing store, truncating a torn final log record, and
// returns the store together with the recovered history image.
func Open(dir string) (*Store, *Recovery, error) {
	if !IsStore(dir) {
		return nil, nil, fmt.Errorf("store: %s is not a store directory", dir)
	}
	chunks, err := newChunkStore(filepath.Join(dir, chunksName))
	if err != nil {
		return nil, nil, err
	}
	logPath := filepath.Join(dir, logName)
	recs, valid, err := ReadLogFile(logPath)
	if err != nil {
		return nil, nil, err
	}
	logF, err := os.OpenFile(logPath, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open log: %w", err)
	}
	if st, err := logF.Stat(); err == nil && st.Size() > valid {
		// Torn tail from a crash mid-append: drop it so later appends
		// start on a clean frame boundary.
		if err := logF.Truncate(valid); err != nil {
			logF.Close()
			return nil, nil, fmt.Errorf("store: truncate torn log tail: %w", err)
		}
	}
	if _, err := logF.Seek(0, 2); err != nil {
		logF.Close()
		return nil, nil, fmt.Errorf("store: seek log end: %w", err)
	}
	s := &Store{
		dir:    dir,
		chunks: chunks,
		logF:   logF,
		seen:   map[string]bool{},
		loaded: map[string]*table.Database{},
		dict:   table.NewDict(),
	}
	rec, err := s.replay(recs)
	if err != nil {
		logF.Close()
		return nil, nil, err
	}
	return s, rec, nil
}

// replay folds the log records into a Recovery image.
func (s *Store) replay(recs []*Record) (*Recovery, error) {
	if len(recs) == 0 {
		return nil, fmt.Errorf("store: empty log (no root record survived)")
	}
	r := &Recovery{
		Branches:    map[string]version.CommitID{},
		Checkpoints: map[version.CommitID]string{},
	}
	for i, rec := range recs {
		switch rec.Type {
		case RecRoot:
			if i != 0 {
				return nil, fmt.Errorf("store: log record %d: unexpected second root", i)
			}
			if rec.ID == "" || rec.Manifest == "" || rec.Branch == "" {
				return nil, fmt.Errorf("store: root record is missing id, manifest or branch")
			}
			r.Opts.CheckpointEvery = rec.CheckpointEvery
			r.Commits = append(r.Commits, version.ExportedCommit{
				ID:      version.CommitID(rec.ID),
				Message: rec.Message,
			})
			r.Branches[rec.Branch] = version.CommitID(rec.ID)
			r.Head = rec.Branch
			r.Checkpoints[version.CommitID(rec.ID)] = rec.Manifest
			s.seen[rec.ID] = true
		case RecCommit:
			if i == 0 {
				return nil, fmt.Errorf("store: log does not start with a root record")
			}
			cs, maxNull, err := decodeDeltas(rec.Delta)
			if err != nil {
				return nil, fmt.Errorf("store: log record %d: %w", i, err)
			}
			if maxNull > r.MaxNull {
				r.MaxNull = maxNull
			}
			if !s.seen[rec.ID] {
				parents := make([]version.CommitID, len(rec.Parents))
				for j, p := range rec.Parents {
					parents[j] = version.CommitID(p)
				}
				r.Commits = append(r.Commits, version.ExportedCommit{
					ID:      version.CommitID(rec.ID),
					Parents: parents,
					Message: rec.Message,
					Delta:   cs,
				})
				s.seen[rec.ID] = true
			}
			if rec.Branch != "" {
				r.Branches[rec.Branch] = version.CommitID(rec.ID)
			}
			if rec.Manifest != "" {
				r.Checkpoints[version.CommitID(rec.ID)] = rec.Manifest
			}
		case RecBranch, RecRef:
			if rec.Branch == "" || rec.ID == "" {
				return nil, fmt.Errorf("store: log record %d: %s record missing branch or id", i, rec.Type)
			}
			r.Branches[rec.Branch] = version.CommitID(rec.ID)
		case RecHead:
			if rec.Branch == "" {
				return nil, fmt.Errorf("store: log record %d: head record missing branch", i)
			}
			r.Head = rec.Branch
		case RecCheckpoint:
			if rec.ID == "" || rec.Manifest == "" {
				return nil, fmt.Errorf("store: log record %d: checkpoint record missing id or manifest", i)
			}
			r.Checkpoints[version.CommitID(rec.ID)] = rec.Manifest
		}
	}
	if _, ok := r.Branches[r.Head]; !ok {
		return nil, fmt.Errorf("store: checked-out branch %q has no ref", r.Head)
	}
	return r, nil
}

// Append writes one record frame to the log and fsyncs it.  Commit
// records whose id is already in the log are dropped (content-addressed
// dedup, mirroring the in-memory DAG); their branch/checkpoint side
// effects must be appended separately by the caller if needed — the
// engine only dedups commits that change nothing, so this does not arise.
func (s *Store) Append(rec *Record) error {
	frame, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Type == RecCommit || rec.Type == RecRoot {
		if s.seen[rec.ID] {
			return nil
		}
	}
	if _, err := s.logF.Write(frame); err != nil {
		return fmt.Errorf("store: append log record: %w", err)
	}
	if err := s.logF.Sync(); err != nil {
		return fmt.Errorf("store: sync log: %w", err)
	}
	if rec.Type == RecCommit || rec.Type == RecRoot {
		s.seen[rec.ID] = true
	}
	return nil
}

// AppendCommit writes a commit record: the commit's change set, the
// branch ref it advances (empty for historical backfill), and optionally
// the manifest of a checkpoint of the post-commit state.
func (s *Store) AppendCommit(c version.ExportedCommit, branch, checkpointManifest string) error {
	parents := make([]string, len(c.Parents))
	for i, p := range c.Parents {
		parents[i] = string(p)
	}
	return s.Append(&Record{
		Type:     RecCommit,
		Branch:   branch,
		ID:       string(c.ID),
		Parents:  parents,
		Message:  c.Message,
		Manifest: checkpointManifest,
		Delta:    recordDeltas(c.Delta),
	})
}

// HasCommit reports whether a commit with the given id is already in the
// log (written or replayed).
func (s *Store) HasCommit(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[id]
}

// Sync flushes the log to stable storage (appends already sync; this is
// a barrier for callers that bypassed them, and a no-op otherwise).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logF.Sync()
}

// Close releases the log file handle.  The store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logF.Close()
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }
