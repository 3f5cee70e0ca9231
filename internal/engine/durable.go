package engine

// Durable persistence on the engine facade: Persist writes the engine's
// full version history into an internal/store directory and keeps the
// engine attached to it, Open rebuilds an engine from such a directory,
// and Flush forces a materialized checkpoint of the committed head.
//
// While attached to a store, every Commit (and merge commit, branch
// creation, checkout and fast-forward) appends a log record in the same
// critical section that updates the in-memory DAG, and commits falling on
// the checkpoint interval also write a content-addressed manifest of the
// post-commit state — the durable mirror of the in-memory checkpoint
// policy, so Open recovers any commit by nearest-checkpoint + delta
// replay exactly as AsOf does in memory.
//
// Uncommitted changes (the pending change set) are volatile by design:
// durability is a property of commits.  A crash loses at most the
// uncommitted tail; recovery lands on the last fully appended commit.

import (
	"fmt"
	"sort"

	"incdata/internal/store"
	"incdata/internal/table"
	"incdata/internal/value"
	"incdata/internal/version"
)

// Durable reports whether the engine is attached to a store directory.
func (e *Engine) Durable() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st != nil
}

// Persist writes the engine's state and full history into a fresh store
// directory and attaches the engine to it: from now on commits are
// durable.  History is enabled first (with default options) if it was
// not already.  Pending uncommitted changes stay in memory and become
// durable with the next Commit.
func (e *Engine) Persist(dir string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st != nil {
		return fmt.Errorf("engine: already persisted to %s", e.st.Dir())
	}
	if e.hist == nil {
		hist, _ := version.New(e.db, "main", "init", version.Options{})
		e.hist = hist
		e.branch = "main"
		e.pending = table.NewChangeSet()
	}
	st, err := store.Create(dir)
	if err != nil {
		return err
	}
	ex := e.hist.Export()
	root := ex.Commits[0]
	rootState, err := e.hist.AsOf(root.ID)
	if err != nil {
		return err
	}
	rootManifest, err := st.WriteManifest(rootState)
	if err != nil {
		return err
	}
	if err := st.Append(&store.Record{
		Type:            store.RecRoot,
		Branch:          e.branch,
		ID:              string(root.ID),
		Message:         root.Message,
		Manifest:        rootManifest,
		CheckpointEvery: ex.Opts.CheckpointEvery,
	}); err != nil {
		return err
	}
	ckpt := make(map[version.CommitID]bool, len(ex.Checkpoints))
	for _, id := range ex.Checkpoints {
		ckpt[id] = true
	}
	for _, c := range ex.Commits[1:] {
		manifest := ""
		if ckpt[c.ID] {
			state, err := e.hist.AsOf(c.ID)
			if err != nil {
				return err
			}
			if manifest, err = st.WriteManifest(state); err != nil {
				return err
			}
		}
		// Historical backfill: branch refs are replayed separately below,
		// so these commit records advance no ref.
		if err := st.AppendCommit(c, "", manifest); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(ex.Branches))
	for name := range ex.Branches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := st.Append(&store.Record{Type: store.RecRef, Branch: name, ID: string(ex.Branches[name])}); err != nil {
			return err
		}
	}
	if err := st.Append(&store.Record{Type: store.RecHead, Branch: e.branch}); err != nil {
		return err
	}
	if err := st.Sync(); err != nil {
		return err
	}
	e.st = st
	e.checkpointEvery = ex.Opts.CheckpointEvery
	return nil
}

// Open rebuilds an engine from a store directory: the log's valid prefix
// is replayed (a torn final record from a crash mid-commit is truncated),
// the version DAG restored with every commit id re-verified, and the live
// database set to the checked-out branch's head.  Checkpoint states load
// their relations lazily, chunk by chunk on first access, so Open costs
// O(log + manifests), not O(data).
func Open(dir string) (*Engine, error) {
	st, rec, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Engine, error) {
		st.Close()
		return nil, err
	}
	// Latest first: the store replays the dictionary sidecar of the first
	// checkpoint it loads into the dictionary all of them share, and the
	// latest one's holds the most.
	ids := make([]version.CommitID, 0, len(rec.Checkpoints))
	for id := range rec.Checkpoints {
		ids = append(ids, id)
	}
	at := make(map[version.CommitID]int, len(rec.Commits))
	for i, c := range rec.Commits {
		at[c.ID] = i
	}
	sort.Slice(ids, func(i, j int) bool { return at[ids[i]] > at[ids[j]] })
	checkpoints := make(map[version.CommitID]*table.Database, len(rec.Checkpoints))
	for _, id := range ids {
		db, err := st.LoadDatabase(rec.Checkpoints[id])
		if err != nil {
			return fail(err)
		}
		checkpoints[id] = db
	}
	hist, err := version.Restore(rec.Commits, rec.Branches, checkpoints, rec.Opts)
	if err != nil {
		return fail(err)
	}
	// Replayed deltas may mention null ids this process has never issued;
	// manifest-resident nulls are handled by LoadDatabase.
	value.EnsureFreshNullsAfter(rec.MaxNull)
	head, err := hist.Head(rec.Head)
	if err != nil {
		return fail(err)
	}
	state, err := hist.AsOf(head)
	if err != nil {
		return fail(err)
	}
	e := New(state.Clone())
	e.hist = hist
	e.branch = rec.Head
	e.pending = table.NewChangeSet()
	e.st = st
	e.checkpointEvery = rec.Opts.CheckpointEvery
	if e.checkpointEvery == 0 {
		e.checkpointEvery = version.DefaultCheckpointEvery
	}
	return e, nil
}

// Flush writes a materialized checkpoint of the committed head state to
// the store, so a subsequent Open recovers it without replaying deltas.
// Pending uncommitted changes are not flushed — durability is a property
// of commits.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st == nil {
		return fmt.Errorf("engine: not persisted (call Persist first)")
	}
	head, err := e.hist.Head(e.branch)
	if err != nil {
		return err
	}
	state, err := e.hist.AsOf(head)
	if err != nil {
		return err
	}
	manifest, err := e.st.WriteManifest(state)
	if err != nil {
		return err
	}
	if err := e.st.Append(&store.Record{Type: store.RecCheckpoint, ID: string(head), Manifest: manifest}); err != nil {
		return err
	}
	return e.st.Sync()
}

// Close detaches and closes the underlying store, if any.  The engine
// remains usable in memory; further commits are no longer durable.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.st == nil {
		return nil
	}
	err := e.st.Close()
	e.st = nil
	return err
}

// persistCommitLocked appends the log record of a just-created commit,
// advancing the checked-out branch's durable ref, and writes a
// checkpoint manifest when the commit falls on the checkpoint interval.
// The caller holds e.mu and has already advanced the in-memory DAG and
// set e.db to the post-commit state.  State is written before the record
// (see the store's write protocol), so a crash between the two leaves
// orphaned chunks, never a dangling reference.
func (e *Engine) persistCommitLocked(id version.CommitID) error {
	if e.st == nil {
		return nil
	}
	c, err := e.hist.Lookup(id)
	if err != nil {
		return err
	}
	if e.st.HasCommit(string(id)) {
		// Content-addressed dedup hit: the commit's record is already in
		// the log (committed on another branch); only the ref moves.
		return e.st.Append(&store.Record{Type: store.RecRef, Branch: e.branch, ID: string(id)})
	}
	manifest := ""
	if e.checkpointEvery > 0 && c.Depth()%e.checkpointEvery == 0 {
		if manifest, err = e.st.WriteManifest(e.db); err != nil {
			return err
		}
	}
	return e.st.AppendCommit(version.ExportedCommit{
		ID:      c.ID,
		Parents: c.Parents,
		Message: c.Message,
		Delta:   c.Delta,
	}, e.branch, manifest)
}

// persistErr decorates a post-commit persistence failure: the in-memory
// commit succeeded, the durable record did not.
func persistErr(id version.CommitID, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("engine: commit %s applied in memory but not persisted: %w", id, err)
}
