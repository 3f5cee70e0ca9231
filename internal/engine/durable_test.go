package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/sqlx"
	"incdata/internal/table"
	"incdata/internal/value"
	"incdata/internal/version"
)

// commitSteps applies a mutation stream in random-sized batches, one
// commit per batch, and returns the commit ids.
func commitSteps(t *testing.T, eng *Engine, stream []histStep, rng *rand.Rand, label string) []version.CommitID {
	t.Helper()
	var ids []version.CommitID
	i := 0
	for i < len(stream) {
		n := 1 + rng.Intn(4)
		if i+n > len(stream) {
			n = len(stream) - i
		}
		batch := stream[i : i+n]
		if err := eng.Update(func(db *table.Database) error {
			for _, s := range batch {
				if s.add {
					db.MustAdd(s.rel, s.t)
				} else {
					db.Relation(s.rel).Remove(s.t)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		id, err := eng.Commit(fmt.Sprintf("%s-%d", label, i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		i += n
	}
	return ids
}

// TestDurablePersistOpenDifferential is the acceptance pin of the durable
// subsystem: a database written with Persist (historical backfill) plus
// live durable commits, branches and a merge, reopened with Open, yields
// bit-identical AsOf states at every commit and bit-identical certain
// answers at the head across modes × planner settings × worker counts,
// and on the row path as well as the coded one.
func TestDurablePersistOpenDifferential(t *testing.T) {
	for _, checkpointEvery := range []int{-1, 2, 16} {
		checkpointEvery := checkpointEvery
		t.Run(fmt.Sprintf("ckpt=%d", checkpointEvery), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(11 + checkpointEvery)))
			eng := New(table.NewDatabase(testSchema()))
			if _, err := eng.EnableHistory(HistoryOptions{CheckpointEvery: checkpointEvery}); err != nil {
				t.Fatal(err)
			}
			// Pre-Persist history: exercised as backfill.
			ids := commitSteps(t, eng, randomHistStream(rng, 24), rng, "pre")
			dir := t.TempDir()
			if err := eng.Persist(dir); err != nil {
				t.Fatalf("Persist: %v", err)
			}
			if !eng.Durable() {
				t.Fatalf("Durable() = false after Persist")
			}
			// Post-Persist history: exercised as live durable appends.
			ids = append(ids, commitSteps(t, eng, randomHistStream(rng, 16), rng, "post")...)
			// Branch, diverge, and merge back.
			if err := eng.Branch("dev"); err != nil {
				t.Fatal(err)
			}
			if err := eng.Checkout("dev"); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, commitSteps(t, eng, randomHistStream(rng, 6), rng, "dev")...)
			if err := eng.Checkout("main"); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, commitSteps(t, eng, randomHistStream(rng, 6), rng, "div")...)
			res, err := eng.Merge("dev", "merge dev")
			if err != nil {
				t.Fatalf("Merge: %v", err)
			}
			ids = append(ids, res.Commit)

			wantBranches, err := eng.Branches()
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			re, err := Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer re.Close()

			gotBranches, err := re.Branches()
			if err != nil {
				t.Fatal(err)
			}
			if len(gotBranches) != len(wantBranches) {
				t.Fatalf("branches differ: %v vs %v", gotBranches, wantBranches)
			}
			for name, id := range wantBranches {
				if gotBranches[name] != id {
					t.Fatalf("branch %s: %s vs %s", name, gotBranches[name], id)
				}
			}
			wb, wid, err := eng.Head()
			if err != nil {
				t.Fatal(err)
			}
			gb, gid, err := re.Head()
			if err != nil {
				t.Fatal(err)
			}
			if gb != wb || gid != wid {
				t.Fatalf("head differs: %s@%s vs %s@%s", gb, gid, wb, wid)
			}

			// Every commit's reconstructed state must be bit-identical.
			for _, id := range ids {
				want, err := eng.AsOf(id)
				if err != nil {
					t.Fatalf("original AsOf(%s): %v", id, err)
				}
				got, err := re.AsOf(id)
				if err != nil {
					t.Fatalf("reopened AsOf(%s): %v", id, err)
				}
				if got.Database().CanonicalKey() != want.Database().CanonicalKey() {
					t.Fatalf("ckpt=%d: AsOf(%s) state differs after reopen", checkpointEvery, id)
				}
			}

			// Head query differential: modes × planner × workers.
			for qname, q := range testQueries() {
				for _, mode := range []Mode{ModeCertain, ModeNaive} {
					for _, planner := range []PlannerSetting{PlannerOn, PlannerOff} {
						for _, workers := range []int{1, 2, 4} {
							opts := Options{Mode: mode, Planner: planner, Workers: workers}
							want, werr := eng.Eval(q, opts)
							got, gerr := re.Eval(q, opts)
							if (gerr == nil) != (werr == nil) {
								t.Fatalf("%s mode=%v planner=%v workers=%d: err %v vs %v",
									qname, mode, planner, workers, gerr, werr)
							}
							if gerr == nil && fp(got) != fp(want) {
								t.Fatalf("%s mode=%v planner=%v workers=%d: answers differ after reopen",
									qname, mode, planner, workers)
							}
						}
					}
					// The row path on the recovered head against the writing
					// engine's coded answer.
					want, werr := eng.Eval(q, Options{Mode: mode})
					got, gerr := re.Eval(q, Options{Mode: mode, rowOnly: true})
					if (gerr == nil) != (werr == nil) || (gerr == nil && fp(got) != fp(want)) {
						t.Fatalf("%s mode=%v: row-path answer differs after reopen (%v / %v)", qname, mode, gerr, werr)
					}
				}
				// World enumeration spot check (exponential: small queries only).
				if qname == "base" || qname == "select" {
					opts := Options{Mode: ModeCertainCWA, ExtraFresh: 1, MaxWorlds: 1 << 13}
					want, werr := eng.Eval(q, opts)
					got, gerr := re.Eval(q, opts)
					if (gerr == nil) != (werr == nil) || (gerr == nil && fp(got) != fp(want)) {
						t.Fatalf("%s certain-cwa differs after reopen (%v / %v)", qname, gerr, werr)
					}
				}
			}
		})
	}
}

// TestOpenSharesOneDict reopens a store of 72 checkpoints whose dictionary
// sidecars grow with every commit.  Open replays one sidecar, not one per
// checkpoint, into the one dictionary every checkpoint state shares, and
// AsOf at every commit still equals the state before the close.
func TestOpenSharesOneDict(t *testing.T) {
	const commits = 72
	eng := New(table.NewDatabase(testSchema()))
	if _, err := eng.EnableHistory(HistoryOptions{CheckpointEvery: 1}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := eng.Persist(dir); err != nil {
		t.Fatal(err)
	}
	scan := ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}}
	var ids []version.CommitID
	for i := 0; i < commits; i++ {
		if err := eng.Update(func(db *table.Database) error {
			for k := 0; k < 4; k++ {
				db.MustAdd("R", table.NewTuple(value.String(fmt.Sprint("r", i, "-", k)), value.Int(int64(k))))
				db.MustAdd("S", table.NewTuple(value.Int(int64(k)), value.String(fmt.Sprint("s", i, "-", k))))
			}
			if i%5 == 4 {
				db.Relation("R").Remove(table.NewTuple(value.String(fmt.Sprint("r", i-2, "-", 1)), value.Int(1)))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		// A coded evaluation interns the new strings, so every checkpoint's
		// sidecar is longer than the one before.
		if _, err := eng.Eval(scan, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		id, err := eng.Commit(fmt.Sprint("c", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if n := eng.db.Dict().Len(); n < 4*commits {
		t.Fatalf("the dictionary holds %d values after %d commits; the sidecars do not grow", n, commits)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if got := len(re.hist.Export().Checkpoints); got < 64 {
		t.Fatalf("the store holds %d checkpoints, want at least 64", got)
	}
	dict := re.db.Dict()
	for _, id := range ids {
		want, err := eng.AsOf(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := re.AsOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if got.Database().CanonicalKey() != want.Database().CanonicalKey() {
			t.Fatalf("AsOf(%s) differs after reopen", id)
		}
		if got.Database().Dict() != dict {
			t.Fatalf("AsOf(%s) keeps a dictionary of its own", id)
		}
		w, werr := want.Eval(scan, Options{})
		g, gerr := got.Eval(scan, Options{})
		if werr != nil || gerr != nil || fp(g) != fp(w) {
			t.Fatalf("AsOf(%s): answers differ after reopen (%v / %v)", id, gerr, werr)
		}
	}
}

// frameOffsets returns the byte offset of every frame start in a log.
func frameOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	for off := 0; off+8 <= len(data); {
		offs = append(offs, off)
		n := binary.LittleEndian.Uint32(data[off : off+4])
		off += 8 + int(n)
		if off > len(data) {
			t.Fatalf("log ends inside a frame (offset %d of %d)", off, len(data))
		}
	}
	return offs
}

func copyStoreDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy store dir: %v", err)
	}
}

// TestDurableCrashRecoveryTornLog simulates a crash mid-commit at every
// byte offset of the final log record: Open must truncate the torn tail
// and recover to the previous commit, for every checkpoint policy, and
// the recovered store must accept new commits.
func TestDurableCrashRecoveryTornLog(t *testing.T) {
	for _, checkpointEvery := range []int{-1, 1, 2, 16} {
		checkpointEvery := checkpointEvery
		t.Run(fmt.Sprintf("ckpt=%d", checkpointEvery), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 + checkpointEvery)))
			eng := New(table.NewDatabase(testSchema()))
			if _, err := eng.EnableHistory(HistoryOptions{CheckpointEvery: checkpointEvery}); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := eng.Persist(dir); err != nil {
				t.Fatalf("Persist: %v", err)
			}
			ids := commitSteps(t, eng, randomHistStream(rng, 15), rng, "c")
			if len(ids) < 2 {
				t.Fatalf("need at least 2 commits, got %d", len(ids))
			}
			prev := ids[len(ids)-2]
			prevState, err := eng.AsOf(prev)
			if err != nil {
				t.Fatal(err)
			}
			prevKey := prevState.Database().CanonicalKey()
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			data, err := os.ReadFile(filepath.Join(dir, "log.bin"))
			if err != nil {
				t.Fatal(err)
			}
			offs := frameOffsets(t, data)
			lastStart := offs[len(offs)-1]
			// Every truncation point inside the final record, including
			// dropping it whole.
			for cut := lastStart; cut < len(data); cut++ {
				cdir := filepath.Join(t.TempDir(), "crashed")
				copyStoreDir(t, dir, cdir)
				if err := os.Truncate(filepath.Join(cdir, "log.bin"), int64(cut)); err != nil {
					t.Fatal(err)
				}
				re, err := Open(cdir)
				if err != nil {
					t.Fatalf("cut %d: Open: %v", cut, err)
				}
				_, head, err := re.Head()
				if err != nil {
					re.Close()
					t.Fatalf("cut %d: Head: %v", cut, err)
				}
				if head != prev {
					re.Close()
					t.Fatalf("cut %d: recovered head %s, want previous commit %s", cut, head, prev)
				}
				re.Close()
			}

			// One full recovery check: previous state is bit-identical and
			// the store accepts a new durable commit.
			cdir := filepath.Join(t.TempDir(), "crashed-full")
			copyStoreDir(t, dir, cdir)
			if err := os.Truncate(filepath.Join(cdir, "log.bin"), int64(lastStart+3)); err != nil {
				t.Fatal(err)
			}
			re, err := Open(cdir)
			if err != nil {
				t.Fatalf("Open after torn tail: %v", err)
			}
			defer re.Close()
			snap, err := re.AsOf(prev)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Database().CanonicalKey() != prevKey {
				t.Fatalf("recovered AsOf(%s) differs from pre-crash state", prev)
			}
			if err := re.Update(func(db *table.Database) error {
				db.MustAdd("R", table.NewTuple(value.Int(99), value.Int(99)))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			id, err := re.Commit("after recovery")
			if err != nil {
				t.Fatalf("commit after recovery: %v", err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, err := Open(cdir)
			if err != nil {
				t.Fatalf("reopen after recovery commit: %v", err)
			}
			defer re2.Close()
			_, head, err := re2.Head()
			if err != nil {
				t.Fatal(err)
			}
			if head != id {
				t.Fatalf("post-recovery commit not durable: head %s, want %s", head, id)
			}
		})
	}
}

// TestDurableFlush checks Flush: with checkpoints off (root only), a
// flushed head reopens without replaying the whole chain from the root —
// and, observably, the checkpoint makes reopen state bit-identical.
func TestDurableFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	eng := New(table.NewDatabase(testSchema()))
	if _, err := eng.EnableHistory(HistoryOptions{CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := eng.Persist(dir); err != nil {
		t.Fatal(err)
	}
	commitSteps(t, eng, randomHistStream(rng, 12), rng, "c")
	if err := eng.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	headKey := eng.Snapshot().Database().CanonicalKey()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if got := re.Snapshot().Database().CanonicalKey(); got != headKey {
		t.Fatalf("flushed head state differs after reopen")
	}
}

// TestDurableStringNULLStaysAConstant: the string constants "NULL" and
// "null" come back from the commit log as themselves, not as the fresh nulls
// value.Parse reads from the bare words.  Checkpoints are off, so the reopened
// head is the root plus the logged commit replayed from its text form.
func TestDurableStringNULLStaysAConstant(t *testing.T) {
	eng := New(table.NewDatabase(testSchema()))
	if _, err := eng.EnableHistory(HistoryOptions{CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := eng.Persist(dir); err != nil {
		t.Fatal(err)
	}
	want := []table.Tuple{
		table.NewTuple(value.String("NULL"), value.Int(1)),
		table.NewTuple(value.String("null"), value.Int(2)),
	}
	if err := eng.Update(func(d *table.Database) error {
		return d.Relation("R").AddBatch(want)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit("string constants spelled like a null"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	r := re.Snapshot().Database().Relation("R")
	if r.Len() != len(want) || !r.IsComplete() {
		t.Fatalf("reopened R = %s; want the constant tuples %v", r, want)
	}
	for _, tp := range want {
		if !r.Contains(tp) {
			t.Fatalf("reopened R = %s lacks %s", r, tp)
		}
	}
}

// TestPersistWithoutHistory: Persist on a plain engine enables history
// implicitly and the state survives a reopen.
func TestPersistWithoutHistory(t *testing.T) {
	eng := New(testDB(5))
	dir := t.TempDir()
	if err := eng.Persist(dir); err != nil {
		t.Fatal(err)
	}
	key := eng.Snapshot().Database().CanonicalKey()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Snapshot().Database().CanonicalKey(); got != key {
		t.Fatalf("state differs after reopen")
	}
	if !re.HistoryEnabled() {
		t.Fatalf("history not enabled after Open")
	}
}

// TestPersistTwiceFails: a second Persist (or onto an existing store) is
// an error, not silent corruption.
func TestPersistTwiceFails(t *testing.T) {
	eng := New(testDB(6))
	dir := t.TempDir()
	if err := eng.Persist(dir); err != nil {
		t.Fatal(err)
	}
	if err := eng.Persist(t.TempDir()); err == nil {
		t.Fatalf("second Persist succeeded")
	}
	eng2 := New(testDB(7))
	if err := eng2.Persist(dir); err == nil {
		t.Fatalf("Persist onto an existing store succeeded")
	}
	eng.Close()
}

// corruptRelChunk flips one byte of the chunk Persist wrote for r, a
// relation smaller than one chunk (its tuple count and sorted tuple keys,
// addressed by SHA-256), and returns the chunk's address.
func corruptRelChunk(t *testing.T, dir string, r *table.Relation) string {
	t.Helper()
	payload := binary.AppendUvarint(nil, uint64(r.Len()))
	for _, tu := range r.SortedTuples() {
		payload = tu.AppendKey(payload)
	}
	sum := sha256.Sum256(payload)
	h := hex.EncodeToString(sum[:])
	path := filepath.Join(dir, "chunks", h[:2], h)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestCorruptChunkFailsTheQuery: Open loads relations lazily, so a chunk
// that fails its hash check goes unnoticed until a query reads it.  That
// query, in every entry point, returns an error naming the chunk instead
// of panicking, and a query on an intact relation still answers.  The
// world-sweep modes draw their domain from every relation, so they fail
// whichever relation they name.
func TestCorruptChunkFailsTheQuery(t *testing.T) {
	for _, name := range []string{"R", "S", "T"} {
		t.Run(name, func(t *testing.T) {
			other := "S"
			if name == other {
				other = "R"
			}
			want, err := New(testDB(3)).Eval(ra.Base(other), Options{})
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "store")
			eng := New(testDB(3))
			if err := eng.Persist(dir); err != nil {
				t.Fatal(err)
			}
			eng.Close()
			chunk := corruptRelChunk(t, dir, testDB(3).Relation(name))
			re, err := Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer re.Close()
			q := ra.Base(name)
			for label, call := range map[string]func() error{
				"certain":   func() error { _, err := re.Eval(q, Options{}); return err },
				"naive":     func() error { _, err := re.Eval(q, Options{Mode: ModeNaive, Planner: PlannerOff}); return err },
				"cwa-other": func() error { _, err := re.Eval(ra.Base(other), Options{Mode: ModeCertainCWA}); return err },
				"bool":      func() error { _, err := re.EvalBool(q, Options{}); return err },
				"sql":       func() error { _, err := re.SQL(sqlx.Query{Select: []string{"b"}, From: name}); return err },
				"register":  func() error { return re.Register("v", q, Options{}) },
			} {
				if err := call(); err == nil || !strings.Contains(err.Error(), chunk) {
					t.Errorf("%s: error %v, want one naming chunk %s", label, err, chunk)
				}
			}
			got, err := re.Eval(ra.Base(other), Options{})
			if err != nil || fp(got) != fp(want) {
				t.Fatalf("intact %s after the failures: %v, %v; want %v", other, got, err, want)
			}
		})
	}
}

// TestCorruptChunkFailsTheUpdate: a write to a relation whose chunk fails its
// hash check returns an error naming the chunk, before the callback runs, so
// nothing is applied; it used to panic in the callback's first touch of the
// relation.
func TestCorruptChunkFailsTheUpdate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	eng := New(testDB(3))
	if err := eng.Persist(dir); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	chunk := corruptRelChunk(t, dir, testDB(3).Relation("R"))
	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	ran := false
	err = re.Update(func(db *table.Database) error {
		ran = true
		return db.Relation("R").Add(table.NewTuple(value.Int(7), value.Int(8)))
	})
	if err == nil || !strings.Contains(err.Error(), chunk) || ran {
		t.Fatalf("Update: error %v, callback ran: %v; want an error naming chunk %s and no run", err, ran, chunk)
	}
}

// TestStatsEncodingPatchVsBuild pins the sidecar counters of Stats: the
// first coded evaluation over a relation builds its encoding, and after a
// small write the next one patches only the segment the write touched —
// Patched grows, Builds does not, and nothing is ever declined.
func TestStatsEncodingPatchVsBuild(t *testing.T) {
	db := testDB(9)
	// Enough tuples for R to have several segments; a single-segment
	// relation has nothing to carry and rebuilds.
	for i := 0; i < 8000; i++ {
		db.MustAdd("R", table.NewTuple(value.Int(int64(10+i)), value.Int(int64(i%5))))
	}
	eng := New(db)
	// A bare scan materializes the relation as-is; a projected join is
	// coded-eligible and builds the sidecars of the relations it reads.
	q := ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}}
	opts := Options{Mode: ModeCertain, Workers: 1}
	if _, err := eng.Eval(q, opts); err != nil {
		t.Fatal(err)
	}
	if es, ok := eng.Stats().Encoding["R"]; !ok || es.Builds == 0 {
		t.Fatalf("no sidecar build recorded for R after a coded eval: %+v", eng.Stats().Encoding)
	}
	var first table.EncodingStats
	for i := 0; i < 10; i++ {
		if i == 1 {
			// The first write after the first snapshot split R's one
			// segment, and the evaluation after it built the sidecars of
			// the segmented relation; from here on they are carried.
			first = eng.Stats().Encoding["R"]
		}
		if err := eng.Update(func(db *table.Database) error {
			db.MustAdd("R", table.NewTuple(value.Int(int64(100000+i)), value.Int(int64(i))))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		got, err := eng.Eval(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Eval(q, Options{Mode: ModeCertain, Planner: PlannerOff})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("after write %d: coded answer over patched sidecars differs from the oracle's", i)
		}
	}
	es := eng.Stats().Encoding["R"]
	if es.Builds != first.Builds {
		t.Errorf("single-tuple writes caused full rebuilds: %+v, was %+v", es, first)
	}
	if es.Patched <= first.Patched {
		t.Errorf("no sidecar piece was carried across nine writes: %+v", es)
	}
	if es.Declines != 0 || es.Declined {
		t.Errorf("nothing declines builds any more: %+v", es)
	}
}
