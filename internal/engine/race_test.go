package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
	"incdata/internal/version"
)

// TestConcurrentSnapshotReadersWithWriter is the snapshot-isolation stress
// test: one writer keeps mutating the engine's database while many readers
// take snapshots and evaluate queries (planned and oracle paths, one-shot
// and world-enumeration modes).  Run under -race it checks the COW
// relations, the stamp-validated plan caches and the session pools for
// data races; in any mode it checks that each snapshot's answers are
// repeatable while writes land around them.
func TestConcurrentSnapshotReadersWithWriter(t *testing.T) {
	s := schema.MustNew(
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "b", "c"),
	)
	d := table.NewDatabase(s)
	d.MustAddRow("R", "1", "⊥1")
	d.MustAddRow("R", "2", "3")
	d.MustAddRow("S", "3", "4")
	d.MustAddRow("S", "⊥2", "5")
	eng := New(d)

	queries := []ra.Expr{
		ra.Base("R"),
		ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Attr("a"), ra.LitInt(1))},
		ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}},
		ra.Diff{Left: ra.Base("R"), Right: ra.Rename{Input: ra.Base("S"), As: "S2", Attrs: []string{"a", "b"}}},
	}
	modes := []Options{
		{Mode: ModeCertain},
		{Mode: ModeNaive},
		{Mode: ModeCertainCWA, ExtraFresh: 1, MaxWorlds: 1 << 16},
		{Mode: ModeCertainCWA, ExtraFresh: 1, MaxWorlds: 1 << 16, Workers: 2},
		{Mode: ModeCertain, Planner: PlannerOff},
	}

	const (
		writes         = 60
		readers        = 4
		readsPerReader = 40
	)

	var wg sync.WaitGroup
	wg.Add(1 + readers)
	errs := make(chan error, readers+1)

	// Writer: keep inserting fresh tuples so every write really mutates and
	// bumps stamps.  New null tuples reuse the existing marked nulls, so the
	// world count stays |dom|^2 and every CWA read finishes within its
	// MaxWorlds bound.
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			i := i
			err := eng.Update(func(db *table.Database) error {
				if i%5 == 0 {
					return db.Add("R", table.NewTuple(value.Int(int64(100+i)), value.Null(1)))
				}
				return db.Add("S", table.NewTuple(value.Int(int64(100+i)), value.Int(int64(i))))
			})
			if err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		r := r
		go func() {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				snap := eng.Snapshot()
				q := queries[(r+i)%len(queries)]
				opts := modes[(r*readsPerReader+i)%len(modes)]
				first, err := snap.Eval(q, opts)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				// The same snapshot must answer identically no matter how
				// many writes landed in between.
				again, err := snap.Eval(q, opts)
				if err != nil {
					errs <- fmt.Errorf("reader %d (repeat): %w", r, err)
					return
				}
				if first.CanonicalKey() != again.CanonicalKey() {
					errs <- fmt.Errorf("reader %d: snapshot answer not repeatable", r)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentServeWithWriter drives the batch API while a writer
// mutates: each batch must be internally consistent (all requests see one
// snapshot), which is checked by pairing each query with itself and
// requiring identical answers within the batch.  The second input mixes
// point queries with a scan of 6000 rows, so that Serve's workers (and a
// parallel scan's) hand each other pooled set arrays of every size: a point
// query, whose keys the writer never touches, must answer what it answered
// before the writer started.  The options set Workers explicitly, because
// the zero value runs serially and the scan must take the morsel path.
func TestConcurrentServeWithWriter(t *testing.T) {
	s := schema.MustNew(schema.NewRelation("R", "a", "b"))
	small := table.NewDatabase(s)
	small.MustAddRow("R", "1", "2")
	small.MustAddRow("R", "2", "⊥1")
	big := table.NewDatabase(s)
	for i := 0; i < 6000; i++ {
		b := value.String(fmt.Sprint("b", i%4000))
		if i%10 == 0 {
			b = value.Null(uint64(i%3 + 1))
		}
		big.MustAdd("R", table.NewTuple(value.Int(int64(i)), b))
	}
	point := func(k int64) ra.Expr {
		return ra.Project{Input: ra.Select{Input: ra.Base("R"), Pred: ra.Eq(ra.Attr("a"), ra.LitInt(k))}, Attrs: []string{"b"}}
	}
	scan := ra.Project{Input: ra.Base("R"), Attrs: []string{"b"}}
	naive, certain := Options{Mode: ModeNaive, Workers: 4}, Options{Mode: ModeCertain, Workers: 4}

	for _, in := range []struct {
		name   string
		db     *table.Database
		scans  []Request
		points []Request // answers the writer does not change
	}{
		{"base", small, []Request{{Query: ra.Base("R"), Opts: naive}, {Query: ra.Base("R"), Opts: certain}}, nil},
		{"points and a scan", big, []Request{{Query: scan, Opts: certain}, {Query: scan, Opts: naive}}, []Request{
			{Query: point(7), Opts: certain}, {Query: point(20), Opts: naive}, {Query: point(4011), Opts: certain}, {Query: point(30), Opts: certain},
		}},
	} {
		eng := New(in.db)
		var reqs []Request
		for _, r := range append(in.scans, in.points...) {
			reqs = append(reqs, r, r)
		}
		before := eng.Serve(reqs, 1)

		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 100; i++ {
				_ = eng.Update(func(db *table.Database) error {
					return db.Add("R", table.NewTuple(value.Int(int64(10000+i)), value.Int(int64(i))))
				})
			}
		}()

		for i := 0; i < 50; i++ {
			resp := eng.Serve(reqs, 4)
			for j := 0; j < len(resp); j += 2 {
				if resp[j].Err != nil || resp[j+1].Err != nil {
					t.Fatalf("%s: batch errors: %v, %v", in.name, resp[j].Err, resp[j+1].Err)
				}
				if resp[j].Rel.CanonicalKey() != resp[j+1].Rel.CanonicalKey() {
					t.Fatalf("%s: one batch saw two different database states", in.name)
				}
				if j >= 2*len(in.scans) && resp[j].Rel.CanonicalKey() != before[j].Rel.CanonicalKey() {
					t.Fatalf("%s: %s answers %s, and %s before the writes", in.name, reqs[j].Query, resp[j].Rel, before[j].Rel)
				}
			}
		}
		<-done
	}
}

// TestConcurrentViewReadersWithWriter stresses maintained views under
// concurrency: a writer commits updates (each refreshing the registered
// views under the engine lock) while readers pull view answers, take
// snapshots and evaluate the same queries directly.  Under -race this
// checks that the copy-on-write answer clones handed out by Answers are
// safe to read while the next refresh mutates the view's materialization,
// and that delta capture never races snapshot readers.
func TestConcurrentViewReadersWithWriter(t *testing.T) {
	s := schema.MustNew(
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "b", "c"),
	)
	d := table.NewDatabase(s)
	d.MustAddRow("R", "1", "2")
	d.MustAddRow("R", "3", "⊥1")
	d.MustAddRow("S", "2", "4")
	eng := New(d)

	joinQ := ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}}
	diffQ := ra.Diff{Left: ra.Base("R"), Right: ra.Rename{Input: ra.Base("S"), As: "S2", Attrs: []string{"a", "b"}}}
	if err := eng.Register("join", joinQ, Options{Mode: ModeCertain}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Register("diff", diffQ, Options{Mode: ModeCertain, Planner: PlannerOff}); err != nil {
		t.Fatal(err)
	}

	const (
		writes         = 80
		readers        = 4
		readsPerReader = 60
	)
	var wg sync.WaitGroup
	wg.Add(1 + readers)
	errs := make(chan error, readers+1)

	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			i := i
			err := eng.Update(func(db *table.Database) error {
				switch i % 4 {
				case 0:
					return db.Add("R", table.NewTuple(value.Int(int64(i)), value.Null(1)))
				case 1:
					return db.Add("S", table.NewTuple(value.Int(int64(i%7)), value.Int(int64(i))))
				case 2:
					return db.Add("R", table.NewTuple(value.Int(int64(i%5)), value.Int(int64(i%7))))
				default:
					ts := db.Relation("R").SortedTuples()
					if len(ts) > 0 {
						db.Relation("R").Remove(ts[i%len(ts)])
					}
					return nil
				}
			})
			if err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		r := r
		go func() {
			defer wg.Done()
			for i := 0; i < readsPerReader; i++ {
				name, q := "join", ra.Expr(joinQ)
				if (r+i)%2 == 1 {
					name, q = "diff", diffQ
				}
				ans, err := eng.Answers(name)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				// The handed-out clone must stay stable while refreshes land.
				key := ans.CanonicalKey()
				snap := eng.Snapshot()
				if _, err := snap.Eval(q, Options{Mode: ModeCertain}); err != nil {
					errs <- fmt.Errorf("reader %d eval: %w", r, err)
					return
				}
				if ans.CanonicalKey() != key {
					errs <- fmt.Errorf("reader %d: view answer mutated after handout", r)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Quiesced: every view must equal from-scratch evaluation.
	for name, q := range map[string]ra.Expr{"join": joinQ, "diff": diffQ} {
		got, err := eng.Answers(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Eval(q, Options{Mode: ModeCertain})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("view %s diverged after concurrent run:\ngot  %v\nwant %v", name, got, want)
		}
	}
}

// TestConcurrentAsOfReadersWithCommitter is the version-history stress
// test: one writer keeps updating and committing while readers time-travel
// to random historical commits and evaluate queries there (planned and
// oracle paths).  Run under -race it checks the history's internal
// locking, the shared reconstructed states and the stamp-validated plan
// caches; in any mode it checks that a historical read is repeatable — the
// same commit always yields the same answer, no matter how far the head
// has moved.
func TestConcurrentAsOfReadersWithCommitter(t *testing.T) {
	s := schema.MustNew(
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "b", "c"),
	)
	d := table.NewDatabase(s)
	d.MustAddRow("R", "1", "⊥1")
	d.MustAddRow("S", "3", "4")
	eng := New(d)
	root, err := eng.EnableHistory(HistoryOptions{CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}

	queries := []ra.Expr{
		ra.Base("R"),
		ra.Project{Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}, Attrs: []string{"a", "c"}},
	}
	modes := []Options{
		{Mode: ModeCertain},
		{Mode: ModeNaive, Planner: PlannerOff},
		{Mode: ModeCertainCWA, ExtraFresh: 1, MaxWorlds: 1 << 16},
	}

	const (
		commits        = 40
		readers        = 4
		readsPerReader = 60
	)

	// answers[i] is the fingerprint each query/mode produced at ids[i],
	// recorded by the writer right after committing; readers must
	// reproduce it exactly via AsOf.
	type recorded struct {
		id  version.CommitID
		fps []string
	}
	var (
		mu      sync.Mutex
		history = []recorded{}
	)
	record := func(id version.CommitID) error {
		snap, err := eng.AsOf(id)
		if err != nil {
			return err
		}
		var fps []string
		for _, q := range queries {
			for _, opts := range modes {
				rel, err := snap.Eval(q, opts)
				if err != nil {
					return err
				}
				fps = append(fps, fp(rel))
			}
		}
		mu.Lock()
		history = append(history, recorded{id: id, fps: fps})
		mu.Unlock()
		return nil
	}
	if err := record(root); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1 + readers)
	errs := make(chan error, readers+1)

	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			if err := eng.Update(func(db *table.Database) error {
				return db.Add("R", table.NewTuple(value.String(fmt.Sprintf("w%d", i)), value.Int(int64(i%5))))
			}); err != nil {
				errs <- err
				return
			}
			id, err := eng.Commit(fmt.Sprintf("c%d", i))
			if err != nil {
				errs <- err
				return
			}
			if err := record(id); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < readsPerReader; i++ {
				mu.Lock()
				rec := history[rng.Intn(len(history))]
				mu.Unlock()
				snap, err := eng.AsOf(rec.id)
				if err != nil {
					errs <- err
					return
				}
				j := 0
				for _, q := range queries {
					for _, opts := range modes {
						rel, err := snap.Eval(q, opts)
						if err != nil {
							errs <- err
							return
						}
						if got := fp(rel); got != rec.fps[j] {
							errs <- fmt.Errorf("historical read of %s changed: query %d mode %d", rec.id, j/len(modes), j%len(modes))
							return
						}
						j++
					}
				}
			}
		}(int64(r))
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
