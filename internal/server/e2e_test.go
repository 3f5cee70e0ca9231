package server

// End-to-end tests: a real server on a random port, driven through real
// TCP connections by the shared Go client, checked for bit-identical
// answers against direct in-process evaluation on the same engine — per
// evaluation mode and planner setting, on live snapshots, ASOF-pinned
// historical commits, and SUBSCRIBE delta streams, with at least four
// clients hammering the server concurrently.  Run under -race in CI.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"incdata/internal/engine"
	"incdata/internal/queryparse"
	"incdata/internal/schema"
	"incdata/internal/server/client"
	"incdata/internal/server/wire"
	"incdata/internal/table"
	"incdata/internal/version"
	"incdata/internal/workload"
)

// cid converts a wire commit id back to the engine's typed form.
func cid(s string) version.CommitID { return version.CommitID(s) }

// testEngine builds an engine over a small two-relation database, with
// marked nulls so every evaluation mode has real work to do.
func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	s := schema.MustNew(
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "b", "c"),
	)
	d := table.NewDatabase(s)
	d.MustAddRow("R", "1", "2")
	d.MustAddRow("R", "2", "⊥1")
	d.MustAddRow("S", "2", "3")
	d.MustAddRow("S", "⊥2", "4")
	return engine.New(d)
}

// startServer serves a testEngine database on a random port.
func startServer(t *testing.T, cfg Config) (*Server, *engine.Engine, string) {
	t.Helper()
	return startServerWithHook(t, cfg, nil)
}

// startServerWithHook is startServer with the test execution hook
// installed before the listener starts, so every handler observes it.
func startServerWithHook(t *testing.T, cfg Config, hook func(op string)) (*Server, *engine.Engine, string) {
	t.Helper()
	eng := testEngine(t)
	srv, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.testHookExec = hook
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, eng, addr.String()
}

// dial connects a test client.
func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// flat serializes an answer for comparison: header line plus one line per
// row, exactly as they crossed the wire.
func flat(cols []string, rows [][]string) string {
	parts := make([]string, 0, len(rows)+1)
	parts = append(parts, strings.Join(cols, ","))
	for _, r := range rows {
		parts = append(parts, strings.Join(r, ","))
	}
	return strings.Join(parts, "\n")
}

// localFlat evaluates the query in-process on snap with exactly the
// options the server builds for (mode, planner), serialized the same way
// the server serializes — the "bit-identical across the wire" oracle.
func localFlat(t *testing.T, srv *Server, snap *engine.Snapshot, query, mode, planner string) string {
	t.Helper()
	opts, err := srv.evalOptions(wire.Request{Mode: mode, Planner: planner})
	if err != nil {
		t.Fatal(err)
	}
	expr, err := queryparse.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := snap.Eval(expr, opts)
	if err != nil {
		t.Fatal(err)
	}
	return flat(relRows(rel))
}

var e2eModes = []string{"naive", "certain", "certain-cwa", "certain-owa", "certain-object"}

// TestE2EModesBitIdentical requires every remote answer — every mode,
// planner on and off — to serialize identically to direct in-process
// evaluation of the same query on the same engine.
func TestE2EModesBitIdentical(t *testing.T) {
	srv, eng, addr := startServer(t, Config{})
	cl := dial(t, addr)
	queries := []string{
		"R",
		"project(join(R, S); a, c)",
		"diff(project(R; a), project(S; b))",
	}
	for _, q := range queries {
		for _, mode := range e2eModes {
			for _, planner := range []string{"on", "off"} {
				resp, err := cl.Query(q, mode, planner, 0)
				if err != nil {
					t.Fatalf("%s mode=%s planner=%s: %v", q, mode, planner, err)
				}
				want := localFlat(t, srv, eng.Snapshot(), q, mode, planner)
				if got := flat(resp.Columns, resp.Rows); got != want {
					t.Errorf("%s mode=%s planner=%s:\nremote:\n%s\nlocal:\n%s", q, mode, planner, got, want)
				}
			}
		}
	}
}

// TestE2EASOFSession pins a session to historical commits and requires the
// remote answers to match in-process AsOf evaluation at the same commits,
// in every mode.
func TestE2EASOFSession(t *testing.T) {
	srv, eng, addr := startServer(t, Config{})
	cl := dial(t, addr)
	const q = "project(join(R, S); a, c)"

	// Two commits: add a joining row, then delete it again.
	if _, err := cl.Update(client.Add("R", "7", "2")); err != nil {
		t.Fatal(err)
	}
	c1, err := cl.Commit("add 7")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Update(client.Delete("R", "7", "2")); err != nil {
		t.Fatal(err)
	}
	c2, err := cl.Commit("del 7")
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatalf("distinct commits expected, both %s", c1)
	}

	for _, ref := range []string{c1, c2, "add 7"} {
		id, err := cl.AsOf(ref)
		if err != nil {
			t.Fatalf("asof %s: %v", ref, err)
		}
		snap, err := eng.AsOf(cid(id))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range e2eModes {
			for _, planner := range []string{"on", "off"} {
				resp, err := cl.Query(q, mode, planner, 0)
				if err != nil {
					t.Fatalf("asof %s mode=%s: %v", ref, mode, err)
				}
				want := localFlat(t, srv, snap, q, mode, planner)
				if got := flat(resp.Columns, resp.Rows); got != want {
					t.Errorf("asof %s mode=%s planner=%s:\nremote:\n%s\nlocal:\n%s", ref, mode, planner, got, want)
				}
			}
		}
	}

	// Back to the head: REFRESH answers must match live evaluation.
	if _, err := cl.Refresh(); err != nil {
		t.Fatal(err)
	}
	resp, err := cl.Query(q, "certain", "on", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := flat(resp.Columns, resp.Rows), localFlat(t, srv, eng.Snapshot(), q, "certain", "on"); got != want {
		t.Errorf("after refresh:\nremote:\n%s\nlocal:\n%s", got, want)
	}
}

// rowSet is a mutable answer state keyed by serialized row, for replaying
// subscription delta streams.
type rowSet map[string]struct{}

func (rs rowSet) apply(push wire.Response) error {
	for _, r := range push.Deleted {
		k := strings.Join(r, ",")
		if _, ok := rs[k]; !ok {
			return fmt.Errorf("delta deletes absent row %q", k)
		}
		delete(rs, k)
	}
	for _, r := range push.Inserted {
		k := strings.Join(r, ",")
		if _, ok := rs[k]; ok {
			return fmt.Errorf("delta inserts duplicate row %q", k)
		}
		rs[k] = struct{}{}
	}
	return nil
}

func (rs rowSet) equal(rows [][]string) bool {
	if len(rs) != len(rows) {
		return false
	}
	for _, r := range rows {
		if _, ok := rs[strings.Join(r, ",")]; !ok {
			return false
		}
	}
	return true
}

// TestE2EConcurrentClients is the headline end-to-end test: six clients —
// two writers committing updates, two ASOF readers time-traveling to
// recorded commits, one live reader, one subscriber — run concurrently
// against one server.  Every ASOF answer must match in-process evaluation
// at the same commit, and after the dust settles the subscriber's delta
// stream must replay to the view's recomputed answer at every commit it
// was pushed for.
func TestE2EConcurrentClients(t *testing.T) {
	srv, eng, addr := startServer(t, Config{})
	const viewQ = "project(join(R, S); a, c)"

	setup := dial(t, addr)
	if err := setup.Register("V", viewQ, "certain", "on"); err != nil {
		t.Fatal(err)
	}
	sub := dial(t, addr)
	baseline, err := sub.Subscribe("V")
	if err != nil {
		t.Fatal(err)
	}
	acc := rowSet{}
	for _, r := range baseline.Rows {
		acc[strings.Join(r, ",")] = struct{}{}
	}

	var (
		commitMu sync.Mutex
		commits  []string
	)
	recordCommit := func(id string) {
		commitMu.Lock()
		defer commitMu.Unlock()
		for _, c := range commits {
			if c == id {
				return
			}
		}
		commits = append(commits, id)
	}
	someCommit := func(rnd *rand.Rand) string {
		commitMu.Lock()
		defer commitMu.Unlock()
		if len(commits) == 0 {
			return ""
		}
		return commits[rnd.Intn(len(commits))]
	}

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Two writers: each keeps inserting fresh R rows that join S (so the
	// view answer keeps changing) and committing.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < rounds; i++ {
				a := fmt.Sprintf("%d", 100+w*rounds+i)
				if _, err := cl.Update(client.Add("R", a, "2")); err != nil {
					errs <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
				id, err := cl.Commit(fmt.Sprintf("w%d-%d", w, i))
				if err != nil {
					errs <- fmt.Errorf("writer %d: %v", w, err)
					return
				}
				recordCommit(id)
			}
		}(w)
	}

	// Two ASOF readers: pin to a recorded commit and require the remote
	// answer to match in-process evaluation at exactly that commit.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			cl, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 2*rounds; i++ {
				ref := someCommit(rnd)
				if ref == "" {
					time.Sleep(time.Millisecond)
					continue
				}
				if _, err := cl.AsOf(ref); err != nil {
					errs <- fmt.Errorf("asof reader %d: %v", r, err)
					return
				}
				resp, err := cl.Query("project(R; a)", "certain", "on", 0)
				if err != nil {
					errs <- fmt.Errorf("asof reader %d: %v", r, err)
					return
				}
				snap, err := eng.AsOf(cid(ref))
				if err != nil {
					errs <- err
					return
				}
				want := localFlat(t, srv, snap, "project(R; a)", "certain", "on")
				if got := flat(resp.Columns, resp.Rows); got != want {
					errs <- fmt.Errorf("asof reader %d at %s:\nremote:\n%s\nlocal:\n%s", r, ref, got, want)
					return
				}
			}
		}(r)
	}

	// One live reader: snapshot-pinned queries and refreshes must never
	// error while writers churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl, err := client.Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer cl.Close()
		for i := 0; i < 2*rounds; i++ {
			if _, err := cl.Query(viewQ, "certain", "on", 0); err != nil {
				errs <- fmt.Errorf("live reader: %v", err)
				return
			}
			if _, err := cl.Refresh(); err != nil {
				errs <- fmt.Errorf("live reader: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Drain the subscriber's delta stream.  Applying each push in order
	// must reproduce the view's recomputed answer at that push's commit,
	// and the final state must equal the live answer.
	pushes := 0
	for {
		push, err := sub.NextDelta(500 * time.Millisecond)
		if err != nil {
			break // drained
		}
		pushes++
		if err := acc.apply(push); err != nil {
			t.Fatal(err)
		}
		snap, err := eng.AsOf(cid(push.Commit))
		if err != nil {
			t.Fatal(err)
		}
		want := localFlat(t, srv, snap, viewQ, "certain", "on")
		wantRows := strings.Split(want, "\n")[1:]
		rows := make([][]string, 0, len(wantRows))
		for _, r := range wantRows {
			if r != "" {
				rows = append(rows, strings.Split(r, ","))
			}
		}
		if !acc.equal(rows) {
			t.Fatalf("after push for commit %s: accumulated answer diverges from recomputation\nacc: %v\nwant rows: %v",
				push.Commit, acc, wantRows)
		}
	}
	if pushes == 0 {
		t.Fatal("subscriber saw no delta pushes despite view-changing commits")
	}
	live := localFlat(t, srv, eng.Snapshot(), viewQ, "certain", "on")
	liveRows := [][]string{}
	for _, r := range strings.Split(live, "\n")[1:] {
		if r != "" {
			liveRows = append(liveRows, strings.Split(r, ","))
		}
	}
	if !acc.equal(liveRows) {
		t.Fatalf("final accumulated answer diverges from live answer\nacc: %v\nlive:\n%s", acc, live)
	}
}

// TestE2EPointQueries sends equality selections through the wire until
// their index is there, across writes that patch it and an ASOF session
// that must scan, requiring every answer to match in-process oracle
// evaluation of the same state, and STATS to say which path served them.
func TestE2EPointQueries(t *testing.T) {
	db, _ := workload.Orders(workload.OrdersConfig{Orders: 5000, PaidFraction: 0.7, NullRate: 0.1, Seed: 9})
	eng := engine.New(db)
	srv, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := dial(t, addr.String())
	queries := func(oid string) []string {
		return []string{
			fmt.Sprintf("select(Order; o_id = '%s')", oid),
			fmt.Sprintf("project(select(Order; '%s' = o_id); product)", oid),
			fmt.Sprintf("select(Pay; order = '%s')", oid),
			fmt.Sprintf("diff(project(select(Order; o_id = '%s'); o_id), project(select(Pay; order = '%s'); order))", oid, oid),
		}
	}
	check := func(snap *engine.Snapshot, oid, label string) {
		t.Helper()
		for _, q := range queries(oid) {
			for _, mode := range []string{"certain", "naive"} {
				resp, err := cl.Query(q, mode, "on", 0)
				if err != nil {
					t.Fatalf("%s: %s: %v", label, q, err)
				}
				if got, want := flat(resp.Columns, resp.Rows), localFlat(t, srv, snap, q, mode, "off"); got != want {
					t.Fatalf("%s: %s mode=%s:\nremote:\n%s\noracle:\n%s", label, q, mode, got, want)
				}
			}
		}
	}
	for i := 0; i < 6; i++ {
		check(eng.Snapshot(), fmt.Sprint("oid", 10*i), "warm-up")
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if rc := st.Relations["Order"]; rc.IndexBuilds == 0 || rc.IndexLookups == 0 || rc.SelectScans == 0 {
		t.Fatalf("STATS after the warm-up: %+v; want scans, then a build, then lookups", st.Relations)
	}

	var commits []string
	for i := 0; i < 5; i++ {
		oid := fmt.Sprint("oid-w", i)
		if _, err := cl.Update(client.Add("Order", oid, "pr-w"), client.Add("Pay", "pid-w"+fmt.Sprint(i), oid, "12"),
			client.Delete("Order", fmt.Sprint("oid", 10*i), "no-such-product")); err != nil {
			t.Fatal(err)
		}
		c, err := cl.Commit(fmt.Sprint("write ", i))
		if err != nil {
			t.Fatal(err)
		}
		commits = append(commits, c)
		if _, err := cl.Refresh(); err != nil {
			t.Fatal(err)
		}
		check(eng.Snapshot(), oid, fmt.Sprint("after write ", i))
		check(eng.Snapshot(), fmt.Sprint("oid", 10*i), fmt.Sprint("after write ", i))
	}
	before, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.Relations["Order"].IndexPatches == 0 {
		t.Errorf("STATS after five writes: %+v; want patched indexes", before.Relations)
	}

	// An ASOF session reads a reconstructed state: its point query scans.
	id, err := cl.AsOf(commits[1])
	if err != nil {
		t.Fatal(err)
	}
	snap, err := eng.AsOf(cid(id))
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range []string{"oid-w1", "oid-w2"} {
		q := queries(oid)[0]
		resp, err := cl.Query(q, "certain", "on", 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := flat(resp.Columns, resp.Rows), localFlat(t, srv, snap, q, "certain", "off"); got != want {
			t.Fatalf("as of write 1: %s:\nremote:\n%s\noracle:\n%s", q, got, want)
		}
	}
	after, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if b, a := before.Relations["Order"], after.Relations["Order"]; a.IndexBuilds != b.IndexBuilds || a.SelectScans != b.SelectScans+2 {
		t.Errorf("STATS across the ASOF queries: %+v after %+v; want two scans and no build", a, b)
	}
}
