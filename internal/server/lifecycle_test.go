package server

// Session-lifecycle tests: snapshot pinning across concurrent commits,
// deterministic subscriber delta streams (including commits that must NOT
// push), admission-control backpressure with typed BUSY errors, the
// session cap, graceful-shutdown draining, and the STATS report.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"incdata/internal/engine"
	"incdata/internal/server/client"
	"incdata/internal/server/wire"
)

// TestCommitsSurviveServerRestart pins the durable deployment: a server
// over a store-attached engine makes every wire COMMIT durable, so a new
// server process over the same directory serves the committed state.
func TestCommitsSurviveServerRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	eng := testEngine(t)
	if err := eng.Persist(dir); err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := dial(t, addr.String())
	if _, err := cl.Update(client.Add("R", "7", "8")); err != nil {
		t.Fatal(err)
	}
	id, err := cl.Commit("wire-commit")
	if err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh engine over the same directory, a fresh server.
	eng2, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	srv2, err := New(eng2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl2 := dial(t, addr2.String())
	if cl2.Head != id {
		t.Fatalf("recovered head %s, want the wire commit %s", cl2.Head, id)
	}
	resp, err := cl2.Query("R", "certain", "on", 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range resp.Rows {
		if len(row) == 2 && row[0] == "7" && row[1] == "8" {
			found = true
		}
	}
	if !found {
		t.Fatalf("the committed row did not survive the restart: %v", resp.Rows)
	}
}

// serveCorruptR serves a store whose chunk of R fails its hash check and
// returns a session on it and the chunk's name.
func serveCorruptR(t *testing.T) (*client.Client, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	eng := testEngine(t)
	if err := eng.Persist(dir); err != nil {
		t.Fatal(err)
	}
	r := eng.Snapshot().Database().Relation("R")
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Persist writes R, smaller than a chunk, as one chunk: its tuple count
	// and sorted tuple keys, addressed by SHA-256.
	payload := binary.AppendUvarint(nil, uint64(r.Len()))
	for _, tu := range r.SortedTuples() {
		payload = tu.AppendKey(payload)
	}
	sum := sha256.Sum256(payload)
	chunk := hex.EncodeToString(sum[:])
	path := filepath.Join(dir, "chunks", chunk[:2], chunk)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[0] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	eng2, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng2.Close() })
	srv, err := New(eng2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return dial(t, addr.String()), chunk
}

// TestCorruptChunkIsAnEvalError: on a store whose chunk of R fails its hash
// check, a query on R gets an eval error naming the chunk, and the same
// session goes on to answer a query on the intact S and a STATS.
func TestCorruptChunkIsAnEvalError(t *testing.T) {
	cl, chunk := serveCorruptR(t)
	_, err := cl.Query("R", "certain", "on", 0)
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeEval || !strings.Contains(re.Msg, chunk) {
		t.Fatalf("query on the corrupt R: %v, want an eval error naming chunk %s", err, chunk)
	}
	resp, err := cl.Query("S", "certain", "on", 0)
	if err != nil {
		t.Fatalf("query on the intact S: %v", err)
	}
	if got := flat(resp.Columns, resp.Rows); got != "b,c\n2,3" {
		t.Fatalf("S answered %q", got)
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("STATS after the failed query: %v", err)
	}
}

// TestCorruptChunkFailsTheUpdate: an UPDATE of R on that store gets an eval
// error naming the chunk instead of ending the server, and the same session
// goes on to answer a query on the intact S.
func TestCorruptChunkFailsTheUpdate(t *testing.T) {
	cl, chunk := serveCorruptR(t)
	_, err := cl.Update(client.Add("R", "7", "8"))
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeEval || !strings.Contains(re.Msg, chunk) {
		t.Fatalf("UPDATE of the corrupt R: %v, want an eval error naming chunk %s", err, chunk)
	}
	resp, err := cl.Query("S", "certain", "on", 0)
	if err != nil {
		t.Fatalf("query on the intact S after the failed UPDATE: %v", err)
	}
	if got := flat(resp.Columns, resp.Rows); got != "b,c\n2,3" {
		t.Fatalf("S answered %q", got)
	}
}

// TestSnapshotPinning pins the session-isolation contract: a session's
// first QUERY pins the state it sees, commits by other sessions stay
// invisible until REFRESH, and REFRESH reveals them.
func TestSnapshotPinning(t *testing.T) {
	srv, eng, addr := startServer(t, Config{})
	reader := dial(t, addr)
	writer := dial(t, addr)
	const q = "project(R; a)"

	first, err := reader.Query(q, "certain", "on", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Update(client.Add("R", "50", "2")); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Commit("add 50"); err != nil {
		t.Fatal(err)
	}

	pinned, err := reader.Query(q, "certain", "on", 0)
	if err != nil {
		t.Fatal(err)
	}
	if flat(pinned.Columns, pinned.Rows) != flat(first.Columns, first.Rows) {
		t.Fatalf("pinned session saw a concurrent commit:\nbefore:\n%s\nafter:\n%s",
			flat(first.Columns, first.Rows), flat(pinned.Columns, pinned.Rows))
	}

	head, err := reader.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if head == "" {
		t.Fatal("REFRESH did not name the head commit")
	}
	refreshed, err := reader.Query(q, "certain", "on", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := localFlat(t, srv, eng.Snapshot(), q, "certain", "on")
	if got := flat(refreshed.Columns, refreshed.Rows); got != want {
		t.Fatalf("after refresh:\nremote:\n%s\nlocal:\n%s", got, want)
	}
	if flat(refreshed.Columns, refreshed.Rows) == flat(first.Columns, first.Rows) {
		t.Fatal("refresh did not reveal the new commit")
	}
}

// TestSubscriberStream is the deterministic subscription test: an insert
// that changes the view pushes exactly its answer delta, a commit that
// cannot change the view pushes nothing, a delete pushes the removal, and
// UNSUBSCRIBE stops the stream.
func TestSubscriberStream(t *testing.T) {
	_, _, addr := startServer(t, Config{})
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
	if baseline.View != "V" || baseline.Kind != wire.KindResult {
		t.Fatalf("subscribe reply: %+v", baseline)
	}

	writer := dial(t, addr)

	// R(9,2) joins S(2,3): the view gains (9,3).
	if _, err := writer.Update(client.Add("R", "9", "2")); err != nil {
		t.Fatal(err)
	}
	c1, err := writer.Commit("add 9")
	if err != nil {
		t.Fatal(err)
	}
	push, err := sub.NextDelta(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if push.View != "V" || push.Commit != c1 {
		t.Fatalf("push: view=%s commit=%s, want V/%s", push.View, push.Commit, c1)
	}
	if len(push.Inserted) != 1 || len(push.Deleted) != 0 ||
		push.Inserted[0][0] != "9" || push.Inserted[0][1] != "3" {
		t.Fatalf("push delta: +%v -%v, want +[(9,3)]", push.Inserted, push.Deleted)
	}

	// S(7,8) joins nothing: the view is refreshed but unchanged, so the
	// commit must not push.
	if _, err := writer.Update(client.Add("S", "7", "8")); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Commit("irrelevant"); err != nil {
		t.Fatal(err)
	}
	if push, err := sub.NextDelta(300 * time.Millisecond); err == nil {
		t.Fatalf("no-change commit pushed %+v", push)
	}

	// Deleting R(9,2) takes (9,3) back out.
	if _, err := writer.Update(client.Delete("R", "9", "2")); err != nil {
		t.Fatal(err)
	}
	c3, err := writer.Commit("del 9")
	if err != nil {
		t.Fatal(err)
	}
	push, err = sub.NextDelta(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if push.Commit != c3 || len(push.Deleted) != 1 || len(push.Inserted) != 0 ||
		push.Deleted[0][0] != "9" || push.Deleted[0][1] != "3" {
		t.Fatalf("push delta: +%v -%v at %s, want -[(9,3)] at %s", push.Inserted, push.Deleted, push.Commit, c3)
	}

	// After UNSUBSCRIBE the stream is silent.
	if err := sub.Unsubscribe("V"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Update(client.Add("R", "11", "2")); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Commit("add 11"); err != nil {
		t.Fatal(err)
	}
	if push, err := sub.NextDelta(300 * time.Millisecond); err == nil {
		t.Fatalf("push after unsubscribe: %+v", push)
	}
}

// TestBackpressureBusy pins the admission gate: with one execution slot
// held, a second request times out of the queue with a typed BUSY error
// rather than piling up, and the rejection is counted.
func TestBackpressureBusy(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hook := func(op string) {
		if op == wire.OpQuery {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	}
	srv, _, addr := startServerWithHook(t, Config{MaxInflight: 1, RequestTimeout: 100 * time.Millisecond}, hook)

	slow := dial(t, addr)
	type result struct {
		resp wire.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := slow.Query("R", "certain", "on", 0)
		done <- result{resp, err}
	}()
	<-entered

	fast := dial(t, addr)
	_, err := fast.Query("R", "certain", "on", 0)
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeBusy {
		t.Fatalf("gated request: err = %v, want BUSY", err)
	}

	close(release)
	res := <-done
	if res.err != nil {
		t.Fatalf("slot holder failed: %v", res.err)
	}
	if srv.rejected.Load() == 0 {
		t.Fatal("rejection not counted")
	}
	// The slot is free again: the previously refused client succeeds.
	if _, err := fast.Query("R", "certain", "on", 0); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestSessionLimit pins admission at accept time: above MaxSessions a
// connection is refused with a BUSY error, and closing a session frees
// its slot.
func TestSessionLimit(t *testing.T) {
	_, _, addr := startServer(t, Config{MaxSessions: 1})
	first, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Dial(addr)
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeBusy {
		t.Fatalf("over-limit dial: err = %v, want BUSY", err)
	}
	first.Close()
	// The slot frees asynchronously as the server tears the session down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl, err := client.Dial(addr)
		if err == nil {
			cl.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulDrain pins the shutdown contract: Close waits for the
// in-flight request to finish and its reply to flush before sockets
// close, so the client gets its answer, not a reset.
func TestGracefulDrain(t *testing.T) {
	entered := make(chan struct{})
	var once sync.Once
	hook := func(op string) {
		if op == wire.OpQuery {
			once.Do(func() {
				close(entered)
				time.Sleep(300 * time.Millisecond)
			})
		}
	}
	srv, _, addr := startServerWithHook(t, Config{}, hook)

	cl := dial(t, addr)
	type result struct {
		resp wire.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := cl.Query("R", "certain", "on", 0)
		done <- result{resp, err}
	}()
	<-entered

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 200*time.Millisecond {
		t.Fatalf("Close returned in %v without draining the in-flight request", elapsed)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request lost during shutdown: %v", res.err)
	}
	if res.resp.Kind != wire.KindResult {
		t.Fatalf("in-flight reply: %+v", res.resp)
	}
	// New requests on the drained server fail rather than hang.
	if _, err := cl.Query("R", "certain", "on", 0); err == nil {
		t.Fatal("query after shutdown should fail")
	}
}

// TestStatsReport pins the STATS payload: session and admission counters,
// the head commit, and per-view refresh counters, all present.
func TestStatsReport(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	cl := dial(t, addr)
	if err := cl.Register("V", "project(R; a)", "certain", "on"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Update(client.Add("R", "77", "2")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Commit("bump"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Query("R", "certain", "on", 0); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions < 1 {
		t.Errorf("sessions = %d, want >= 1", st.Sessions)
	}
	if st.Served == 0 {
		t.Error("served counter is zero after served requests")
	}
	if st.Head == "" {
		t.Error("head commit missing")
	}
	vc, ok := st.Views["V"]
	if !ok {
		t.Fatalf("views = %v, want V", st.Views)
	}
	if vc.Updates == 0 {
		t.Error("view update counter is zero after an update")
	}

	// World sweeps are counted per evaluation path.  The planned sweep of a
	// query over R ranges over R's one null only (six constants: 6 worlds,
	// none of which decides the answer early); the oracle's over both nulls.
	for _, planner := range []string{"on", "off"} {
		if _, err := cl.Query("project(R; a)", "certain-cwa", planner, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st, err = cl.Stats(); err != nil {
		t.Fatal(err)
	}
	if p := st.Planned; p.Sweeps != 1 || p.WorldsEvaluated != 6 || p.SweepEarlyExits != 0 {
		t.Errorf("planned sweep counters = %+v, want 1 sweep of 6 worlds", p)
	}
	if o := st.Oracle; o.Sweeps != 1 || o.WorldsEvaluated != 36 || o.SweepEarlyExits != 0 {
		t.Errorf("oracle sweep counters = %+v, want 1 sweep of 36 worlds", o)
	}
}
