package main

// Remote-mode tests: incq -connect against an in-process server, pinning
// the exit-code contract for malformed requests (2 for parse errors,
// local or server-classified; 1 for evaluation, data, and connection
// failures) and the happy paths across modes and ASOF.

import (
	"testing"

	"incdata/internal/engine"
	"incdata/internal/schema"
	"incdata/internal/server"
	"incdata/internal/server/client"
	"incdata/internal/table"
)

// startTestServer serves a small database on a random port and returns
// its address.
func startTestServer(t *testing.T) string {
	t.Helper()
	s := schema.MustNew(
		schema.NewRelation("Order", "o_id", "product"),
		schema.NewRelation("Pay", "p_id", "order"),
	)
	d := table.NewDatabase(s)
	d.MustAddRow("Order", "oid1", "pr1")
	d.MustAddRow("Order", "oid2", "pr2")
	d.MustAddRow("Pay", "pid1", "⊥1")
	eng := engine.New(d)
	srv, err := server.New(eng, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr.String()
}

// TestRemoteRunModes covers the -connect happy path in every mode and
// planner setting.
func TestRemoteRunModes(t *testing.T) {
	addr := startTestServer(t)
	query := "diff(project(Order; o_id), project(Pay; order))"
	for _, mode := range []string{"naive", "certain", "certain-cwa", "certain-owa", "certain-object"} {
		if err := run([]string{"-connect", addr, "-mode", mode, query}); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
	for _, args := range [][]string{
		{"-connect", addr, "-planner", "off", query},
		{"-connect", addr, "-workers", "2", query},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	// The three enumeration modes each ran one sweep on the planned path,
	// and STATS says so; the difference's running intersection empties on
	// the second world, so at least the certain-cwa sweep stopped early.
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if p := st.Planned; p.Sweeps != 3 || p.WorldsEvaluated < 3 || p.SweepEarlyExits == 0 || st.Oracle.Sweeps != 0 {
		t.Errorf("STATS after the mode runs: planned %+v, oracle %+v; want 3 planned sweeps, one cut short", p, st.Oracle)
	}
}

// TestRemoteExitCodes pins the failure classification over the wire:
// malformed invocations exit 2, server-side evaluation and connection
// failures exit 1.
func TestRemoteExitCodes(t *testing.T) {
	addr := startTestServer(t)
	cases := []struct {
		args []string
		code int
	}{
		{[]string{"-connect", addr}, 2},                                 // missing query
		{[]string{"-connect", addr, "project(Order"}, 2},                // query parse error
		{[]string{"-connect", addr, "-mode", "bogus", "Order"}, 2},      // bad mode
		{[]string{"-connect", addr, "-planner", "maybe", "Order"}, 2},   // bad planner
		{[]string{"-connect", addr, "-log"}, 2},                         // -log needs local data
		{[]string{"-connect", addr, "-diff", "a..b"}, 2},                // -diff needs local data
		{[]string{"-connect", addr, "Nope"}, 1},                         // unknown relation (server eval error)
		{[]string{"-connect", addr, "-as-of", "nope", "Order"}, 1},      // unknown commit (server eval error)
		{[]string{"-connect", "127.0.0.1:1", "Order"}, 1},               // connection refused
		{[]string{"-connect", addr, "-mode", "certain-cwa", "Nope"}, 1}, // unknown relation under enumeration
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Errorf("run(%v) should fail", c.args)
			continue
		}
		if got := exitCode(err); got != c.code {
			t.Errorf("run(%v): exit code %d, want %d (err: %v)", c.args, got, c.code, err)
		}
	}
}

// TestRemoteASOF pins -as-of over -connect: the session is pinned to the
// named commit before the query runs.
func TestRemoteASOF(t *testing.T) {
	s := schema.MustNew(schema.NewRelation("R", "a"))
	d := table.NewDatabase(s)
	d.MustAddRow("R", "1")
	eng := engine.New(d)
	srv, err := server.New(eng, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	if err := eng.Update(func(db *table.Database) error {
		return db.Add("R", table.MustParseTuple("2"))
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commit("second"); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-connect", addr.String(), "-as-of", "init", "R"}); err != nil {
		t.Errorf("asof root commit: %v", err)
	}
	if err := run([]string{"-connect", addr.String(), "-as-of", "second", "R"}); err != nil {
		t.Errorf("asof second commit: %v", err)
	}
}
