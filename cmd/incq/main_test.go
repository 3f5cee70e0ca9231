package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeData(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	order := "o_id,product\noid1,pr1\noid2,pr2\n"
	pay := "p_id,order,amount\npid1,⊥1,100\n"
	if err := os.WriteFile(filepath.Join(dir, "Order.csv"), []byte(order), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "Pay.csv"), []byte(pay), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// writeVersionedData lays out three successive database states as
// subdirectories, the versioned layout the history flags load.
func writeVersionedData(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	states := map[string]map[string]string{
		"v1": {
			"Order.csv": "o_id,product\noid1,pr1\noid2,pr2\n",
			"Pay.csv":   "p_id,order,amount\npid1,⊥1,100\n",
		},
		"v2": {
			"Order.csv": "o_id,product\noid1,pr1\noid2,pr2\noid3,pr3\n",
			"Pay.csv":   "p_id,order,amount\npid1,oid1,100\n",
		},
		"v3": {
			"Order.csv": "o_id,product\noid2,pr2\noid3,pr3\n",
			"Pay.csv":   "p_id,order,amount\npid1,oid1,100\npid2,oid3,50\n",
		},
	}
	for state, files := range states {
		if err := os.MkdirAll(filepath.Join(dir, state), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(dir, state, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	return dir
}

// TestFlatLayoutWinsOverStraySubdir pins that a data directory with
// top-level CSV files stays a plain layout even when a stray subdirectory
// also holds CSVs (e.g. a backup) — it must not be reinterpreted as a
// versioned layout.
func TestFlatLayoutWinsOverStraySubdir(t *testing.T) {
	dir := writeData(t)
	if err := os.MkdirAll(filepath.Join(dir, "backup"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "backup", "X.csv"), []byte("a\n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-data", dir, "project(Order; o_id)"}); err != nil {
		t.Errorf("flat layout with stray subdir: %v", err)
	}
	// History flags still refuse: the directory is flat.
	if err := run([]string{"-data", dir, "-log"}); err == nil || exitCode(err) != 1 {
		t.Errorf("history flag on flat layout must exit 1, got %v", err)
	}
}

func TestRunModes(t *testing.T) {
	dir := writeData(t)
	query := "diff(project(Order; o_id), project(Pay; order))"
	for _, mode := range []string{"naive", "certain", "certain-cwa", "certain-owa", "certain-object"} {
		if err := run([]string{"-data", dir, "-mode", mode, query}); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
}

func TestRunPlannerAndParallelFlags(t *testing.T) {
	dir := writeData(t)
	query := "diff(project(Order; o_id), project(Pay; order))"
	for _, args := range [][]string{
		{"-data", dir, "-planner", "on", query},
		{"-data", dir, "-planner", "off", query},
		{"-data", dir, "-mode", "certain-cwa", "-workers", "2", query},
		{"-data", dir, "-mode", "certain-cwa", "-planner", "off", "-workers", "2", query},
		{"-data", dir, "-mode", "certain-cwa", "-workers", "1", query},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	if err := run([]string{"-data", dir, "-parallel", query}); !errors.Is(err, errParse) {
		t.Errorf("-parallel, a removed flag: %v, want a parse error", err)
	}
}

// TestRunHistoryFlags covers the happy paths of the version-history
// flags on a versioned data directory: -log and -diff as standalone
// reports, -as-of combined with a query, and head evaluation.
func TestRunHistoryFlags(t *testing.T) {
	dir := writeVersionedData(t)
	query := "project(Order; o_id)"
	for _, args := range [][]string{
		{"-data", dir, "-log"},
		{"-data", dir, "-diff", "v1..v3"},
		{"-data", dir, "-diff", "v3..v1"},
		{"-data", dir, "-log", "-diff", "v1..v2", query},
		{"-data", dir, "-as-of", "v1", query},
		{"-data", dir, "-as-of", "v2", "-mode", "certain-cwa", query},
		{"-data", dir, "-as-of", "v3", "-planner", "off", query},
		{"-data", dir, query}, // head evaluation of a versioned layout
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestRunPersistAndDurableStore covers the durable-store layout: -persist
// converts a versioned directory into a store, and a -data pointing at
// the store serves the same history — -log, -diff, -as-of and head
// evaluation all work against the recovered commit DAG.
func TestRunPersistAndDurableStore(t *testing.T) {
	vdir := writeVersionedData(t)
	store := filepath.Join(t.TempDir(), "store")
	if err := run([]string{"-data", vdir, "-persist", store}); err != nil {
		t.Fatalf("persist: %v", err)
	}
	query := "project(Order; o_id)"
	for _, args := range [][]string{
		{"-data", store, "-log"},
		{"-data", store, "-diff", "v1..v3"},
		{"-data", store, "-as-of", "v1", query},
		{"-data", store, "-as-of", "v2", "-mode", "certain-cwa", query},
		{"-data", store, query}, // head evaluation of the recovered history
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	// -persist combines with a query: convert and evaluate in one call.
	store2 := filepath.Join(t.TempDir(), "store2")
	if err := run([]string{"-data", vdir, "-persist", store2, query}); err != nil {
		t.Errorf("persist with query: %v", err)
	}
	// Re-persisting a store is refused (it already is one), as is
	// persisting into an existing store directory.
	if err := run([]string{"-data", store, "-persist", filepath.Join(t.TempDir(), "s3")}); err == nil || exitCode(err) != 1 {
		t.Errorf("persisting a store must exit 1, got %v", err)
	}
	if err := run([]string{"-data", vdir, "-persist", store}); err == nil || exitCode(err) != 1 {
		t.Errorf("persisting into an existing store must exit 1, got %v", err)
	}
	// -persist is a local conversion; with -connect it is a usage error.
	if err := run([]string{"-connect", "127.0.0.1:1", "-persist", store, query}); err == nil || exitCode(err) != 2 {
		t.Errorf("-persist with -connect must exit 2, got %v", err)
	}
}

// TestExitCodes pins the failure classification: parse errors (bad flags,
// unknown modes, malformed queries, malformed -diff specs) exit with 2,
// data and evaluation errors (including unknown commits and history flags
// on unversioned directories) with 1.
func TestExitCodes(t *testing.T) {
	dir := writeData(t)
	vdir := writeVersionedData(t)
	cases := []struct {
		args []string
		code int
	}{
		{[]string{}, 2},                                             // missing query
		{[]string{"-data", dir, "a", "b"}, 2},                       // too many args
		{[]string{"-badflag"}, 2},                                   // flag parse error
		{[]string{"-data", dir, "project(Order"}, 2},                // query parse error
		{[]string{"-data", dir, "-mode", "bogus", "Order"}, 2},      // bad mode
		{[]string{"-data", dir, "-planner", "maybe", "Order"}, 2},   // bad planner
		{[]string{"-data", "/nope", "Order"}, 1},                    // bad data dir
		{[]string{"-data", dir, "Nope"}, 1},                         // unknown relation
		{[]string{"-data", dir, "-mode", "naive", "Nope"}, 1},       // unknown relation
		{[]string{"-data", dir, "-mode", "certain-cwa", "Nope"}, 1}, // unknown relation under enumeration
		{[]string{"-data", vdir, "-diff", "v1", "Order"}, 2},        // malformed -diff spec
		{[]string{"-data", vdir, "-diff", "..v1"}, 2},               // malformed -diff spec
		{[]string{"-data", vdir, "-as-of", "v1"}, 2},                // -as-of still needs a query
		{[]string{"-data", dir, "-as-of", "v1", "Order"}, 1},        // history flag on unversioned dir
		{[]string{"-data", dir, "-log"}, 1},                         // history flag on unversioned dir
		{[]string{"-data", dir, "-diff", "v1..v2"}, 1},              // history flag on unversioned dir
		{[]string{"-data", vdir, "-as-of", "nope", "Order"}, 1},     // unknown commit
		{[]string{"-data", vdir, "-as-of", "v", "Order"}, 1},        // unresolvable commit reference
		{[]string{"-data", vdir, "-diff", "v1..nope"}, 1},           // unknown commit in -diff
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
	if exitCode(nil) != 0 {
		t.Error("nil error must exit 0")
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := f()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil || runErr != nil {
		t.Fatalf("run: %v; reading its output: %v", runErr, err)
	}
	return string(out)
}

// TestPlannerOnPrintsPlan pins the operator-facing plan text: with the
// planner on, a query is followed by its physical plan, and a selection's
// scan says which access path it took — a one-shot run scans and builds no
// index.  The oracle path has no plan to print.
func TestPlannerOnPrintsPlan(t *testing.T) {
	dir := writeData(t)
	query := "project(select(Order; product = 'pr2' & 'oid2' = o_id); o_id)"
	out := captureStdout(t, func() error { return run([]string{"-data", dir, query}) })
	want := "plan:\nselect-project [o_id]\n  filter\n    scan Order [o_id = oid2 and product = pr2] scan: below build threshold 1/7\n"
	if !strings.HasSuffix(out, want) {
		t.Errorf("planner on: output\n%s\ndoes not end with\n%s", out, want)
	}
	out = captureStdout(t, func() error { return run([]string{"-data", dir, "-planner", "off", query}) })
	if strings.Contains(out, "plan:") {
		t.Errorf("planner off printed a plan:\n%s", out)
	}
}
