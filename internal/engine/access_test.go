package engine

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"incdata/internal/ra"
	"incdata/internal/table"
	"incdata/internal/value"
	"incdata/internal/version"
	"incdata/internal/workload"
)

// accessOptions is the planned execution matrix an access-path answer must
// not depend on.
func accessOptions() map[string]Options {
	out := map[string]Options{"budget": {MemBudget: 1 << 12}}
	for _, w := range []int{1, 2, 4} {
		out[fmt.Sprint("row/w", w)] = Options{Workers: w, Coded: CodedOff}
		out[fmt.Sprint("coded/w", w)] = Options{Workers: w}
	}
	return out
}

// pointQueries are selections on Order.o_id and Pay.order (which holds
// marked nulls) in the shapes a filter is fused into.
func pointQueries(oid string, ref value.Value) []ra.Expr {
	selO := ra.Select{Input: ra.Base("Order"), Pred: ra.Eq(ra.Attr("o_id"), ra.LitString(oid))}
	selP := ra.Select{Input: ra.Base("Pay"), Pred: ra.Eq(ra.Lit(ref), ra.Attr("order"))}
	return []ra.Expr{
		selO,
		selP,
		ra.Project{Input: selO, Attrs: []string{"product"}},
		ra.Project{Input: selP, Attrs: []string{"p_id", "amount"}},
		ra.Diff{Left: ra.Project{Input: selO, Attrs: []string{"o_id"}}, Right: ra.Project{Input: selP, Attrs: []string{"order"}}},
		ra.Project{Input: ra.Join{Left: selO, Right: ra.Rename{Input: ra.Base("Pay"), As: "P", Attrs: []string{"p_id", "o_id", "amount"}}}, Attrs: []string{"o_id", "amount"}},
	}
}

// checkPoint holds the planned answers of the point queries on snap, in
// both modes and under every option set, against the oracle's.
func checkPoint(t *testing.T, snap *Snapshot, oid string, ref value.Value, label string) {
	t.Helper()
	for _, q := range pointQueries(oid, ref) {
		for _, mode := range []Mode{ModeCertain, ModeNaive} {
			want, err := snap.Eval(q, Options{Mode: mode, Planner: PlannerOff})
			if err != nil {
				t.Fatal(err)
			}
			for name, o := range accessOptions() {
				o.Mode = mode
				got, err := snap.Eval(q, o)
				if err != nil {
					t.Fatalf("%s, %s, %s: %v", label, name, q, err)
				}
				if got.CanonicalKey() != want.CanonicalKey() {
					t.Fatalf("%s, %s, mode %s, %s: planned %s, oracle %s", label, name, mode, q, got, want)
				}
			}
		}
	}
}

// TestAccessPathAcrossUpdatesAndReopen drives point selections through
// Engine.Update → Commit → Snapshot sequences, so that their indexes are
// built once and patched after every write; through AsOf, whose
// reconstructions must answer by scanning and build nothing; and through
// Persist → Close → Open, over lazily loaded relations.
func TestAccessPathAcrossUpdatesAndReopen(t *testing.T) {
	db, _ := workload.Orders(workload.OrdersConfig{Orders: 6000, PaidFraction: 0.7, NullRate: 0.1, Seed: 5})
	eng := New(db)
	if _, err := eng.EnableHistory(HistoryOptions{CheckpointEvery: 4}); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := eng.Persist(dir); err != nil {
		t.Fatal(err)
	}

	// A one-off selection scans and builds nothing.
	checkOnce := ra.Select{Input: ra.Base("Order"), Pred: ra.Eq(ra.Attr("o_id"), ra.LitString("oid17"))}
	if got, err := eng.Eval(checkOnce, Options{}); err != nil || got.Len() != 1 {
		t.Fatalf("oid17: %v, %v", got, err)
	}
	if st := eng.Stats().Encoding["Order"]; st.IndexBuilds != 0 || st.SelectScans != 1 {
		t.Fatalf("after one selection: %+v", st)
	}
	if plan, err := eng.Explain(checkOnce); err != nil || !strings.Contains(plan, "scan Order [o_id = oid17] scan: below build threshold 1/") {
		t.Fatalf("Explain: %q, %v", plan, err)
	}

	// Warm: every configuration past its threshold, so every index kind is
	// there before the writes start.
	checkPoint(t, eng.Snapshot(), "oid40", value.String("oid40"), "warm-up")
	checkPoint(t, eng.Snapshot(), "oid41", value.Null(2), "warm-up")
	built := eng.Stats().Encoding
	if built["Order"].IndexBuilds == 0 || built["Pay"].IndexBuilds == 0 || built["Order"].IndexLookups == 0 {
		t.Fatalf("the warm-up built or used no index: %+v", built)
	}

	var ids []version.CommitID
	for i := 0; i < 12; i++ {
		oid := fmt.Sprint("oid-new", i)
		null := value.Null(uint64(900000 + i))
		if err := eng.Update(func(d *table.Database) error {
			d.MustAdd("Order", table.NewTuple(value.String(oid), value.String("pr-new")))
			d.MustAdd("Pay", table.NewTuple(value.String(fmt.Sprint("pid-new", i)), null, value.Int(5)))
			d.Relation("Order").Remove(table.NewTuple(value.String(fmt.Sprint("oid", 100+i)), value.String("never")))
			if i%3 == 0 {
				d.MustAdd("Pay", table.NewTuple(value.String(fmt.Sprint("pid-x", i)), value.String(oid), value.Int(6)))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		id, err := eng.Commit(fmt.Sprint("write ", i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		snap := eng.Snapshot()
		checkPoint(t, snap, oid, null, fmt.Sprint("after write ", i))
		checkPoint(t, snap, fmt.Sprint("oid", 40+i), value.String(oid), fmt.Sprint("after write ", i))
	}
	after := eng.Stats().Encoding
	for _, rel := range []string{"Order", "Pay"} {
		if after[rel].IndexPatches <= built[rel].IndexPatches {
			t.Errorf("%s: no index was patched across 12 writes: %+v after %+v", rel, after[rel], built[rel])
		}
		// The warm-up ran on the relation as loaded, one segment; the first
		// write fits the segment count to the size, which costs one rebuild
		// per index kind and position list.  None after that.
		if extra := after[rel].IndexBuilds - built[rel].IndexBuilds; extra > built[rel].IndexBuilds {
			t.Errorf("%s: %d index builds across 12 writes, %d before them: rebuilt, not patched", rel, extra, built[rel].IndexBuilds)
		}
	}

	// Time travel: each commit's state is reconstructed, answers by a scan
	// and builds nothing.
	for i, id := range ids {
		if i%4 == 3 {
			continue // a checkpoint: not a reconstruction
		}
		snap, err := eng.AsOf(id)
		if err != nil {
			t.Fatal(err)
		}
		before := eng.Stats().Encoding["Order"]
		q := ra.Select{Input: ra.Base("Order"), Pred: ra.Eq(ra.Attr("o_id"), ra.LitString(fmt.Sprint("oid-new", i)))}
		got, err := snap.Eval(q, Options{})
		if err != nil || got.Len() != 1 {
			t.Fatalf("as of %s: %v, %v", id, got, err)
		}
		if _, err := snap.Eval(ra.Select{Input: ra.Base("Order"), Pred: ra.Eq(ra.Attr("o_id"), ra.LitString(fmt.Sprint("oid-new", i+1)))}, Options{}); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats().Encoding["Order"]
		if st.IndexBuilds != before.IndexBuilds || st.IndexPatches != before.IndexPatches || st.SelectScans != before.SelectScans+2 {
			t.Fatalf("as of %s: %+v after %+v; want two scans, no build", id, st, before)
		}
	}

	// Reopen: the relations load lazily, the demand starts over.
	head := eng.Snapshot()
	want, err := head.Eval(checkOnce, Options{Planner: PlannerOff})
	if err != nil {
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
	for i := 0; i < 10; i++ {
		got, err := re.Eval(checkOnce, Options{})
		if err != nil || got.CanonicalKey() != want.CanonicalKey() {
			t.Fatalf("reopened, evaluation %d: %v, %v; want %s", i, got, err, want)
		}
	}
	if st := re.Stats().Encoding["Order"]; st.IndexBuilds != 1 || st.IndexLookups == 0 {
		t.Fatalf("reopened: %+v; want one build, then lookups", st)
	}
	checkPoint(t, re.Snapshot(), "oid-new3", value.Null(900003), "reopened")
}

// TestPointQueryAllocs pins the cost of warm queries through Engine.Eval with
// the default options on one worker (what the benchmark's one P resolves to,
// and the same on every host), in allocations and bytes per evaluation.  The
// first two are indexed point queries with one matching tuple:
// select(Order; o_id = c), which the row path answers from the index, and its
// projection, which goes through the coded gather; a one-row result must pay
// nothing for machinery sized for large ones.  The third is the unpaid-orders
// difference, whose result has 2199 rows: a warm evaluation may allocate its
// result — per row a value, a row header and its share of the slots — and a
// fixed slack, but nothing for the gather's set, which comes from the pools.
func TestPointQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	db, _ := workload.Orders(workload.OrdersConfig{Orders: 6000, PaidFraction: 0.7, NullRate: 0.1, Seed: 5})
	eng := New(db)
	sel := ra.Select{Input: ra.Base("Order"), Pred: ra.Eq(ra.Attr("o_id"), ra.LitString("oid40"))}
	unpaid := ra.Diff{
		Left:  ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}},
		Right: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}},
	}
	for _, tc := range []struct {
		name      string
		q         ra.Expr
		index     bool // served by the o_id index once warm
		maxAllocs float64
		maxBytes  uint64 // fixed part
		rowBytes  uint64 // and per result row
	}{
		{"select", sel, true, 16, 1008 + 64, 0}, // the runtime's own allocations add up to 40 bytes a run to either reading
		{"project", ra.Project{Input: sel, Attrs: []string{"product"}}, true, 31, 3554 + 64, 0},
		{"unpaid", unpaid, false, 40, 16 << 10, 110}, // 34 allocations and 85 bytes a row measured
	} {
		rows := -1
		eval := func() {
			got, err := eng.Eval(tc.q, Options{Workers: 1})
			if err != nil || (rows >= 0 && got.Len() != rows) || (tc.index && got.Len() != 1) {
				t.Fatalf("%s: %v, %v", tc.name, got, err)
			}
			rows = got.Len()
		}
		for i := 0; i < 32; i++ {
			eval()
		}
		if plan, err := eng.Explain(tc.q); tc.index && (err != nil || !strings.Contains(plan, "index(o_id)")) {
			t.Fatalf("%s is not served by an index after 32 evaluations: %q, %v", tc.name, plan, err)
		}
		// A collection now, and none during the runs: the pools the executor
		// draws chunks and sets from are refilled before measuring.
		runtime.GC()
		eval()
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, eval)
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun makes one warm-up call
		limit := tc.maxBytes + tc.rowBytes*uint64(rows)
		t.Logf("%s: %.0f allocations, %d bytes per evaluation of %d rows (%d a row)", tc.name, allocs, bytes, rows, bytes/uint64(rows))
		if allocs > tc.maxAllocs || bytes > limit {
			t.Errorf("%s: a warm evaluation of %d rows takes %.0f allocations and %d bytes, want at most %.0f and %d", tc.name, rows, allocs, bytes, tc.maxAllocs, limit)
		}
	}
}
