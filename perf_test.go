// Micro-benchmarks for the evaluator hot path, alongside the E1–E12
// experiment benchmarks in bench_test.go: tuple-key encoding, the hash
// join, world enumeration, and the cost of a write to a snapshotted
// relation and of bringing its sidecars up to date afterwards.  These are
// the numbers the perf work of each PR is judged against (see README.md,
// "Benchmarks").
package incdata_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"incdata/internal/certain"
	"incdata/internal/engine"
	"incdata/internal/plan"
	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/semantics"
	"incdata/internal/server"
	"incdata/internal/server/wire"
	"incdata/internal/table"
	"incdata/internal/valuation"
	"incdata/internal/value"
	"incdata/internal/workload"
)

func BenchmarkTupleKey(b *testing.B) {
	tuples := make([]table.Tuple, 64)
	for i := range tuples {
		tuples[i] = table.NewTuple(
			value.Int(int64(i)),
			value.String("customer-name"),
			value.Null(uint64(i%5)),
			value.Int(int64(i*7919)),
		)
	}
	b.Run("key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = tuples[i%len(tuples)].Key()
		}
	})
	b.Run("append-reuse", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 128)
		for i := 0; i < b.N; i++ {
			buf = tuples[i%len(tuples)].AppendKey(buf[:0])
		}
	})
}

func BenchmarkHashJoin(b *testing.B) {
	d := workload.Random(workload.RandomConfig{
		Relations: map[string]int{"R": 2, "S": 2}, TuplesPerRelation: 2000,
		DomainSize: 500, Nulls: 20, NullRate: 0.05, Seed: 3,
	})
	q := ra.Join{
		Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
		Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ra.Eval(q, d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorldEnum(b *testing.B) {
	d := workload.Random(workload.RandomConfig{
		Relations: map[string]int{"R": 2, "S": 2}, TuplesPerRelation: 10,
		DomainSize: 6, Nulls: 4, NullRate: 0.3, Seed: 19,
	})
	q := ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a", "c"},
	}
	ev := certain.NewEvaluator(true)
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ev.ByWorldsCWA(q, d, certain.Options{ExtraFresh: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ev.ByWorldsCWA(q, d, certain.Options{ExtraFresh: 1, Workers: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sweepDB is the shape of the repo benchmark's worlds-sweep databases: 40
// complete tuples per relation over 16 constants from workload.Random, plus
// nine tuples per relation that use three nulls (in the join column, in the
// other column, and beside a constant nothing else has, so a sweep's running
// intersection never empties): 20³ = 8000 worlds with one fresh constant.
func sweepDB(seed int64) *table.Database {
	const domain = 16
	db := workload.Random(workload.RandomConfig{
		Relations:         map[string]int{"R": 2, "S": 2},
		TuplesPerRelation: 40, DomainSize: domain, Seed: seed,
	})
	c := func(salt, k int) value.Value { return value.Int(1 + (seed*7+int64(salt*5+k))%domain) }
	null := func(k int) value.Value { return value.Null(uint64(1 + k%3)) }
	for k := 0; k < 4; k++ {
		db.MustAdd("R", table.NewTuple(c(1, k), null(k)))
		db.MustAdd("S", table.NewTuple(null(k+1), c(2, k)))
	}
	for k := 0; k < 2; k++ {
		db.MustAdd("R", table.NewTuple(null(k+2), c(3, k)))
		db.MustAdd("S", table.NewTuple(c(4, k), null(k)))
	}
	db.MustAdd("R", table.NewTuple(value.Int(domain+1), value.Null(1)))
	db.MustAdd("S", table.NewTuple(value.Null(2), value.Int(domain+2)))
	db.MustAdd("R", table.NewTuple(value.Int(domain+3), value.Null(3)))
	for v := int64(1); v <= domain; v++ {
		if !db.Consts()[value.Int(v)] {
			db.MustAdd("R", table.NewTuple(value.Int(v), value.Int(v)))
		}
	}
	return db
}

// sweepQuery is π_a(R ⋈ S) ∪ π_a(R), the first of the benchmark's templates.
var sweepQuery = ra.Union{
	Left: ra.Project{
		Input: ra.Join{
			Left:  ra.Rename{Input: ra.Base("R"), As: "R1", Attrs: []string{"a", "b"}},
			Right: ra.Rename{Input: ra.Base("S"), As: "S1", Attrs: []string{"b", "c"}},
		},
		Attrs: []string{"a"},
	},
	Right: ra.Project{Input: ra.Rename{Input: ra.Base("R"), As: "R2", Attrs: []string{"a", "d"}}, Attrs: []string{"a"}},
}

// BenchmarkWorldDelta is one Session.Delta: the per-world cost of a sweep
// with enumeration and the running intersection left out.
func BenchmarkWorldDelta(b *testing.B) {
	d := sweepDB(3)
	wp, err := plan.ForWorlds(sweepQuery, d)
	if err != nil {
		b.Fatal(err)
	}
	var vals []valuation.Valuation
	valuation.Enumerate(d.SortedNulls(), semantics.DomainOf(d, 1).Values(), func(v valuation.Valuation) bool {
		vals = append(vals, v.Clone())
		return true
	})
	if len(vals) != 8000 {
		b.Fatalf("%d worlds, want 8000", len(vals))
	}
	sess := wp.NewSession()
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta, err := sess.Delta(vals[i%len(vals)])
		if err != nil {
			b.Fatal(err)
		}
		rows += delta.Len()
	}
	b.ReportMetric(float64(rows)/float64(b.N), "rows/world")
}

// BenchmarkWorldSweep is a whole ByWorldsCWA call over the same 8000 worlds:
// enumeration, one Delta per world, the running intersection and the merge
// with the stable part, serial and over the world pool.
func BenchmarkWorldSweep(b *testing.B) {
	d := sweepDB(3)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ev := certain.NewEvaluator(true)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ans, err := ev.ByWorldsCWA(sweepQuery, d, certain.Options{Workers: workers})
				if err != nil || ans.Len() == 0 {
					b.Fatalf("sweep: %v, %d rows", err, ans.Len())
				}
			}
		})
	}
}

// TestWorldSweepPoolAllocs pins what a pooled sweep costs over a serial
// one: each worker steps an odometer through a contiguous range of
// valuations, so Workers: 2 allocates what Workers: 1 does plus a second
// session's and intersection's worth, not a copy of every valuation.
func TestWorldSweepPoolAllocs(t *testing.T) {
	d := sweepDB(3)
	allocs := func(workers int) float64 {
		ev := certain.NewEvaluator(true)
		return testing.AllocsPerRun(3, func() {
			if ans, err := ev.ByWorldsCWA(sweepQuery, d, certain.Options{Workers: workers}); err != nil || ans.Len() == 0 {
				t.Fatalf("sweep at %d workers: %v", workers, err)
			}
		})
	}
	serial, pooled := allocs(1), allocs(2)
	t.Logf("allocs per sweep: %.0f at 1 worker, %.0f at 2", serial, pooled)
	if pooled >= 1.1*serial {
		t.Errorf("a sweep allocates %.0f times at 2 workers, %.0f at 1: want under 1.1×", pooled, serial)
	}
}

// snapshottedRelation returns a database whose relation R(a, b) holds n
// tuples and has been written once after a snapshot, so that its storage
// is segmented the way a live engine's is.
func snapshottedRelation(n int) *table.Database {
	db := table.NewDatabase(schema.MustNew(schema.NewRelation("R", "a", "b")))
	ts := make([]table.Tuple, n)
	for i := range ts {
		ts[i] = table.NewTuple(value.Int(int64(i)), value.Int(int64(i/4)))
	}
	db.Relation("R").MustAddBatch(ts)
	db.Snapshot()
	db.MustAdd("R", table.NewTuple(value.Int(-1), value.Int(-1)))
	return db
}

// BenchmarkCowWrite times the first write to a relation after a snapshot
// of it: the copy-on-write step, which copies one segment however large
// the relation is.
func BenchmarkCowWrite(b *testing.B) {
	for _, n := range []int{1_000, 120_000, 1_000_000} {
		b.Run(fmt.Sprint("n=", n), func(b *testing.B) {
			db := snapshottedRelation(n)
			r := db.Relation("R")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db.Snapshot()
				t := table.NewTuple(value.Int(int64(n+i)), value.Int(int64(n+i)))
				b.StartTimer()
				r.MustAdd(t)
			}
		})
	}
}

// BenchmarkSidecarCarry times what the first query after a single-tuple
// write pays for its sidecars: SnapshotReusing, then the encoding, a coded
// index and an index of the written relation, each brought up to date from
// the previous snapshot's.  "rebuild" is the same without a previous
// snapshot to carry from.
func BenchmarkSidecarCarry(b *testing.B) {
	const n = 120_000
	sidecars := func(db, snap *table.Database) {
		r := snap.Relation("R")
		r.Encoding(db.Dict()).Index([]int{1})
		r.Index([]int{1})
	}
	for _, mode := range []string{"carry", "rebuild"} {
		b.Run(mode, func(b *testing.B) {
			db := snapshottedRelation(n)
			prev := db.Snapshot()
			sidecars(db, prev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.MustAdd("R", table.NewTuple(value.Int(int64(n+i)), value.Int(int64(n+i))))
				if mode == "rebuild" {
					prev = nil
				}
				prev = db.SnapshotReusing(prev)
				sidecars(db, prev)
			}
		})
	}
}

// BenchmarkPointSelect times select(Order; o_id = c), one matching tuple,
// through plan.Compile + EvalCertain: served by a scan (a header with no
// demand yet), by an index that is there, and by an index brought up to date
// after a one-tuple write; "build" is the index build alone.  build/scan is
// the ratio table's indexBuildScans rests on.
func BenchmarkPointSelect(b *testing.B) {
	for _, n := range []int{20_000, 1_000_000} {
		db := table.NewDatabase(schema.MustNew(schema.NewRelation("Order", "o_id", "product")))
		ts := make([]table.Tuple, n)
		for i := range ts {
			ts[i] = table.NewTuple(value.String(fmt.Sprint("oid", i)), value.String(fmt.Sprint("pr", i%97)))
		}
		db.Relation("Order").MustAddBatch(ts)
		db.Snapshot()
		db.MustAdd("Order", table.NewTuple(value.String("oid-first-write"), value.String("pr0"))) // segments the storage
		q := ra.Select{Input: ra.Base("Order"), Pred: ra.Eq(ra.Attr("o_id"), ra.LitString(fmt.Sprint("oid", n/2)))}
		p, err := plan.Compile(q, db.Schema())
		if err != nil {
			b.Fatal(err)
		}
		eval := func(b *testing.B, snap *table.Database) {
			ans, err := p.EvalCertain(snap)
			if err != nil || ans.Len() != 1 {
				b.Fatalf("answer %v, error %v", ans, err)
			}
		}
		indexed := func(b *testing.B) *table.Database {
			snap := db.Snapshot()
			for eval(b, snap); !strings.Contains(p.Describe(), "index(o_id)"); {
				eval(b, snap) // Describe shows the path of the evaluation just made
			}
			return snap
		}
		b.Run(fmt.Sprint("scan/n=", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval(b, db.Snapshot()) // a fresh header: no scan counted yet
			}
		})
		b.Run(fmt.Sprint("build/n=", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db.Snapshot().Relation("Order").Index([]int{0})
			}
		})
		b.Run(fmt.Sprint("index/n=", n), func(b *testing.B) {
			snap := indexed(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eval(b, snap)
			}
		})
		b.Run(fmt.Sprint("patched-after-write/n=", n), func(b *testing.B) {
			prev := indexed(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.MustAdd("Order", table.NewTuple(value.String(fmt.Sprint("oid-w", i)), value.String("pr0")))
				prev = db.SnapshotReusing(prev)
				eval(b, prev)
			}
		})
	}
}

// BenchmarkCodedProbe times one probe of a coded hash index the way the
// coded join and the diff/intersect membership test make it: "join-hit"
// walks the chain of a key that is there and reads each matching row's
// codes, "join-miss" looks up a key that is not, "haskey" is the membership
// test over a mix of both.  The build sides are a 60k-row key column and a
// 120k-row column holding every key twice; both were written after a
// snapshot, so the index is sharded the way a live engine's is.
func BenchmarkCodedProbe(b *testing.B) {
	for _, bs := range []struct {
		name         string
		keys, perKey int
	}{{"unique-60k", 60_000, 1}, {"2-per-key-120k", 60_000, 2}} {
		db := table.NewDatabase(schema.MustNew(schema.NewRelation("R", "k", "v")))
		ts := make([]table.Tuple, 0, bs.keys*bs.perKey)
		for i := 0; i < bs.keys; i++ {
			for d := 0; d < bs.perKey; d++ {
				ts = append(ts, table.NewTuple(value.String(fmt.Sprint("key-", i)), value.Int(int64(d))))
			}
		}
		db.Relation("R").MustAddBatch(ts)
		db.Snapshot()
		db.MustAdd("R", table.NewTuple(value.String("first-write"), value.Int(0))) // segments the storage
		dict := db.Dict()
		ix := db.Snapshot().Relation("R").Encoding(dict).Index([]int{0})
		hashOf := func(s string) (uint64, []uint64) {
			code, _ := dict.Encode(value.String(s))
			return value.HashCode(value.CodeHashSeed, code), []uint64{code}
		}
		// Probe keys in an order unrelated to the build order.
		const probes = 1 << 14
		hits, misses := make([]uint64, probes), make([]uint64, probes)
		keys := make([][]uint64, probes)
		for i := range hits {
			hits[i], keys[i] = hashOf(fmt.Sprint("key-", (i*7919)%bs.keys))
			misses[i], _ = hashOf(fmt.Sprint("absent-", i))
		}
		var sink uint64
		b.Run(bs.name+"/join-hit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for sh, e := ix.Lookup(hits[i%probes]); e != 0; {
					var row int32
					row, e = sh.At(e)
					sink += sh.Row(row)[1]
				}
			}
		})
		b.Run(bs.name+"/join-miss", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, e := ix.Lookup(misses[i%probes]); e != 0 {
					b.Fatal("hit on an absent key")
				}
			}
		})
		b.Run(bs.name+"/haskey", func(b *testing.B) {
			b.ReportAllocs()
			found := 0
			for i := 0; i < b.N; i++ {
				h := hits[i%probes]
				if i&1 == 1 {
					h = misses[i%probes]
				}
				if ix.HasKey(h, keys[i%probes]) {
					found++
				}
			}
			if found != (b.N+1)/2 {
				b.Fatalf("%d of %d probes found, want every other one", found, b.N)
			}
		})
		_ = sink
	}
}

// BenchmarkMaterializeDistinct times the gather at the root of a plan:
// project(R; c) over eight times as many tuples as the result has rows
// ("dup-heavy": the projection collapses eight tuples onto each row) or over
// exactly the result's rows ("distinct": nothing to drop), for results of
// one row, a thousand and fifty thousand.  Allocations are the point as much
// as time: the result is built once at its final size.
func BenchmarkMaterializeDistinct(b *testing.B) {
	for _, rows := range []int{1, 1_000, 50_000} {
		for _, shape := range []struct {
			name string
			dups int
		}{{"dup-heavy", 8}, {"distinct", 1}} {
			db := table.NewDatabase(schema.MustNew(schema.NewRelation("R", "id", "c")))
			ts := make([]table.Tuple, 0, rows*shape.dups)
			for i := 0; i < rows*shape.dups; i++ {
				ts = append(ts, table.NewTuple(value.Int(int64(i)), value.String(fmt.Sprint("label-", i%rows))))
			}
			db.Relation("R").MustAddBatch(ts)
			p, err := plan.Compile(ra.Project{Input: ra.Base("R"), Attrs: []string{"c"}}, db.Schema())
			if err != nil {
				b.Fatal(err)
			}
			snap := db.Snapshot()
			b.Run(fmt.Sprintf("rows=%d/%s", rows, shape.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ans, err := p.EvalCertain(snap)
					if err != nil || ans.Len() != rows {
						b.Fatalf("answer of %d rows, error %v; want %d rows", ans.Len(), err, rows)
					}
				}
			})
		}
	}
}

// BenchmarkScanReply times the reply to the paper's unpaid-orders query
// over 20 000 orders, about 6 000 rows, as incserver sends it and a client
// reads it: canonical order, rows rendered to text, the Response frame
// written, and read back.  The sub-benchmarks time each step alone.
func BenchmarkScanReply(b *testing.B) {
	db, _ := workload.Orders(workload.OrdersConfig{Orders: 20000, PaidFraction: 0.7, NullRate: 0.1, Seed: 1})
	q := ra.Diff{
		Left:  ra.Project{Input: ra.Base("Order"), Attrs: []string{"o_id"}},
		Right: ra.Project{Input: ra.Base("Pay"), Attrs: []string{"order"}},
	}
	ans, err := engine.New(db).Eval(q, engine.Options{Mode: engine.ModeCertain})
	if err != nil {
		b.Fatal(err)
	}
	ts := ans.SortedTuples()
	reply := wire.Response{ID: 1, Kind: wire.KindResult, Columns: ans.Schema().Attrs, Rows: server.RenderRows(ts)}
	var frame bytes.Buffer
	if err := wire.WriteFrame(&frame, reply); err != nil {
		b.Fatal(err)
	}
	b.Run("sort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ans.SortedTuples()
		}
	})
	b.Run("render", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			server.RenderRows(ts)
		}
	})
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := wire.WriteFrame(io.Discard, reply); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wire.ReadResponse(bytes.NewReader(frame.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reply", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			resp := reply
			resp.Rows = server.RenderRows(ans.SortedTuples())
			if err := wire.WriteFrame(&buf, resp); err != nil {
				b.Fatal(err)
			}
			got, err := wire.ReadResponse(&buf)
			if err != nil || len(got.Rows) != ans.Len() {
				b.Fatalf("read back %d rows, error %v; want %d rows", len(got.Rows), err, ans.Len())
			}
		}
		b.ReportMetric(float64(ans.Len()), "rows")
	})
}

// BenchmarkOpenCheckpoints times engine.Open of a store of 120 checkpoints
// whose dictionary sidecars grow by 64 strings a commit, to 7.7k values:
// the shape of the repo benchmark's durable store after one region, where
// replaying every checkpoint's sidecar made Open quadratic.  Open loads
// relations lazily, so it reads the log and the manifests and replays one
// sidecar.
func BenchmarkOpenCheckpoints(b *testing.B) {
	const commits = 120
	eng := engine.New(table.NewDatabase(schema.MustNew(schema.NewRelation("R", "k", "v"))))
	if _, err := eng.EnableHistory(engine.HistoryOptions{CheckpointEvery: 1}); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := eng.Persist(dir); err != nil {
		b.Fatal(err)
	}
	scan := ra.Diff{Left: ra.Project{Input: ra.Base("R"), Attrs: []string{"v"}}, Right: ra.Project{Input: ra.Base("R"), Attrs: []string{"v"}}}
	for i := 0; i < commits; i++ {
		if err := eng.Update(func(db *table.Database) error {
			for k := 0; k < 64; k++ {
				db.MustAdd("R", table.NewTuple(value.Int(int64(i*64+k)), value.String(fmt.Sprint("value-", i, "-", k))))
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Eval(scan, engine.Options{Workers: 1}); err != nil { // interns the new strings
			b.Fatal(err)
		}
		if _, err := eng.Commit(fmt.Sprint("c", i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := engine.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		re.Close()
	}
}
