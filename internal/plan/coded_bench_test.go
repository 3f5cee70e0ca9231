package plan

import (
	"fmt"
	"testing"

	"incdata/internal/col"
	"incdata/internal/ra"
	"incdata/internal/schema"
	"incdata/internal/table"
	"incdata/internal/value"
)

// Micro-benchmarks for the monomorphic coded kernels against the row
// path, on the string-heavy shape the coded tier targets: predicate
// evaluation (BenchmarkCodedFilter) and the full hash-join probe pipeline
// (BenchmarkCodedJoinProbe).  CI runs them as a -benchtime 1x smoke;
// local runs with real benchtime report the ns/op and allocs/op the
// DESIGN.md coded section quotes.

func benchSchema() schema.Relation {
	return schema.NewRelation("R", "a", "b")
}

// benchCodedChunk builds string-valued rows as tuples and as their coded
// chunk (same rows, same order) against a fresh dictionary.
func benchCodedChunk(rows int) ([]table.Tuple, *col.Coded, *table.Dict) {
	dict := table.NewDict()
	ts := make([]table.Tuple, rows)
	cd := col.NewCoded(2, rows)
	for i := 0; i < rows; i++ {
		a := value.String(fmt.Sprintf("key-%02d", i%64))
		b := value.Int(int64(i % 7))
		ts[i] = table.NewTuple(a, b)
		ca, _ := dict.Encode(a)
		cb, _ := dict.Encode(b)
		cd.Append(0, ca)
		cd.Append(1, cb)
		cd.EndRow()
	}
	return ts, cd, dict
}

// BenchmarkCodedFilter compares one compiled predicate applied per tuple
// (cpred: per-value kind dispatch and string compares) against the
// monomorphic coded loop (kpred: raw u64 compares) over the same rows.
func BenchmarkCodedFilter(b *testing.B) {
	rs := benchSchema()
	pred := ra.And{Preds: []ra.Predicate{
		ra.Neq(ra.Attr("a"), ra.LitString("key-03")),
		ra.Lt(ra.Attr("b"), ra.LitInt(5)),
	}}
	cp, err := compilePred(pred, rs)
	if err != nil {
		b.Fatal(err)
	}
	kp, err := compileKPred(pred, rs)
	if err != nil {
		b.Fatal(err)
	}
	ts, cd, dict := benchCodedChunk(chunkSize)

	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		kept := 0
		for i := 0; i < b.N; i++ {
			for _, t := range ts {
				if cp(t) {
					kept++
				}
			}
		}
		_ = kept
	})
	b.Run("coded", func(b *testing.B) {
		b.ReportAllocs()
		c := &pctx{coded: true, dict: dict}
		kept := 0
		for i := 0; i < b.N; i++ {
			sel := kp(c, cd, nil)
			kept += len(sel)
			c.putSel(sel)
		}
		_ = kept
	})
}

// BenchmarkCodedJoinProbe compares the full hash-join probe pipeline on
// string keys: the row path (binary key encoding per probe) and the coded
// path (batched code-hash probes, dedup on code tuples, decode only at
// materialization).  "projected" is the set-semantics shape the coded gather
// targets — the join generates 16 duplicates per surviving row, and the
// code-tuple dedup drops them before any decode or binary key is paid;
// "distinct" is its worst case, every generated row surviving.
// "build-120k" probes a build side of 120 000 rows, larger than L2, where a
// probe is a cache miss and the batch overlaps them.  "small-derived-right"
// joins 60 000 base rows with a selection of about 1 000 rows, which on the
// coded path probes the base relation's index once the access-path rule
// has built it.  Each case runs warm: the sidecars and indexes the first
// evaluations build are there before the timer starts.
func BenchmarkCodedJoinProbe(b *testing.B) {
	s := schema.MustNew(
		schema.NewRelation("R", "a", "b"),
		schema.NewRelation("S", "a", "c"),
	)
	d := table.NewDatabase(s)
	for i := 0; i < 4096; i++ {
		k := value.String(fmt.Sprintf("key-%03d", i%256))
		d.MustAdd("R", table.NewTuple(k, value.Int(int64(i))))
		d.MustAdd("S", table.NewTuple(k, value.Int(int64(i/16))))
	}
	large := table.NewDatabase(s)
	for i := 0; i < 120_000; i++ {
		large.MustAdd("R", table.NewTuple(value.String(fmt.Sprintf("key-%06d", (i*7919)%120_000)), value.Int(int64(i%16))))
		large.MustAdd("S", table.NewTuple(value.String(fmt.Sprintf("key-%06d", i)), value.Int(int64(i%16))))
	}
	small := table.NewDatabase(s)
	for i := 0; i < 60_000; i++ {
		small.MustAdd("R", table.NewTuple(value.String(fmt.Sprintf("key-%06d", i)), value.String(fmt.Sprint("cat-", i%24))))
		small.MustAdd("S", table.NewTuple(value.String(fmt.Sprintf("key-%06d", (i*7919)%60_000)), value.Int(int64(i%60))))
	}
	project := func(q ra.Expr, attrs ...string) ra.Expr { return ra.Project{Input: q, Attrs: attrs} }
	join := ra.Join{Left: ra.Base("R"), Right: ra.Base("S")}
	selS := ra.Select{Input: ra.Base("S"), Pred: ra.Eq(ra.Attr("c"), ra.LitInt(7))}

	for _, shape := range []struct {
		name string
		db   *table.Database
		q    ra.Expr
	}{
		{"projected", d, project(join, "a", "c")},
		{"distinct", d, project(join, "b", "c")},
		{"build-120k", large, project(join, "b", "c")},
		{"small-derived-right", small, project(ra.Join{Left: ra.Base("R"), Right: selS}, "b")},
	} {
		p, err := Compile(shape.q, s)
		if err != nil {
			b.Fatal(err)
		}
		db := shape.db.Snapshot()
		for _, cfg := range []struct {
			name string
			cfg  EvalConfig
		}{
			{"row", EvalConfig{}},
			{"coded", EvalConfig{Coded: true}},
		} {
			b.Run(shape.name+"/"+cfg.name, func(b *testing.B) {
				for range 8 {
					if _, err := p.EvalWith(db, cfg.cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := p.EvalWith(db, cfg.cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
