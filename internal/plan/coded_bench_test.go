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
// string keys: the row path (binary key encoding per probe) and the
// coded path (code-hash probes, dedup on code tuples, decode only at
// materialization).  The projected query is the set-semantics shape the
// coded gather targets — the join generates 16 duplicates per surviving
// row, and the code-tuple dedup drops them before any decode or binary
// key is paid.
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
	projected := ra.Project{
		Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
		Attrs: []string{"a", "c"},
	}
	// The distinct-heavy worst case for the dedup structure: every
	// generated row survives, so the code-tuple set pays without
	// dropping anything.
	distinct := ra.Project{
		Input: ra.Join{Left: ra.Base("R"), Right: ra.Base("S")},
		Attrs: []string{"b", "c"},
	}

	for _, shape := range []struct {
		name string
		q    ra.Expr
	}{{"projected", projected}, {"distinct", distinct}} {
		p, err := Compile(shape.q, s)
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range []struct {
			name string
			cfg  EvalConfig
		}{
			{"row", EvalConfig{}},
			{"coded", EvalConfig{Coded: true}},
		} {
			b.Run(shape.name+"/"+cfg.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := p.EvalWith(d, cfg.cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
