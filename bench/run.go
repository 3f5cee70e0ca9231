package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"incdata/internal/certain"
	"incdata/internal/engine"
	"incdata/internal/plan"
	"incdata/internal/queryparse"
	"incdata/internal/server/client"
	"incdata/internal/store"
	"incdata/internal/table"
)

var workloads = []string{"analytic-warm", "analytic-churn", "worlds-sweep", "server-durable"}

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured region
	scale    float64 // 1 for a recorded run; the smoke test shrinks the data
	out      string  // directory for traces and scratch files
}

// Frozen counts.  The measured region is bounded by time (the -seconds
// flag), so what is frozen is how everything around it is sized.
const (
	runSeconds    = 20  // default of -seconds; run_seconds in BENCHMARK.json
	setupRepeats  = 3   // setups per untraced run; setup_s is their median
	refShare      = 0.2 // share of -seconds the traced pass's reference (and a stretch's untraced region) lasts
	turns         = 4   // turns the reference pass and the replay take
	openRepeats   = 7   // reopenings of the copied store behind open_ms
	serverClients = 2   // closed-loop connections of server-durable (= nproc of the reference host)
	// heapInstalments is the instalment after which heap_live_mb is read:
	// half a region of server-durable today, so a system half as fast still
	// gets there, with the history 1500 groups per connection have made.
	heapInstalments      = 15
	samplesPerInstalment = 3   // replies each connection keeps per instalment for verification
	drainTimeout         = 300 // ms without a push before the subscriber counts as drained
	maxSampleCheck       = 200 // sampled replies verified after a served region
	minSpans             = 10  // a layer metric uses the workload's own spans when it has this many
	probeReps            = 3   // repetitions of the probe's dedicated measurements
	mb                   = 1e6 // heap_live_mb is in megabytes of 10^6 bytes
	kb                   = 1e3 // alloc_kb_per_op likewise
)

// report is the outcome of one pass over one workload.
type report struct {
	workload          string
	metrics           metrics // the metrics BENCHMARK.json names for this pass
	extra             metrics // further numbers, printed but not gated
	attempted, failed int
	failures          []string
	trace             string // path of the trace file, if one was written
}

func (r *report) absorb(p *pass) {
	r.attempted += p.attempted
	r.failed += p.failed
	r.failures = append(r.failures, p.failures...)
}

func (r *report) check(ok bool, format string, a ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf(format, a...))
		}
	}
}

func served(workload string) bool { return workload == "server-durable" }

// runUntraced is the pass the end-to-end metrics come from: set up (three
// times over, for a steady setup_s), run the measured region with nothing
// recording, verify.  It runs on one P, and every time it reports is
// normalised by the host's speed around it (host.go).
func runUntraced(cfg runConfig) (*report, error) {
	defer singleP()()
	r := &report{workload: cfg.workload, metrics: metrics{}, extra: metrics{}}
	probe := newHostProbe()
	var setups []float64
	var s *sut
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		before := probe.burst()
		t0 := time.Now()
		var err error
		if s, err = setup(cfg.workload, cfg.seed, cfg.scale, cfg.out); err != nil {
			return nil, err
		}
		d := time.Since(t0).Seconds()
		setups = append(setups, d/((before+probe.burst())/2))
	}
	defer s.close()
	runtime.GC()

	p, samples := s.measure(cfg.seconds, serverClients, probe)
	r.absorb(p)
	r.metrics["setup_s"] = median(setups)
	// The median instalment: a neighbour's burst that the probe missed slows
	// a few instalments of a region, not most of them.
	r.metrics["ops_per_s"] = median(p.rates)
	r.metrics["op_ms_p25"] = quantile(p.lat, 0.25)
	r.metrics["alloc_kb_per_op"] = ratio(float64(p.allocB)/kb, float64(len(p.lat)))
	r.metrics["heap_live_mb"] = float64(p.heapB) / mb
	r.extra["op_ms_p50"] = median(p.lat)
	r.extra["op_ms_p95"] = quantile(p.lat, 0.95)
	r.extra["host.slowdown"] = median(probe.slowdowns)
	r.extra["ops"] = float64(len(p.lat))
	if p.sweepS > 0 {
		r.extra["worlds_per_s"] = p.worlds / p.sweepS
	}
	if s.srv != nil {
		servedMetrics(r, r.extra, s, p, samples)
	}
	r.extra["failed_ratio"] = ratio(float64(r.failed), float64(r.attempted))
	return r, nil
}

// servedMetrics verifies a served region after it has quiesced and derives
// the numbers only a served system has.
func servedMetrics(r *report, m metrics, s *sut, p *pass, samples []sample) {
	eng := s.engs[0]
	m["query_ms_p99"] = quantile(p.byKind["query"], 0.99)
	m["commit_ms_p50"] = median(p.byKind["commit"])
	m["commit_ms_p95"] = quantile(p.byKind["commit"], 0.95)
	m["asof_ms_p50"] = median(p.byKind["asof"])
	m["query_samples"] = float64(len(p.byKind["query"]))
	m["commit_samples"] = float64(len(p.byKind["commit"]))

	// Sampled replies against in-process evaluation of the same state.
	if len(samples) > maxSampleCheck {
		samples = samples[:maxSampleCheck]
	}
	for _, sm := range samples {
		snap := eng.Snapshot()
		if sm.commit != "" {
			id, err := eng.ResolveCommit(sm.commit)
			if err == nil {
				snap, err = eng.AsOf(id)
			}
			if err != nil {
				r.check(false, "sampled commit %s: %v", sm.commit, err)
				continue
			}
		}
		r.check(sameRows(snap, sm.text, sm.rows), "reply to %s at %q differs from in-process evaluation", sm.text, sm.commit)
	}

	// A quiesced final reply.
	if cl, err := client.Dial(s.addr); err != nil {
		r.check(false, "final dial: %v", err)
	} else {
		resp, err := cl.Query(s.fx.viewQ, "", "", 0)
		r.check(err == nil && sameRows(eng.Snapshot(), s.fx.viewQ, resp.Rows), "final reply to %s differs from in-process evaluation (%v)", s.fx.viewQ, err)
		if st, err := cl.Stats(); err == nil {
			m["server.served"] = float64(st.Served)
			m["server.rejected"] = float64(st.Rejected)
		}
		cl.Close()
	}

	// One push per commit that changed the view; the fixture's writes are
	// built so that the commit log tells which did.
	pushes := 0
	for {
		if _, err := s.sub.NextDelta(drainTimeout * time.Millisecond); err != nil {
			break
		}
		pushes++
	}
	m["server.pushes"] = float64(pushes)
	log, err := eng.Log()
	r.check(err == nil, "log: %v", err)
	userBytes := textBytes(s.fx.dbs[0])
	changing := 0
	for _, c := range log {
		changed := false
		for name, d := range c.Delta.Rels {
			for _, side := range []map[string]table.Tuple{d.Inserted, d.Deleted} {
				for _, t := range side {
					for _, v := range t {
						userBytes += len(v.String())
					}
					changed = changed || s.fx.changesView(name, t)
				}
			}
		}
		if changed {
			changing++
		}
	}
	r.check(pushes == changing, "subscriber got %d pushes, %d commits changed the view", pushes, changing)

	// The store: reopen a copy, and every acknowledged commit must be there.
	src := filepath.Join(s.dir, "store")
	m["store_bytes_per_user_byte"] = ratio(float64(dirBytes(src)), float64(userBytes))
	var opens []float64
	for i := 0; i < openRepeats; i++ {
		dst := filepath.Join(s.dir, fmt.Sprintf("copy-%d", i))
		if err := copyDir(src, dst); err != nil {
			r.check(false, "copy store: %v", err)
			break
		}
		t0 := time.Now()
		e2, err := engine.Open(dst)
		opens = append(opens, time.Since(t0).Seconds()*1e3)
		if err != nil {
			r.check(false, "open copied store: %v", err)
			break
		}
		if i == 0 {
			missing := 0
			for _, id := range s.acked {
				if _, err := e2.ResolveCommit(id); err != nil {
					missing++
				}
			}
			r.check(missing == 0, "%d of %d acknowledged commits do not resolve after reopening", missing, len(s.acked))
			r.check(e2.Snapshot().Database().Equal(eng.Snapshot().Database()), "reopened head differs from the writer's")
		}
		e2.Close()
		os.RemoveAll(dst)
	}
	m["open_ms"] = median(opens)
	if vs, err := eng.ViewStats("view"); err == nil {
		m["inc.incremental_ratio"] = ratio(float64(vs.Incremental), float64(vs.Incremental+vs.Recomputed))
	}
}

// sameRows evaluates text in process and compares with a wire reply.
func sameRows(snap *engine.Snapshot, text string, rows [][]string) bool {
	expr, err := queryparse.Parse(text)
	if err != nil {
		return false
	}
	rel, err := snap.Eval(expr, engine.Options{})
	if err != nil {
		return false
	}
	want := rowsOf(rel)
	return len(want) == len(rows) && (len(rows) == 0 || reflect.DeepEqual(want, rows))
}

// textBytes is the size of a database as text: what a user would type.
func textBytes(db *table.Database) int {
	n := 0
	for _, name := range db.RelationNames() {
		db.Relation(name).Each(func(t table.Tuple) bool {
			for _, v := range t {
				n += len(v.String())
			}
			return true
		})
	}
	return n
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// stretchGroups is how many groups of its loop a workload contributes when
// it runs as a stretch inside another workload's traced pass: enough for
// minSpans spans of every layer only it reaches (the server mix: for the
// two checkpoint manifests that fall due within 34 commits).
var stretchGroups = map[string]int{"analytic-warm": 16, "analytic-churn": 16, "worlds-sweep": 12, "server-durable": 480}

// nativeTo lists, per workload, the numbers only its untraced pass yields.
var nativeTo = map[string][]string{
	"worlds-sweep": {"worlds_per_s"},
	"server-durable": {"query_ms_p99", "commit_ms_p50", "commit_ms_p95", "asof_ms_p50", "open_ms", "store_bytes_per_user_byte",
		"inc.incremental_ratio", "server.served", "server.rejected", "server.pushes"},
}

// runTraced is the pass the per-layer metrics come from.  A reference
// system runs the first fifth of the region untraced; a second system and
// the stage then replay exactly those op groups layer by layer; probes time
// what no op does on its own (sidecar builds, executor tiers, reopening).
//
// The run contract wants every per-layer metric from every workload, and
// no workload reaches every layer.  So a short stretch of each of the other
// three workloads is replayed the same way, and a layer metric is computed
// from the workload's own spans where it has minSpans of them, else from
// those of a workload that has (tracer.pick).  The end-to-end numbers that
// are listed per layer keep their untraced definition: base, the untraced
// pass of this run, supplies them, and for those native to another workload
// a short untraced run of that workload does.
func runTraced(cfg runConfig, base *report) (*report, error) {
	defer singleP()()
	r := &report{workload: cfg.workload, metrics: metrics{}, extra: metrics{}}
	m := r.metrics
	for _, k := range append([]string{"op_ms_p50", "op_ms_p95", "host.slowdown"}, nativeTo[cfg.workload]...) {
		m[k] = base.extra[k]
	}

	// Reference and replay take turns, a quarter of the reference region at
	// a time, so that a drift of the host's speed hits both alike.  Their
	// times are compared with each other, so neither is normalised.
	ref, err := setup(cfg.workload, cfg.seed, cfg.scale, cfg.out)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	st, err := newStage(tr, cfg)
	if err != nil {
		ref.close()
		return nil, err
	}
	defer st.close()
	next := st.fx.loop(0)
	p := &pass{byKind: map[string][]float64{}}
	replayed := 0
	for i := 0; i < turns; i++ {
		// One connection: the replay is sequential, so its reference is too.
		q, _ := ref.measure(cfg.seconds*refShare/turns, 1, nil)
		p.add(q)
		for ; replayed < p.groups; replayed++ {
			r.attempted++
			if err := st.exec(replayed, next()); err != nil {
				r.check(false, "staged op %d: %v", replayed, err)
				i = turns
				break
			}
		}
	}
	r.absorb(p)
	coverage := ratio(tr.onPathNS(), sum(p.lat)*1e6)
	encodingDeclines, cacheStats := engineCounters(ref)
	ref.close()

	st.probeSidecars()
	if err := st.probeTiers(); err != nil {
		r.check(false, "probe: %v", err)
	}
	finish := func(s *stage) {
		if s.st != nil { // the replay wrote a store
			if err := s.probeStore(); err != nil {
				r.check(false, "probe: %v", err)
			}
			for k, v := range s.storeCounters() {
				m[k] = v
			}
		}
		r.check(s.mismatches == 0, "%d of %d staged answers of %s differ from the engine's: %s", s.mismatches, s.checks, s.fx.workload, s.firstMismatch)
		s.close()
		runtime.GC()
	}
	finish(st)

	for _, other := range workloads {
		if other == cfg.workload {
			continue
		}
		oc := runConfig{workload: other, seed: cfg.seed, seconds: cfg.seconds * refShare, scale: cfg.scale, out: cfg.out}
		ot, err := newStage(tr, oc)
		if err != nil {
			return nil, err
		}
		next := ot.fx.loop(0)
		for i := 0; i < stretchGroups[other]; i++ {
			r.attempted++
			if err := ot.exec(-1, next()); err != nil {
				r.check(false, "stretch of %s, group %d: %v", other, i, err)
				break
			}
		}
		finish(ot)
		if len(nativeTo[other]) == 0 {
			continue
		}
		short, err := runUntraced(oc)
		if err != nil {
			return nil, err
		}
		r.attempted += short.attempted
		r.failed += short.failed
		r.failures = append(r.failures, short.failures...)
		for _, k := range nativeTo[other] {
			m[k] = short.extra[k]
		}
	}

	us := func(span string) float64 { return median(tr.durs(span)) / 1e3 }
	ms := func(span string) float64 { return median(tr.durs(span)) / 1e6 }
	m["queryparse.parse_us"] = us("queryparse.Parse")
	m["plan.compile_us"] = us("plan.Compile")
	m["plan.exec_ms"] = ms("plan.EvalCertainWith")
	m["plan.exec_cold_ms"] = ms("plan.EvalCertainWith.cold")
	m["plan.exec_rows_per_s"] = ratio(tr.work("plan.EvalCertainWith"), sum(tr.durs("plan.EvalCertainWith"))/1e9)
	m["plan.parallel_speedup"] = ratio(sum(tr.durs("probe.exec.workers1")), sum(tr.durs("probe.exec.default")))
	m["plan.coded_speedup"] = ratio(sum(tr.durs("probe.exec.uncoded")), sum(tr.durs("probe.exec.default")))
	m["plan.worldplan_build_ms"] = ms("plan.ForWorlds")
	m["plan.world_answer_us"] = ratio(sum(tr.durs("plan.Session.Delta"))/1e3, tr.work("plan.Session.Delta"))
	m["table.cow_write_us"] = us("table.Relation.Add")
	m["table.snapshot_us"] = us("table.SnapshotReusing")
	m["table.encoding_build_ms"] = ms("table.Relation.Encoding")
	m["table.partition_build_ms"] = ms("table.Relation.Partition")
	m["table.index_build_ms"] = ms("table.Relation.Index")
	m["table.encoding_declines"] = encodingDeclines
	m["certain.plan_cache_hit_ratio"] = ratio(float64(cacheStats.OneShotHits), float64(cacheStats.OneShotHits+cacheStats.OneShotMisses))
	m["certain.plan_cache_evictions"] = float64(cacheStats.OneShotEvictions)
	m["certain.world_cache_hit_ratio"] = ratio(float64(cacheStats.WorldHits), float64(cacheStats.WorldHits+cacheStats.WorldMisses))
	m["certain.sweep_ms"] = ms("certain.ByWorldsCWA")
	m["certain.worlds_enumerated"] = tr.work("plan.Session.Delta")
	m["engine.eval_ms"] = ms("engine.Eval")
	m["engine.update_us"] = us("engine.Update")
	m["engine.commit_us"] = us("engine.CommitWithDeltas")
	m["inc.apply_us"] = us("inc.View.Apply")
	m["version.commit_us"] = us("version.History.Commit")
	m["version.asof_us"] = us("version.History.AsOf")
	m["store.encode_record_us"] = us("store.EncodeRecord")
	m["store.decode_record_us"] = us("store.DecodeRecord")
	m["store.append_us"] = us("store.AppendCommit")
	m["store.append_us_p95"] = quantile(tr.durs("store.AppendCommit"), 0.95) / 1e3
	m["store.manifest_ms"] = ms("store.WriteManifest")
	m["store.open_ms"] = ms("store.Open")
	m["store.load_ms"] = ms("store.LoadDatabase")
	m["wire.encode_us"] = us("wire.WriteFrame")
	m["wire.decode_us"] = us("wire.ReadResponse")
	m["wire.resp_bytes"] = ratio(tr.work("wire.WriteFrame"), float64(len(tr.pick("wire.WriteFrame"))))
	m["server.rtt_us"] = us("server.rtt")
	m["trace.coverage_ratio"] = coverage
	// At smoke scale an op is microseconds and the spans themselves weigh in.
	r.check(cfg.scale < 1 || coverage >= 0.8 && coverage <= 1.2, "trace.coverage_ratio %.3f is outside 0.8–1.2: the staging no longer mirrors the real path", coverage)
	m["failed_ratio"] = ratio(float64(r.failed+base.failed), float64(r.attempted+base.attempted))
	r.trace, err = tr.write(cfg.out, cfg.workload)
	return r, err
}

// engineCounters reads the counters the program under test keeps.
func engineCounters(s *sut) (declines float64, cache certain.CacheStats) {
	for _, e := range s.engs {
		st := e.Stats()
		for _, es := range st.Encoding {
			declines += float64(es.Declines)
		}
		cache.OneShotHits += st.Planned.OneShotHits
		cache.OneShotMisses += st.Planned.OneShotMisses
		cache.OneShotEvictions += st.Planned.OneShotEvictions
		cache.WorldHits += st.Planned.WorldHits
		cache.WorldMisses += st.Planned.WorldMisses
	}
	return declines, cache
}

// probeSidecars times the three derived structures an execution builds
// lazily, each on a relation of a fresh lineage (so no cache answers and
// the encoding's churn guard starts from zero).
func (s *stage) probeSidecars() {
	db := s.live[0]
	for rep := 0; rep < probeReps; rep++ {
		for name, pos := range s.fx.joinKey {
			fresh := table.NewRelation(db.Relation(name).Schema())
			fresh.AddAll(db.Relation(name))
			rows := float64(fresh.Len())
			s.call("table.Relation.Encoding", 0, -1, false, func() float64 { fresh.Encoding(db.Dict()); return rows })
			s.call("table.Relation.Partition", 0, -1, false, func() float64 {
				fresh.Partition(pos, runtime.NumCPU()*4) // four morsels per worker, as the executor asks on all CPUs
				return rows
			})
			s.call("table.Relation.Index", 0, -1, false, func() float64 { fresh.Index(pos); return rows })
		}
	}
}

// probeTiers executes the fixture's tier queries warm, on the pristine data,
// under the default configuration, with one worker, and with the coded tier
// off.  It alone runs on every CPU the host has, with as many workers: on
// the one P of the passes the parallel tier has nothing to show.
func (s *stage) probeTiers() error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	workers := runtime.NumCPU()
	db := s.fx.dbs[0].Clone()
	configs := []struct {
		span string
		cfg  plan.EvalConfig
	}{
		{"probe.exec.default", plan.EvalConfig{Workers: workers, Columnar: true, Coded: true}},
		{"probe.exec.workers1", plan.EvalConfig{Workers: 1, Columnar: true, Coded: true}},
		{"probe.exec.uncoded", plan.EvalConfig{Workers: workers, Columnar: true}},
	}
	for _, text := range s.fx.tierQueries {
		expr, err := queryparse.Parse(text)
		if err != nil {
			return err
		}
		p, err := plan.Compile(expr, db.Schema())
		if err != nil {
			return err
		}
		for rep := 0; rep <= probeReps; rep++ {
			for _, c := range configs {
				name := c.span
				if rep == 0 {
					name = "probe.exec.warmup" // builds each configuration's sidecars
				}
				s.call(name, 0, -1, false, func() float64 {
					_, err = p.EvalCertainWith(db, c.cfg)
					return 0
				})
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// probeStore times the record codec on the last commit's record and the
// two halves of reopening: log replay, then loading a checkpoint's data.
func (s *stage) probeStore() error {
	if s.lastRec == nil {
		return fmt.Errorf("bench: the replay of %s made no commit", s.fx.workload)
	}
	for i := 0; i < 2*minSpans; i++ {
		var frame []byte
		s.call("store.EncodeRecord", 0, -1, false, func() float64 {
			frame, _ = store.EncodeRecord(s.lastRec)
			return float64(len(frame))
		})
		s.call("store.DecodeRecord", 0, -1, false, func() float64 {
			store.DecodeRecord(frame[8:]) // past the length and CRC header
			return 0
		})
	}
	src := s.st.Dir()
	for rep := 0; rep < probeReps; rep++ {
		dst := filepath.Join(filepath.Dir(src), fmt.Sprintf("reopen-%d", rep))
		if err := copyDir(src, dst); err != nil {
			return err
		}
		var st *store.Store
		var rec *store.Recovery
		var err error
		s.call("store.Open", 0, -1, false, func() float64 {
			st, rec, err = store.Open(dst)
			return 0
		})
		if err != nil {
			return err
		}
		manifest := rec.Checkpoints[rec.Branches[rec.Head]]
		if manifest == "" {
			manifest = rec.Checkpoints[rec.Commits[0].ID]
		}
		s.call("store.LoadDatabase", 0, -1, false, func() float64 {
			var db *table.Database
			if db, err = st.LoadDatabase(manifest); err != nil {
				return 0
			}
			for _, name := range db.RelationNames() {
				if perr := db.Relation(name).Preload(); perr != nil {
					err = perr
				}
			}
			return float64(db.TotalTuples())
		})
		st.Close()
		os.RemoveAll(dst)
		if err != nil {
			return err
		}
	}
	return nil
}

// storeCounters walks the stage's store directory: log growth per commit,
// chunk bytes on disk, and how much of what the manifests reference is
// shared between them.
func (s *stage) storeCounters() metrics {
	m := metrics{}
	dir := s.st.Dir()
	commits := len(s.acked) - 1
	m["store.log_bytes_per_commit"] = ratio(float64(fileSize(filepath.Join(dir, "log.bin"))-s.logBase), float64(commits))
	sizes := map[string]int64{} // chunk hash → bytes on disk
	var manifests []store.Manifest
	filepath.WalkDir(filepath.Join(dir, "chunks"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		sizes[d.Name()] = int64(len(data))
		var man store.Manifest
		if len(data) > 0 && data[0] == '{' && json.Unmarshal(data, &man) == nil && man.FormatVersion > 0 {
			manifests = append(manifests, man)
		}
		return nil
	})
	var onDisk, referenced, distinct int64
	for _, n := range sizes {
		onDisk += n
	}
	seen := map[string]bool{}
	for _, man := range manifests {
		hashes := []string{man.Dict}
		for _, rel := range man.Relations {
			hashes = append(hashes, rel.Chunks...)
		}
		for _, h := range hashes {
			referenced += sizes[h]
			if !seen[h] {
				seen[h] = true
				distinct += sizes[h]
			}
		}
	}
	m["store.chunk_bytes_written"] = float64(onDisk)
	m["store.chunk_dedup_ratio"] = 1 - ratio(float64(distinct), float64(referenced))
	return m
}
