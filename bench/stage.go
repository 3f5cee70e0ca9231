package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"incdata/internal/certain"
	"incdata/internal/engine"
	"incdata/internal/inc"
	"incdata/internal/plan"
	"incdata/internal/queryparse"
	"incdata/internal/ra"
	"incdata/internal/semantics"
	"incdata/internal/server/client"
	"incdata/internal/server/wire"
	"incdata/internal/store"
	"incdata/internal/table"
	"incdata/internal/valuation"
	"incdata/internal/version"
)

// stage replays ops layer by layer from the benchmark's own code: where the
// program under test makes one Engine or server call, the stage makes the
// calls into plan, table, certain, inc, version, store, queryparse and wire
// that call is built from, one span each.  It keeps its own copy of every
// piece of state the real stack keeps (live databases, snapshots, compiled
// plans, the maintained view, the commit history, the store), so the
// replay is a second implementation of the path, not an instrumented one.
//
// Beside it runs ref, a real system fed the same ops: its whole-call spans
// (engine.eval and friends) are the reference the layer spans should add
// up to, and its answers cross-check the stage's.
type stage struct {
	tr  *tracer
	fx  *fixture
	cfg plan.EvalConfig // what engine.Options{} resolves to
	out string

	// wired: the replayed ops are wire requests, so framing, the server's
	// row rendering and a TCP round trip are on the path, and queries are
	// parsed from text.
	wired bool

	live   []*table.Database
	snap   []*table.Database
	last   []*table.Database
	pinned *table.Database // the wired session's pinned state (nil = pin at next query)

	plans      map[planKey]*plan.Plan
	worldPlans map[planKey]*plan.WorldPlan
	execStamp  map[string]table.Stamp // per "db/relation": content stamp at its last execution
	evaluator  *certain.Evaluator     // whole-call reference for sweeps

	// Served state, built on the first op that needs it.
	view    *inc.View
	hist    *version.History
	pending *table.ChangeSet
	st      *store.Store
	every   int
	acked   []version.CommitID
	lastRec *store.Record
	logBase int64 // log size after the root record

	ref       *sut
	refPinned *engine.Snapshot
	rtt       *client.Client // dedicated connection for round-trip floors

	checks, mismatches int
	firstMismatch      string
}

type planKey struct {
	db   int
	text string
}

// newStage sets up the workload's system as the mirror and starts a replay
// over fresh copies of its databases, recording into tr.
func newStage(tr *tracer, cfg runConfig) (*stage, error) {
	ref, err := setup(cfg.workload, cfg.seed, cfg.scale, cfg.out)
	if err != nil {
		return nil, err
	}
	tr.src = cfg.workload
	fx := ref.fx
	s := &stage{
		tr: tr, fx: fx, out: cfg.out, ref: ref, wired: served(cfg.workload),
		cfg:        plan.EvalConfig{Workers: runtime.GOMAXPROCS(0), Columnar: true, Coded: true},
		plans:      map[planKey]*plan.Plan{},
		worldPlans: map[planKey]*plan.WorldPlan{},
		execStamp:  map[string]table.Stamp{},
		evaluator:  certain.NewEvaluator(true),
	}
	for _, db := range fx.dbs {
		s.live = append(s.live, db.Clone())
	}
	s.snap = make([]*table.Database, len(s.live))
	s.last = make([]*table.Database, len(s.live))
	if s.wired {
		if s.rtt, err = client.Dial(ref.addr); err != nil {
			ref.close()
			return nil, err
		}
	}
	return s, nil
}

// close may be called twice.
func (s *stage) close() {
	if s.rtt != nil {
		s.rtt.Close()
		s.rtt = nil
	}
	if s.st != nil {
		s.st.Close()
		os.RemoveAll(filepath.Dir(s.st.Dir()))
		s.st = nil
	}
	if s.ref != nil {
		s.ref.close()
		s.ref = nil
	}
}

// call runs f as one span.
func (s *stage) call(name string, parent, opID int, onPath bool, f func() float64) {
	id := s.tr.begin(name, parent, opID, onPath)
	n := f()
	s.tr.end(id, n)
}

// ensureServed builds the state the served path keeps beside the live
// database: the maintained view, the commit history and the store.  It
// mirrors Engine.Persist and server registration on the stage's own copy.
func (s *stage) ensureServed() error {
	if s.hist != nil {
		return nil
	}
	db := s.live[0]
	expr, err := queryparse.Parse(s.fx.viewQ)
	if err != nil {
		return err
	}
	p, err := plan.Compile(expr, db.Schema())
	if err != nil {
		return err
	}
	s.view, err = inc.New("view", expr, db, inc.Config{
		CompleteOnly: true,
		Recompute:    func(d *table.Database) (*table.Relation, error) { return p.EvalCertainWith(d, s.cfg) },
	})
	if err != nil {
		return err
	}
	hist, root := version.New(db, "main", "init", version.Options{})
	s.hist, s.pending, s.every = hist, table.NewChangeSet(), version.DefaultCheckpointEvery
	dir, err := newScratch(s.out)
	if err != nil {
		return err
	}
	if s.st, err = store.Create(filepath.Join(dir, "store")); err != nil {
		return err
	}
	var manifest string
	s.call("store.WriteManifest", 0, -1, false, func() float64 {
		manifest, err = s.st.WriteManifest(db)
		return float64(db.TotalTuples())
	})
	if err != nil {
		return err
	}
	if err := s.st.Append(&store.Record{Type: store.RecRoot, Branch: "main", ID: string(root), Message: "init",
		Manifest: manifest, CheckpointEvery: s.every}); err != nil {
		return err
	}
	if err := s.st.Append(&store.Record{Type: store.RecHead, Branch: "main"}); err != nil {
		return err
	}
	s.acked = []version.CommitID{root}
	s.logBase = fileSize(filepath.Join(s.st.Dir(), "log.bin"))
	return nil
}

// state returns the database a query of this op reads: the wired
// session's pinned state, or the current snapshot.
func (s *stage) state(db, parent, opID int) *table.Database {
	if s.wired && db == 0 {
		if s.pinned == nil {
			s.pinned = s.snapshot(0, parent, opID)
		}
		return s.pinned
	}
	return s.snapshot(db, parent, opID)
}

// snapshot mirrors Engine.Snapshot: reuse the cached one until a write.
func (s *stage) snapshot(db, parent, opID int) *table.Database {
	if s.snap[db] == nil {
		s.call("table.SnapshotReusing", parent, opID, true, func() float64 {
			s.snap[db] = s.live[db].SnapshotReusing(s.last[db])
			return 0
		})
		s.last[db] = s.snap[db]
	}
	return s.snap[db]
}

// exec replays one op group as op number opID and feeds the same ops to the
// reference system.
func (s *stage) exec(opID int, g []op) error {
	root := s.tr.begin("op", 0, opID, false)
	defer func() { s.tr.end(root, float64(len(g))) }()
	for _, o := range g {
		if s.wired {
			// The transport floor of one request: a real REFRESH round trip
			// over loopback to the reference server.
			s.call("server.rtt", root, opID, true, func() float64 {
				s.rtt.Refresh()
				return 0
			})
			if err := s.ensureServed(); err != nil {
				return err
			}
		}
		var err error
		switch o.kind {
		case kQuery:
			err = s.query(root, opID, o)
		case kUpdate:
			err = s.update(root, opID, o)
		case kCommit:
			err = s.commit(root, opID)
		case kAsOf:
			err = s.asOf(root, opID, o)
		case kRefresh:
			s.pinned = s.snapshot(0, root, opID)
			s.refPinned = s.ref.engs[0].Snapshot()
			s.reply(root, opID, wire.Response{Kind: wire.KindOK, Commit: string(s.head())})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *stage) head() version.CommitID {
	if len(s.acked) == 0 {
		return ""
	}
	return s.acked[len(s.acked)-1]
}

// request and reply mirror the framing both ends of a connection do.
func (s *stage) request(parent, opID int, req wire.Request) {
	if !s.wired {
		return
	}
	var buf bytes.Buffer
	s.call("wire.encode_req", parent, opID, true, func() float64 {
		wire.WriteFrame(&buf, req)
		return float64(buf.Len())
	})
	s.call("wire.decode_req", parent, opID, true, func() float64 {
		payload, err := wire.ReadFrame(&buf)
		if err == nil {
			var got wire.Request
			json.Unmarshal(payload, &got)
		}
		return 0
	})
}

func (s *stage) reply(parent, opID int, resp wire.Response) {
	if !s.wired {
		return
	}
	var buf bytes.Buffer
	s.call("wire.WriteFrame", parent, opID, true, func() float64 {
		wire.WriteFrame(&buf, resp)
		return float64(buf.Len())
	})
	s.call("wire.ReadResponse", parent, opID, true, func() float64 {
		wire.ReadResponse(&buf)
		return 0
	})
}

func (s *stage) query(parent, opID int, o op) error {
	s.request(parent, opID, wire.Request{Op: wire.OpQuery, Query: o.text})
	var expr ra.Expr
	var err error
	// An in-process caller hands the engine an expression; only a wire
	// request is parsed on the path.
	s.call("queryparse.Parse", parent, opID, s.wired, func() float64 {
		expr, err = queryparse.Parse(o.text)
		return float64(len(o.text))
	})
	if err != nil {
		return err
	}
	db := s.state(o.db, parent, opID)
	var ans *table.Relation
	if o.mode == engine.ModeCertainCWA {
		ans, err = s.sweep(parent, opID, o, expr, db)
	} else {
		ans, err = s.evalPlanned(parent, opID, o, expr, db)
	}
	if err != nil {
		return err
	}
	if s.wired {
		var resp wire.Response
		s.call("server.rows", parent, opID, true, func() float64 {
			resp = wire.Response{Kind: wire.KindResult, Columns: ans.Schema().Attrs, Rows: rowsOf(ans)}
			return float64(ans.Len())
		})
		s.reply(parent, opID, resp)
	}

	// The same query through the real engine, as one call.  Where no op
	// writes, every fifth is enough (5 divides no workload's cycle, so every
	// template gets its turn): two systems taking turns on every op evict
	// each other's data and slow each other down by a tenth.
	if s.fx.readOnly && opID > 0 && opID%5 != 0 {
		return nil
	}
	var want *table.Relation
	if o.mode == engine.ModeCertainCWA {
		s.call("certain.ByWorldsCWA", parent, opID, false, func() float64 {
			want, err = s.evaluator.ByWorldsCWA(expr, db, certain.Options{Workers: s.cfg.Workers})
			return worldsOf(db)
		})
	} else {
		snap := s.ref.engs[o.db].Snapshot()
		if s.wired && o.db == 0 {
			if s.refPinned == nil {
				s.refPinned = snap
			}
			snap = s.refPinned
		}
		s.call("engine.Eval", parent, opID, false, func() float64 {
			want, err = snap.Eval(o.expr, engine.Options{Mode: o.mode})
			return 0
		})
	}
	if err != nil {
		return err
	}
	s.checks++
	if want.CanonicalKey() != ans.CanonicalKey() {
		s.mismatches++
		if s.firstMismatch == "" {
			s.firstMismatch = fmt.Sprintf("op %d %s: staged %d rows, engine %d rows", opID, o.text, ans.Len(), want.Len())
		}
	}
	return nil
}

// evalPlanned mirrors Evaluator.NaiveWith: plan-cache lookup, compile on a
// miss, execute.  An execution is cold when a relation it reads has
// changed since it was last executed over, so its sidecars must be rebuilt.
func (s *stage) evalPlanned(parent, opID int, o op, expr ra.Expr, db *table.Database) (*table.Relation, error) {
	key := planKey{o.db, o.text}
	p := s.plans[key]
	var err error
	if p == nil {
		if len(s.plans) >= 128 {
			for k := range s.plans { // the real cache is a 128-entry LRU; any victim will do here
				delete(s.plans, k)
				break
			}
		}
		s.call("plan.Compile", parent, opID, true, func() float64 {
			p, err = plan.Compile(expr, db.Schema())
			return 0
		})
		if err != nil {
			return nil, err
		}
		s.plans[key] = p
	}
	names, whole := ra.BaseRelations(expr)
	if whole {
		names = db.RelationNames()
	}
	rows, cold := 0, false
	for _, n := range names {
		rel := db.Relation(n)
		if rel == nil {
			continue
		}
		rows += rel.Len()
		k := fmt.Sprint(o.db, "/", n)
		if s.execStamp[k] != rel.Stamp() {
			cold = true
			s.execStamp[k] = rel.Stamp()
		}
	}
	name := "plan.EvalCertainWith"
	if cold {
		name = "plan.EvalCertainWith.cold"
	}
	var ans *table.Relation
	s.call(name, parent, opID, true, func() float64 {
		if o.mode == engine.ModeNaive {
			ans, err = p.EvalWith(db, s.cfg)
		} else {
			ans, err = p.EvalCertainWith(db, s.cfg)
		}
		return float64(rows)
	})
	return ans, err
}

// sweep mirrors Evaluator.ByWorldsCWA for a splittable plan at the default
// worker count: world-plan cache lookup, then one Session.Delta per
// valuation fanned out over the workers, a running intersection per
// worker, and the merge with the stable part.
func (s *stage) sweep(parent, opID int, o op, expr ra.Expr, db *table.Database) (*table.Relation, error) {
	key := planKey{o.db, o.text}
	wp := s.worldPlans[key]
	var err error
	if wp == nil {
		s.call("plan.ForWorlds", parent, opID, true, func() float64 {
			wp, err = plan.ForWorlds(expr, db)
			return 0
		})
		if err != nil {
			return nil, err
		}
		s.worldPlans[key] = wp
	}
	dom := semantics.DomainOf(db, 1)
	workers := s.cfg.Workers
	wp.SetWorkers(workers)
	locals := make([]*table.Relation, workers)
	errs := make([]error, workers)
	worlds := 0
	s.call("plan.Session.Delta", parent, opID, true, func() float64 {
		jobs := make(chan valuation.Valuation, 64) // the buffer certain's own feeder uses
		go func() {
			defer close(jobs)
			valuation.Enumerate(db.SortedNulls(), dom.Values(), func(v valuation.Valuation) bool {
				worlds++
				jobs <- v.Clone()
				return true
			})
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sess := wp.AcquireSession()
				defer wp.ReleaseSession(sess)
				for v := range jobs {
					if errs[w] != nil {
						continue
					}
					var rel *table.Relation
					if wp.Splittable() {
						rel, errs[w] = sess.Delta(v)
					} else {
						rel, errs[w] = sess.Answer(v)
					}
					if errs[w] != nil {
						continue
					}
					if locals[w] == nil {
						locals[w] = rel.Clone()
					} else {
						locals[w].Retain(rel.Contains)
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(worlds)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var ans *table.Relation
	s.call("plan.WorldPlan.Stable", parent, opID, true, func() float64 {
		var running *table.Relation
		for _, l := range locals {
			if l == nil {
				continue
			}
			if running == nil {
				running = l
			} else {
				running.Retain(l.Contains)
			}
		}
		ans = table.NewRelation(wp.OutSchema())
		if wp.Splittable() {
			var stable *table.Relation
			if stable, err = wp.Stable(); err != nil {
				return 0
			}
			ans.AddAll(stable)
		}
		if running != nil {
			ans.AddAll(running)
		}
		return float64(ans.Len())
	})
	return ans, err
}

// update mirrors Engine.Update (and the server's UPDATE handler before it).
func (s *stage) update(parent, opID int, o op) error {
	s.request(parent, opID, wire.Request{Op: wire.OpUpdate, Ops: o.ups})
	muts := o.muts
	if s.wired {
		s.call("value.Parse", parent, opID, true, func() float64 {
			muts = update(o.ups...).muts
			return float64(len(muts))
		})
	}
	db := s.live[0]
	s.snap[0] = nil
	var tr *table.Tracker
	if s.hist != nil {
		tr = db.Track()
	}
	var err error
	for i, m := range muts {
		name := "table.Relation.Add" // the first write after a snapshot pays the copy
		if i > 0 {
			name = "table.Relation.Add.next"
		}
		s.call(name, parent, opID, true, func() float64 {
			err = applyMutations(db, []mutation{m})
			return 1
		})
		if err != nil {
			break
		}
	}
	if tr != nil {
		cs := tr.Stop()
		s.pending.Compose(cs)
		s.call("inc.View.Apply", parent, opID, true, func() float64 {
			if aerr := s.view.Apply(cs, db); aerr != nil && err == nil {
				err = aerr
			}
			return float64(cs.Size())
		})
	}
	for k := range s.worldPlans {
		if k.db == 0 {
			delete(s.worldPlans, k) // their stable parts are of the old state
		}
	}
	if err != nil {
		return err
	}
	s.reply(parent, opID, wire.Response{Kind: wire.KindOK, Applied: len(muts)})
	s.call("engine.Update", parent, opID, false, func() float64 {
		err = s.ref.engs[0].Update(func(d *table.Database) error { return applyMutations(d, o.muts) })
		return 0
	})
	return err
}

// commit mirrors Engine.CommitWithDeltas and the persistence behind it.
func (s *stage) commit(parent, opID int) error {
	s.request(parent, opID, wire.Request{Op: wire.OpCommit, Message: "bench"})
	if err := s.ensureServed(); err != nil {
		return err
	}
	id := s.head()
	var err error
	if !s.pending.Empty() {
		s.call("version.History.Commit", parent, opID, true, func() float64 {
			id, err = s.hist.Commit("main", "bench", s.pending, s.live[0])
			return float64(s.pending.Size())
		})
		if err != nil {
			return err
		}
		s.pending = table.NewChangeSet()
		c, err := s.hist.Lookup(id)
		if err != nil {
			return err
		}
		manifest := ""
		if c.Depth()%s.every == 0 {
			s.call("store.WriteManifest", parent, opID, true, func() float64 {
				manifest, err = s.st.WriteManifest(s.live[0])
				return float64(s.live[0].TotalTuples())
			})
			if err != nil {
				return err
			}
		}
		s.call("store.AppendCommit", parent, opID, true, func() float64 {
			err = s.st.AppendCommit(version.ExportedCommit{ID: c.ID, Parents: c.Parents, Message: c.Message, Delta: c.Delta}, "main", manifest)
			return 0
		})
		if err != nil {
			return err
		}
		s.lastRec = recordOf(c, manifest)
		s.acked = append(s.acked, id)
	}
	s.call("inc.View.TakeDelta", parent, opID, true, func() float64 { return float64(s.view.TakeDelta().Size()) })
	s.reply(parent, opID, wire.Response{Kind: wire.KindCommit, Commit: string(id)})
	s.call("engine.CommitWithDeltas", parent, opID, false, func() float64 {
		_, _, err = s.ref.engs[0].CommitWithDeltas("bench")
		return 0
	})
	return err
}

// asOf mirrors the server's ASOF: resolve, reconstruct, pin.
func (s *stage) asOf(parent, opID int, o op) error {
	if err := s.ensureServed(); err != nil {
		return err
	}
	k := o.ref % uint64(len(s.acked))
	id := s.acked[k]
	s.request(parent, opID, wire.Request{Op: wire.OpAsOf, Ref: string(id)})
	var err error
	s.call("version.History.AsOf", parent, opID, true, func() float64 {
		s.pinned, err = s.hist.AsOf(id)
		return 0
	})
	if err != nil {
		return err
	}
	s.reply(parent, opID, wire.Response{Kind: wire.KindOK, Commit: string(id)})
	// The reference engine has its own commit ids (same content, but the
	// root differs by construction time); pin it to the same ordinal.
	log, err := s.ref.engs[0].Log()
	if err != nil {
		return err
	}
	if int(k) >= len(log) {
		return fmt.Errorf("bench: reference engine has %d commits, stage asked for #%d", len(log), k)
	}
	s.call("engine.AsOf", parent, opID, false, func() float64 {
		s.refPinned, err = s.ref.engs[0].AsOf(log[len(log)-1-int(k)].ID)
		return 0
	})
	return err
}

// rowsOf renders an answer the way the server does for the wire.
func rowsOf(rel *table.Relation) [][]string {
	ts := rel.SortedTuples()
	rows := make([][]string, len(ts))
	for i, t := range ts {
		row := make([]string, len(t))
		for j, v := range t {
			row[j] = v.String()
		}
		rows[i] = row
	}
	return rows
}

// recordOf builds the log record AppendCommit writes for a commit, for the
// codec measurements.
func recordOf(c *version.Commit, manifest string) *store.Record {
	rec := &store.Record{Type: store.RecCommit, Branch: "main", ID: string(c.ID), Message: c.Message, Manifest: manifest,
		Delta: map[string]store.RecordDelta{}}
	for _, p := range c.Parents {
		rec.Parents = append(rec.Parents, string(p))
	}
	fields := func(m map[string]table.Tuple) [][]string {
		var out [][]string
		for _, t := range m {
			row := make([]string, len(t))
			for i, v := range t {
				row[i] = v.String()
			}
			out = append(out, row)
		}
		return out
	}
	for name, d := range c.Delta.Rels {
		rec.Delta[name] = store.RecordDelta{Ins: fields(d.Inserted), Del: fields(d.Deleted)}
	}
	return rec
}
