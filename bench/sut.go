package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"incdata/internal/engine"
	"incdata/internal/server"
	"incdata/internal/server/client"
	"incdata/internal/server/wire"
	"incdata/internal/table"
	"incdata/internal/valuation"
)

// sut is the system under test as a user would assemble it: one engine per
// fixture database with default options and, for the served workloads, the
// first engine persisted to a store and put behind a server with the
// fixture's view registered and one idle subscriber.
type sut struct {
	fx   *fixture
	engs []*engine.Engine

	dir  string // scratch directory of this system; removed by close
	srv  *server.Server
	addr string
	sub  *client.Client

	// State that carries over when a region is run in several instalments
	// (the traced pass alternates reference and replay): every client's
	// position in its loop, the commits acknowledged so far, and which
	// answers were already verified.
	iters    map[int]func() []op
	acked    []string
	verified map[int]bool
	ran      int // groups client 0 has run
}

// iter returns client c's loop, starting it on first use.
func (s *sut) iter(c int) func() []op {
	if s.iters[c] == nil {
		s.iters[c] = s.fx.loop(c)
	}
	return s.iters[c]
}

var scratchSeq atomic.Int64

// newScratch makes a fresh directory under out for one system's files.
func newScratch(out string) (string, error) {
	dir := filepath.Join(out, fmt.Sprintf("tmp-%d-%d", os.Getpid(), scratchSeq.Add(1)))
	return dir, os.MkdirAll(dir, 0o755)
}

// setup generates the fixture, builds the system and warms it up; the time
// it takes is the workload's setup_s.
func setup(workload string, seed int64, scale float64, out string) (*sut, error) {
	var fx *fixture
	switch workload {
	case "analytic-warm", "analytic-churn":
		fx = newCatalogFixture(workload, seed, scale)
	case "worlds-sweep":
		fx = newWorldsFixture(seed, scale)
	case "server-durable":
		fx = newOrdersFixture(seed, scale)
	default:
		return nil, fmt.Errorf("bench: unknown workload %q", workload)
	}
	s := &sut{fx: fx, iters: map[int]func() []op{}, verified: map[int]bool{}}
	for _, db := range fx.dbs {
		s.engs = append(s.engs, engine.New(db.Clone()))
	}
	if served(workload) {
		if err := s.serve(out); err != nil {
			s.close()
			return nil, err
		}
	}
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// serve persists the first engine and starts a server over it.
func (s *sut) serve(out string) error {
	dir, err := newScratch(out)
	if err != nil {
		return err
	}
	s.dir = dir
	if err := s.engs[0].Persist(filepath.Join(dir, "store")); err != nil {
		return err
	}
	if s.srv, err = server.New(s.engs[0], server.Config{}); err != nil {
		return err
	}
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = addr.String()
	if s.sub, err = client.Dial(s.addr); err != nil {
		return err
	}
	if err := s.sub.Register("view", s.fx.viewQ, "certain", ""); err != nil {
		return err
	}
	if _, err := s.sub.Subscribe("view"); err != nil {
		return err
	}
	s.acked = []string{s.sub.Head}
	return nil
}

// warmUp fills plan caches and builds sidecars with the fixture's read-only
// warm-up groups, so the measured region starts from the state a
// long-running process has.  It calls the engine directly also when the
// system is served: the server adds no cache of its own.
func (s *sut) warmUp() error {
	for _, g := range s.fx.warm {
		for _, o := range g {
			if _, err := s.do(o); err != nil {
				return err
			}
		}
	}
	return nil
}

// do runs one op in process, the way a library user calls the engine.
func (s *sut) do(o op) (*table.Relation, error) {
	eng := s.engs[o.db]
	switch o.kind {
	case kQuery:
		return eng.Eval(o.expr, engine.Options{Mode: o.mode})
	case kUpdate:
		return nil, eng.Update(func(db *table.Database) error { return applyMutations(db, o.muts) })
	case kCommit:
		_, err := eng.Commit("bench")
		return nil, err
	}
	return nil, fmt.Errorf("bench: op kind %d is not an in-process op", o.kind)
}

// applyMutations applies parsed tuple changes, failing if one is a no-op:
// the generators only add absent tuples and delete present ones, so a
// silent no-op would mean the op sequence and the state have drifted.
func applyMutations(db *table.Database, muts []mutation) error {
	for _, m := range muts {
		rel := db.Relation(m.rel)
		if rel == nil {
			return fmt.Errorf("bench: unknown relation %q", m.rel)
		}
		if m.add {
			if rel.Contains(m.t) {
				return fmt.Errorf("bench: add of present tuple %v to %s", m.t, m.rel)
			}
			if err := rel.Add(m.t); err != nil {
				return err
			}
		} else if !rel.Remove(m.t) {
			return fmt.Errorf("bench: delete of absent tuple %v from %s", m.t, m.rel)
		}
	}
	return nil
}

func (s *sut) close() {
	if s.sub != nil {
		s.sub.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	for _, e := range s.engs {
		e.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// pass is what one measured region yields.
type pass struct {
	lat    []float64            // ms, one sample per op
	lats   [][]float64          // the same samples per client, in the order they were taken
	byKind map[string][]float64 // ms: "query", "commit" (UPDATE+COMMIT), "asof" (ASOF+QUERY)
	rates  []float64            // ops per second of every instalment, all clients together
	busy   float64              // s the ops took as timed, never normalised (a served instalment: its wall time)
	allocB uint64               // bytes allocated during the instalments
	heapB  uint64               // live heap after a forced GC, see measure
	groups int                  // op groups executed (client 0's, for the staged replay)

	attempted, failed int
	failures          []string

	worlds float64 // worlds enumerated by sweeps, counted by the benchmark
	sweepS float64 // seconds spent in sweeps
}

// add appends the next instalment of the same region.
func (p *pass) add(q *pass) {
	rate := 0.0
	for _, lat := range q.lats {
		rate += ratio(float64(len(lat)), sum(lat)/1e3)
	}
	p.rates = append(p.rates, rate)
	p.allocB += q.allocB
	p.worlds += q.worlds
	p.sweepS += q.sweepS
	p.lat = append(p.lat, q.lat...)
	if len(p.lats) == 0 {
		p.lats = make([][]float64, len(q.lats))
	}
	for c := range q.lats {
		p.lats[c] = append(p.lats[c], q.lats[c]...)
	}
	for k, v := range q.byKind {
		p.byKind[k] = append(p.byKind[k], v...)
	}
	p.busy += q.busy
	p.groups += q.groups
	p.attempted += q.attempted
	p.failed += q.failed
	p.failures = append(p.failures, q.failures...)
}

func (p *pass) fail(format string, a ...any) {
	p.failed++
	if len(p.failures) < 10 {
		p.failures = append(p.failures, fmt.Sprintf(format, a...))
	}
}

// scale divides every time of an instalment by the host's slowdown around it.
func (p *pass) scale(slowdown float64) {
	div := func(xs []float64) {
		for i := range xs {
			xs[i] /= slowdown
		}
	}
	div(p.lat)
	for _, lat := range p.lats {
		div(lat)
	}
	for _, lat := range p.byKind {
		div(lat)
	}
	p.sweepS /= slowdown
}

// totalAlloc brackets an instalment for alloc_kb_per_op.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveHeap is heap_live_mb's reading: what a forced collection leaves.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// measure runs the workload's closed loop in whole instalments (every one
// the same mix of ops, see fixture.instalment) until they have taken
// seconds.  With a probe, a burst of the reference kernel runs before the
// first instalment and after each, and an instalment's times are divided by
// the mean slowdown of the two bursts around it.
//
// The live heap is read after heapInstalments instalments, so that a system
// whose history grows with every commit is read at the same length of
// history however fast it got there; a region with fewer is read at its end.
func (s *sut) measure(seconds float64, clients int, probe *hostProbe) (*pass, []sample) {
	p := &pass{byKind: map[string][]float64{}}
	var samples []sample
	before := 1.0
	if probe != nil {
		before = probe.burst()
	}
	for n := 1; p.busy < seconds; n++ {
		var q *pass
		if s.srv != nil {
			var sm []sample
			q, sm = s.runServed(clients, s.fx.instalment)
			samples = append(samples, sm...)
		} else {
			q = s.runInProcess(s.fx.instalment)
		}
		if probe != nil {
			after := probe.burst()
			q.scale((before + after) / 2)
			before = after
		}
		p.add(q)
		if n == heapInstalments {
			p.heapB = liveHeap()
		}
	}
	if p.heapB == 0 {
		p.heapB = liveHeap()
	}
	return p, samples
}

// runInProcess drives the single-caller workloads: the next groups op
// groups of client 0's loop, one after the other.  Answers are verified
// between ops, outside the timed calls.
func (s *sut) runInProcess(groups int) *pass {
	p := &pass{byKind: map[string][]float64{}}
	next := s.iter(0)
	start := totalAlloc()
	for p.groups < groups {
		g := next()
		var ans *table.Relation
		var err error
		t0 := time.Now()
		for _, o := range g {
			var r *table.Relation
			if r, err = s.do(o); err != nil {
				break
			}
			if r != nil {
				ans = r
			}
		}
		d := time.Since(t0).Seconds()
		p.busy += d
		p.lat = append(p.lat, d*1e3)
		p.attempted++
		q := g[len(g)-1]
		if err != nil {
			p.fail("group %d: %v", p.groups, err)
		} else if s.shouldVerify(s.ran) {
			p.attempted++
			if err := s.verifyAnswer(q, ans); err != nil {
				p.fail("group %d: %v", p.groups, err)
			}
		}
		if q.mode == engine.ModeCertainCWA {
			p.worlds += worldsOf(s.fx.dbs[q.db])
			p.sweepS += d
		}
		p.groups++
		s.ran++
	}
	p.allocB = totalAlloc() - start
	p.lats = [][]float64{append([]float64(nil), p.lat...)} // a copy: scale divides both
	return p
}

// shouldVerify picks the answers checked against the oracle: every
// verifyEvery-th op where writes keep changing the state, otherwise the
// first op at each position of the loop's cycle.
func (s *sut) shouldVerify(i int) bool {
	if n := s.fx.verifyEvery; n > 0 {
		return i%n == 0
	}
	first := !s.verified[i%s.fx.cycle]
	s.verified[i%s.fx.cycle] = true
	return first
}

// verifyAnswer checks one answer on the engine's current state.  Planned
// certain answers must equal the PlannerOff oracle's.  A world sweep of a
// positive query must equal naïve evaluation with nulls stripped (the
// paper's equation (4)) and be contained in the raw naïve answer.
func (s *sut) verifyAnswer(q op, ans *table.Relation) error {
	eng := s.engs[q.db]
	if ans == nil {
		return fmt.Errorf("no answer for %s", q.text)
	}
	if q.mode == engine.ModeCertain {
		oracle, err := eng.Eval(q.expr, engine.Options{Planner: engine.PlannerOff})
		if err != nil {
			return err
		}
		if oracle.CanonicalKey() != ans.CanonicalKey() {
			return fmt.Errorf("planned answer of %s (%d rows) differs from the oracle's (%d rows)", q.text, ans.Len(), oracle.Len())
		}
		return nil
	}
	certain, err := eng.Eval(q.expr, engine.Options{})
	if err != nil {
		return err
	}
	if certain.CanonicalKey() != ans.CanonicalKey() {
		return fmt.Errorf("eq. 4 broken on %s: sweep %d rows, naive-certain %d rows", q.text, ans.Len(), certain.Len())
	}
	naive, err := eng.Eval(q.expr, engine.Options{Mode: engine.ModeNaive})
	if err != nil {
		return err
	}
	for _, t := range ans.Tuples() {
		if !naive.Contains(t) {
			return fmt.Errorf("certain tuple %v of %s is not a naive answer", t, q.text)
		}
	}
	if ans.Len() == 0 {
		return fmt.Errorf("sweep of %s has an empty certain answer (early exit)", q.text)
	}
	return nil
}

// worldsOf is the size of the CWA world set a sweep enumerates: every null
// ranges over the database's constants plus one fresh constant.
func worldsOf(db *table.Database) float64 {
	return float64(valuation.Count(len(db.Nulls()), len(db.Consts())+1))
}

// --- the served closed loop ----------------------------------------------

// sample is one reply kept for verification after the region.
type sample struct {
	commit string // "" = the reply of a point query on an immutable key
	text   string
	rows   [][]string
}

// runServed drives the server with closed-loop clients over loopback TCP:
// each sends its loop's next request when the previous reply has arrived.
// Every wire request is one op sample.  Every client runs the next groups
// op groups of its loop, over a connection of its own.
func (s *sut) runServed(clients, groups int) (*pass, []sample) {
	p := &pass{byKind: map[string][]float64{}}
	var mu sync.Mutex // guards p, samples and s.acked across clients
	var samples []sample
	for c := 0; c < clients; c++ {
		s.iter(c)
	}
	var wg sync.WaitGroup
	start := totalAlloc()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(s.addr)
			if err != nil {
				mu.Lock()
				p.attempted++
				p.fail("client %d: %v", c, err)
				mu.Unlock()
				return
			}
			defer cl.Close()
			next := s.iters[c]
			var lat []float64
			kinds := map[string][]float64{}
			var mine []sample
			attempted := 0
			var errs []error
			for n := 0; n < groups && len(errs) == 0; n++ {
				g := next()
				pinned := ""
				var prev float64
				for _, o := range g {
					var req wire.Request
					switch o.kind {
					case kQuery:
						req = wire.Request{Op: wire.OpQuery, Query: o.text}
					case kUpdate:
						req = wire.Request{Op: wire.OpUpdate, Ops: o.ups}
					case kCommit:
						req = wire.Request{Op: wire.OpCommit, Message: "bench"}
					case kAsOf:
						mu.Lock()
						pinned = s.acked[o.ref%uint64(len(s.acked))]
						mu.Unlock()
						req = wire.Request{Op: wire.OpAsOf, Ref: pinned}
					case kRefresh:
						req = wire.Request{Op: wire.OpRefresh}
					}
					t := time.Now()
					resp, err := cl.Call(req)
					d := time.Since(t).Seconds() * 1e3
					attempted++
					lat = append(lat, d)
					if err != nil {
						errs = append(errs, fmt.Errorf("client %d %s: %w", c, req.Op, err))
						break
					}
					switch o.kind {
					case kQuery:
						kinds["query"] = append(kinds["query"], d)
						if pinned != "" {
							kinds["asof"] = append(kinds["asof"], prev+d)
						}
						if o.text != s.fx.viewQ && len(mine) < samplesPerInstalment {
							mine = append(mine, sample{commit: pinned, text: o.text, rows: resp.Rows})
						}
					case kCommit:
						kinds["commit"] = append(kinds["commit"], prev+d)
						mu.Lock()
						s.acked = append(s.acked, resp.Commit)
						mu.Unlock()
					}
					prev = d
				}
			}
			mu.Lock()
			defer mu.Unlock()
			p.lat = append(p.lat, lat...)
			p.lats = append(p.lats, lat)
			for k, v := range kinds {
				p.byKind[k] = append(p.byKind[k], v...)
			}
			samples = append(samples, mine...)
			p.attempted += attempted
			for _, err := range errs {
				p.fail("%v", err)
			}
		}(c)
	}
	wg.Wait()
	p.busy = time.Since(t0).Seconds()
	p.allocB = totalAlloc() - start
	p.groups = groups
	return p, samples
}
