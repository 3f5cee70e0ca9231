// Package server is the multi-session network front end of the engine: a
// long-lived TCP server speaking the length-prefixed JSON protocol of
// internal/server/wire over one shared engine.Engine per process.
//
// # Sessions
//
// Each accepted connection is one session.  A session's reads are pinned
// to a snapshot: the first QUERY pins the live state at that moment, and
// concurrent commits by other sessions stay invisible until an explicit
// REFRESH re-pins the head — exactly the engine's snapshot-isolation
// contract lifted onto the wire.  ASOF re-pins the session to a
// historical commit through the version DAG, so time-traveling reads run
// through the same code path (and the same stamp-keyed plan caches) as
// live ones.  Writes (UPDATE) and COMMIT always address the live head,
// regardless of where the session's reads are pinned.
//
// # Threading model
//
// One goroutine reads and handles a connection's requests in order; a
// second drains its outbound queue to the socket, so subscription pushes
// (which originate in whichever session committed) never interleave
// mid-frame with replies.  Request execution passes through an admission
// gate: at most MaxInflight requests execute at once, a request that
// cannot get a slot within RequestTimeout is refused with a typed BUSY
// error (backpressure, not unbounded goroutines), and the session limit
// is enforced at accept time the same way.  Close drains: in-flight
// requests finish and their replies are flushed before sockets close.
//
// # Subscriptions
//
// REGISTER creates a maintained view (internal/inc) on the engine plus a
// server-side feed holding the answer as of the last commit.  COMMIT
// atomically commits and drains each view's accumulated answer delta
// (Engine.CommitWithDeltas); the server applies each delta to its feed
// baseline and pushes it to the view's SUBSCRIBEd sessions.  A subscriber
// therefore receives the full answer once, then exactly the changed
// tuples per commit — applying them in order reproduces the maintained
// answer at every commit.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"incdata/internal/certain"
	"incdata/internal/engine"
	"incdata/internal/queryparse"
	"incdata/internal/server/wire"
	"incdata/internal/table"
	"incdata/internal/value"
)

// Config are the server's admission-control and evaluation knobs; the
// zero value gets sensible defaults from (Config).withDefaults.
type Config struct {
	// MaxSessions caps concurrently connected sessions; connections
	// beyond it are refused with a BUSY error at accept time.  Default 64.
	MaxSessions int
	// MaxInflight caps concurrently executing requests across all
	// sessions.  Default 2×GOMAXPROCS, minimum 2.
	MaxInflight int
	// RequestTimeout bounds how long a request may wait for an execution
	// slot before it is refused with a BUSY error.  Default 5s.
	RequestTimeout time.Duration
	// PushBuffer is each session's outbound queue depth; a subscriber too
	// slow to drain its pushes is disconnected rather than allowed to
	// stall the server.  Default 256.
	PushBuffer int
	// Workers is the default per-world enumeration pool size for
	// requests that do not set their own (engine.Options.Workers
	// semantics).  It is trusted as given; a request's own value is
	// bounded by GOMAXPROCS.
	Workers int
	// MaxWorlds bounds world enumeration for the world-modes served over
	// the wire.  Default 1<<20.
	MaxWorlds int
	// MaxFrame caps a wire frame payload in bytes, both directions.
	// Clients must dial with the same cap (client.DialMaxFrame).  Default
	// wire.MaxFrame (1 MiB).
	MaxFrame int
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
		if c.MaxInflight < 2 {
			c.MaxInflight = 2
		}
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.PushBuffer <= 0 {
		c.PushBuffer = 256
	}
	if c.MaxWorlds <= 0 {
		c.MaxWorlds = 1 << 20
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.MaxFrame
	}
	return c
}

// Server serves one engine to many sessions.
type Server struct {
	eng *engine.Engine
	cfg Config

	ln       net.Listener
	gate     chan struct{} // execution slots (MaxInflight)
	sessions chan struct{} // session slots (MaxSessions)

	mu     sync.Mutex // guards conns, feeds, closing
	conns  map[*conn]struct{}
	feeds  map[string]*feed
	closed chan struct{}

	// commitMu serializes COMMIT+broadcast (and REGISTER feed setup) so
	// per-commit deltas reach subscribers in commit order.
	commitMu sync.Mutex

	wg       sync.WaitGroup
	closing  bool
	served   atomic.Uint64
	rejected atomic.Uint64

	// testHookExec, when set by tests, runs while the request's execution
	// slot is held, before dispatch — a deterministic way to keep a slot
	// occupied for backpressure and drain tests.
	testHookExec func(op string)
}

// feed is the server-side state of one registered view: the answer as of
// the last commit push, and the sessions subscribed to it.
type feed struct {
	base *table.Relation
	subs map[*conn]struct{}
}

// New wraps an engine in a server.  Version history is enabled on the
// engine if it is not already — ASOF and COMMIT need the commit DAG.
func New(eng *engine.Engine, cfg Config) (*Server, error) {
	if !eng.HistoryEnabled() {
		if _, err := eng.EnableHistory(engine.HistoryOptions{}); err != nil {
			return nil, err
		}
	}
	cfg = cfg.withDefaults()
	return &Server{
		eng:      eng,
		cfg:      cfg,
		gate:     make(chan struct{}, cfg.MaxInflight),
		sessions: make(chan struct{}, cfg.MaxSessions),
		conns:    map[*conn]struct{}{},
		feeds:    map[string]*feed{},
		closed:   make(chan struct{}),
	}, nil
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting sessions.
// It returns the bound address immediately; serving runs in background
// goroutines until Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// acceptLoop admits sessions up to the session cap.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		select {
		case s.sessions <- struct{}{}:
		default:
			s.rejected.Add(1)
			go s.refuse(nc)
			continue
		}
		c := &conn{srv: s, nc: nc, out: make(chan wire.Response, s.cfg.PushBuffer)}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			<-s.sessions
			nc.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(2)
		go c.writeLoop()
		go c.readLoop()
	}
}

// refuse turns away a connection over the session cap: it reads the
// client's opening frame before replying, so the close below never fires
// a TCP reset into a receive buffer still holding unread bytes — a reset
// would race the BUSY frame to the client and sometimes destroy it.
// Reading first empties our side; the deadline bounds a client that
// never sends anything.
func (s *Server) refuse(nc net.Conn) {
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(time.Second))
	wire.ReadFrameLimit(nc, s.cfg.MaxFrame)
	wire.WriteFrameLimit(nc, wire.Response{Kind: wire.KindError, Code: wire.CodeBusy,
		Error: fmt.Sprintf("server: session limit (%d) reached", s.cfg.MaxSessions)}, s.cfg.MaxFrame)
}

// Addr returns the bound address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, lets in-flight requests finish and their replies
// flush, then closes every session.  It is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closing = true
	close(s.closed)
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	// Interrupt idle reads; a handler mid-request is unaffected (the
	// deadline only breaks the blocking Read) and finishes its reply.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.wg.Wait()
	return nil
}

// Stats assembles the STATS payload.
func (s *Server) stats() *wire.Stats {
	s.mu.Lock()
	sessions := len(s.conns)
	s.mu.Unlock()
	est := s.eng.Stats()
	st := &wire.Stats{
		Sessions: sessions,
		Served:   s.served.Load(),
		Rejected: s.rejected.Load(),
		Planned:  cacheCounters(est.Planned),
		Oracle:   cacheCounters(est.Oracle),
	}
	if _, head, err := s.eng.Head(); err == nil {
		st.Head = string(head)
	}
	if len(est.Views) > 0 {
		st.Views = make(map[string]wire.ViewCounters, len(est.Views))
		for name, vs := range est.Views {
			st.Views[name] = wire.ViewCounters{
				Updates: vs.Updates, Skipped: vs.Skipped,
				Incremental: vs.Incremental, Recomputed: vs.Recomputed,
				DeltaIn: vs.DeltaIn, DeltaOut: vs.DeltaOut, Failed: vs.Failed,
			}
		}
	}
	for name, es := range est.Encoding {
		if es.IndexLookups+es.SelectScans+es.IndexBuilds+es.IndexPatches == 0 {
			continue
		}
		if st.Relations == nil {
			st.Relations = map[string]wire.RelationCounters{}
		}
		st.Relations[name] = wire.RelationCounters{
			IndexLookups: es.IndexLookups, SelectScans: es.SelectScans,
			IndexBuilds: es.IndexBuilds, IndexPatches: es.IndexPatches,
		}
	}
	return st
}

// cacheCounters converts engine cache statistics to their wire form.
func cacheCounters(cs certain.CacheStats) wire.CacheCounters {
	return wire.CacheCounters{
		OneShotHits:      cs.OneShotHits,
		OneShotMisses:    cs.OneShotMisses,
		OneShotEvictions: cs.OneShotEvictions,
		WorldHits:        cs.WorldHits,
		WorldMisses:      cs.WorldMisses,
		WorldEvictions:   cs.WorldEvictions,
		Sweeps:           cs.Sweeps,
		WorldsEvaluated:  cs.WorldsEvaluated,
		SweepEarlyExits:  cs.SweepEarlyExits,
	}
}

// conn is one session.
type conn struct {
	srv *Server
	nc  net.Conn
	out chan wire.Response

	// Session state, touched only by the session's own readLoop.
	snap *engine.Snapshot
	// subs is the set of view names this session subscribed to, for
	// teardown.
	subs map[string]struct{}

	dropOnce sync.Once
}

// send enqueues a reply; the session's writeLoop owns the socket.
func (c *conn) send(resp wire.Response) {
	c.out <- resp
}

// trySend enqueues a push without blocking; a session whose queue is full
// is disconnected (slow subscribers must not stall commits).
func (c *conn) trySend(resp wire.Response) {
	select {
	case c.out <- resp:
	default:
		c.drop()
	}
}

// drop forcibly tears the session down (slow subscriber, write failure).
func (c *conn) drop() {
	c.dropOnce.Do(func() {
		c.nc.SetReadDeadline(time.Now())
		c.nc.SetWriteDeadline(time.Now())
	})
}

// writeLoop drains the outbound queue to the socket.  A frame over the cap
// writes nothing, so the stream stays intact: an oversized reply becomes an
// eval error naming the cap, and an oversized push drops the subscriber as
// a full queue does.  After a write error it drops the session and keeps
// draining (discarding) so handlers never block on a dead session, and
// closes the socket once the queue is closed.
func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	limit := c.srv.cfg.MaxFrame
	var werr error
	for resp := range c.out {
		if werr != nil {
			continue
		}
		werr = wire.WriteFrameLimit(c.nc, resp, limit)
		if errors.Is(werr, wire.ErrFrameTooLarge) && resp.Kind != wire.KindDelta {
			werr = wire.WriteFrameLimit(c.nc, wire.Response{ID: resp.ID, Kind: wire.KindError, Code: wire.CodeEval,
				Error: fmt.Sprintf("server: %s reply of %d rows: %v", resp.Kind, len(resp.Rows), werr)}, limit)
		}
		if werr != nil {
			c.drop()
		}
	}
	c.nc.Close()
}

// readLoop reads and handles the session's requests in order.
func (c *conn) readLoop() {
	s := c.srv
	defer func() {
		s.detach(c)
		close(c.out) // writeLoop flushes what is queued, then closes the socket
		<-s.sessions
		s.wg.Done()
	}()
	for {
		payload, err := wire.ReadFrameLimit(c.nc, s.cfg.MaxFrame)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The stream position is untrustworthy after a bad
				// length prefix: report and hang up.
				c.send(wire.Response{Kind: wire.KindError, Code: wire.CodeProto, Error: err.Error()})
			}
			if s.isClosing() && isTimeout(err) {
				return // drained: the deadline only interrupts idle reads
			}
			return
		}
		req, perr := decodeRequest(payload)
		if perr != nil {
			// The frame itself was intact, so the stream stays usable:
			// report the malformed request and keep serving.
			c.send(wire.Response{Kind: wire.KindError, Code: wire.CodeProto, Error: perr.Error()})
			continue
		}
		if quit := c.handle(req); quit {
			return
		}
	}
}

// decodeRequest unmarshals a request frame.
func decodeRequest(payload []byte) (wire.Request, error) {
	var req wire.Request
	if err := json.Unmarshal(payload, &req); err != nil {
		return wire.Request{}, fmt.Errorf("server: bad request frame: %v", err)
	}
	return req, nil
}

// handle executes one request and sends its reply; it reports whether the
// session should end (QUIT).
func (c *conn) handle(req wire.Request) (quit bool) {
	s := c.srv
	reply := func(resp wire.Response) {
		resp.ID = req.ID
		c.send(resp)
	}
	fail := func(code string, err error) {
		reply(wire.Response{Kind: wire.KindError, Code: code, Error: err.Error()})
	}
	switch req.Op {
	case wire.OpHello:
		resp := wire.Response{Kind: wire.KindHello, Server: "incserver/1"}
		if _, head, err := s.eng.Head(); err == nil {
			resp.Commit = string(head)
		}
		reply(resp)
		return false
	case wire.OpQuit:
		reply(wire.Response{Kind: wire.KindOK})
		return true
	case wire.OpUnsubscribe:
		if req.Name == "" {
			fail(wire.CodeParse, fmt.Errorf("server: UNSUBSCRIBE needs a view name"))
			return false
		}
		s.unsubscribe(c, req.Name)
		delete(c.subs, req.Name)
		reply(wire.Response{Kind: wire.KindOK, View: req.Name})
		return false
	case wire.OpQuery, wire.OpUpdate, wire.OpCommit, wire.OpAsOf, wire.OpRefresh,
		wire.OpRegister, wire.OpSubscribe, wire.OpStats:
		// Engine-touching ops pass the admission gate below.
	default:
		fail(wire.CodeParse, fmt.Errorf("server: unknown op %q", req.Op))
		return false
	}

	if s.isClosing() {
		fail(wire.CodeShutdown, fmt.Errorf("server: shutting down"))
		return false
	}
	if !s.acquire() {
		s.rejected.Add(1)
		fail(wire.CodeBusy, fmt.Errorf("server: no execution slot within %s (%d in flight)",
			s.cfg.RequestTimeout, s.cfg.MaxInflight))
		return false
	}
	defer func() { <-s.gate }()
	s.served.Add(1)
	if s.testHookExec != nil {
		s.testHookExec(req.Op)
	}

	switch req.Op {
	case wire.OpQuery:
		resp, code, err := c.query(req)
		if err != nil {
			fail(code, err)
			return false
		}
		reply(resp)
	case wire.OpUpdate:
		resp, code, err := c.update(req)
		if err != nil {
			fail(code, err)
			return false
		}
		reply(resp)
	case wire.OpCommit:
		id, err := s.commitAndPush(req.Message)
		if err != nil {
			fail(wire.CodeEval, err)
			return false
		}
		reply(wire.Response{Kind: wire.KindCommit, Commit: string(id)})
	case wire.OpAsOf:
		id, err := s.eng.ResolveCommit(req.Ref)
		if err != nil {
			fail(wire.CodeEval, err)
			return false
		}
		snap, err := s.eng.AsOf(id)
		if err != nil {
			fail(wire.CodeEval, err)
			return false
		}
		c.snap = snap
		reply(wire.Response{Kind: wire.KindOK, Commit: string(id)})
	case wire.OpRefresh:
		c.snap = s.eng.Snapshot()
		resp := wire.Response{Kind: wire.KindOK}
		if _, head, err := s.eng.Head(); err == nil {
			resp.Commit = string(head)
		}
		reply(resp)
	case wire.OpRegister:
		code, err := s.register(req)
		if err != nil {
			fail(code, err)
			return false
		}
		reply(wire.Response{Kind: wire.KindOK, View: req.Name})
	case wire.OpSubscribe:
		resp, code, err := s.subscribe(c, req)
		if err != nil {
			fail(code, err)
			return false
		}
		reply(resp)
	case wire.OpStats:
		reply(wire.Response{Kind: wire.KindStats, Stats: s.stats()})
	}
	return false
}

// acquire takes an execution slot, waiting at most RequestTimeout.
func (s *Server) acquire() bool {
	select {
	case s.gate <- struct{}{}:
		return true
	default:
	}
	t := time.NewTimer(s.cfg.RequestTimeout)
	defer t.Stop()
	select {
	case s.gate <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

// query evaluates QUERY on the session's pinned snapshot, pinning the
// live head first if the session has none yet.
func (c *conn) query(req wire.Request) (wire.Response, string, error) {
	opts, err := c.srv.evalOptions(req)
	if err != nil {
		return wire.Response{}, wire.CodeParse, err
	}
	expr, err := queryparse.Parse(req.Query)
	if err != nil {
		return wire.Response{}, wire.CodeParse, err
	}
	if c.snap == nil {
		c.snap = c.srv.eng.Snapshot()
	}
	rel, err := c.snap.Eval(expr, opts)
	if err != nil {
		return wire.Response{}, wire.CodeEval, err
	}
	cols, rows := relRows(rel)
	return wire.Response{Kind: wire.KindResult, Columns: cols, Rows: rows}, "", nil
}

// evalOptions builds engine options from a request's mode/planner/workers.
func (s *Server) evalOptions(req wire.Request) (engine.Options, error) {
	mode, err := engine.ParseMode(modeOrDefault(req.Mode))
	if err != nil {
		return engine.Options{}, err
	}
	planner, err := engine.ParsePlanner(req.Planner)
	if err != nil {
		return engine.Options{}, err
	}
	workers := req.Workers
	if limit := runtime.GOMAXPROCS(0); workers < 0 || workers > limit {
		return engine.Options{}, fmt.Errorf("server: workers %d outside 0..%d (GOMAXPROCS)", workers, limit)
	}
	if workers == 0 {
		workers = s.cfg.Workers
	}
	return engine.Options{Mode: mode, Planner: planner, Workers: workers, MaxWorlds: s.cfg.MaxWorlds}, nil
}

func modeOrDefault(m string) string {
	if m == "" {
		return "certain"
	}
	return m
}

// parsedOp is one UPDATE mutation, decoded and validated before the
// engine lock is taken.
type parsedOp struct {
	add bool
	rel string
	t   table.Tuple
}

// update applies UPDATE ops to the live database.  Parse failures (bad op
// kind, bad value literal) are detected before any mutation; data
// failures (unknown relation, arity) abort mid-way inside the engine's
// update — partial effects stay visible, as with any failed Update, and
// are reported as eval errors.
func (c *conn) update(req wire.Request) (wire.Response, string, error) {
	if len(req.Ops) == 0 {
		return wire.Response{}, wire.CodeParse, fmt.Errorf("server: UPDATE needs ops")
	}
	ops := make([]parsedOp, 0, len(req.Ops))
	for i, op := range req.Ops {
		var add bool
		switch op.Op {
		case "add":
			add = true
		case "delete", "del":
		default:
			return wire.Response{}, wire.CodeParse, fmt.Errorf("server: ops[%d]: unknown op %q (want add or delete)", i, op.Op)
		}
		t := make(table.Tuple, len(op.Row))
		for j, cell := range op.Row {
			v, err := value.Parse(cell)
			if err != nil {
				return wire.Response{}, wire.CodeParse, fmt.Errorf("server: ops[%d].row[%d]: %v", i, j, err)
			}
			t[j] = v
		}
		ops = append(ops, parsedOp{add: add, rel: op.Rel, t: t})
	}
	applied := 0
	err := c.srv.eng.Update(func(db *table.Database) error {
		for _, op := range ops {
			rel := db.Relation(op.rel)
			if rel == nil {
				return fmt.Errorf("server: unknown relation %q", op.rel)
			}
			if op.add {
				if rel.Contains(op.t) {
					continue
				}
				if err := rel.Add(op.t); err != nil {
					return err
				}
				applied++
			} else if rel.Remove(op.t) {
				applied++
			}
		}
		return nil
	})
	if err != nil {
		return wire.Response{}, wire.CodeEval, err
	}
	return wire.Response{Kind: wire.KindOK, Applied: applied}, "", nil
}

// register creates the maintained view and its server-side feed.  It runs
// under commitMu so no commit can drain the fresh view's deltas before
// the feed exists to receive them.
func (s *Server) register(req wire.Request) (string, error) {
	if req.Name == "" {
		return wire.CodeParse, fmt.Errorf("server: REGISTER needs a view name")
	}
	opts, err := s.evalOptions(req)
	if err != nil {
		return wire.CodeParse, err
	}
	expr, err := queryparse.Parse(req.Query)
	if err != nil {
		return wire.CodeParse, err
	}
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := s.eng.Register(req.Name, expr, opts); err != nil {
		return wire.CodeEval, err
	}
	base, err := s.eng.Answers(req.Name)
	if err != nil {
		return wire.CodeEval, err
	}
	s.mu.Lock()
	s.feeds[req.Name] = &feed{base: base, subs: map[*conn]struct{}{}}
	s.mu.Unlock()
	return "", nil
}

// subscribe attaches the session to a registered view's feed and returns
// the feed's current baseline — the answer as of the last commit push.
// Serialization with commitAndPush (both lock s.mu around feed state)
// guarantees the baseline and the subsequent delta stream compose without
// gaps or duplicates.
func (s *Server) subscribe(c *conn, req wire.Request) (wire.Response, string, error) {
	if req.Name == "" {
		return wire.Response{}, wire.CodeParse, fmt.Errorf("server: SUBSCRIBE needs a view name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.feeds[req.Name]
	if !ok {
		return wire.Response{}, wire.CodeEval, fmt.Errorf("server: unknown view %q (REGISTER it first)", req.Name)
	}
	f.subs[c] = struct{}{}
	if c.subs == nil {
		c.subs = map[string]struct{}{}
	}
	c.subs[req.Name] = struct{}{}
	cols, rows := relRows(f.base)
	return wire.Response{Kind: wire.KindResult, View: req.Name, Columns: cols, Rows: rows}, "", nil
}

// unsubscribe detaches the session from a view's feed.
func (s *Server) unsubscribe(c *conn, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.feeds[name]; ok {
		delete(f.subs, c)
	}
}

// commitAndPush commits the pending updates and pushes every changed
// view's answer delta to its subscribers, in commit order (commitMu).
func (s *Server) commitAndPush(message string) (id string, err error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	cid, deltas, err := s.eng.CommitWithDeltas(message)
	if err != nil {
		return "", err
	}
	if len(deltas) == 0 {
		return string(cid), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, d := range deltas {
		f, ok := s.feeds[name]
		if !ok {
			continue // view registered directly on the engine, no feed
		}
		f.base.ApplyDelta(d)
		if len(f.subs) == 0 {
			continue
		}
		push := wire.Response{
			Kind:     wire.KindDelta,
			View:     name,
			Commit:   string(cid),
			Columns:  append([]string(nil), f.base.Schema().Attrs...),
			Inserted: RenderRows(sortedDeltaTuples(d.Inserted)),
			Deleted:  RenderRows(sortedDeltaTuples(d.Deleted)),
		}
		for c := range f.subs {
			c.trySend(push)
		}
	}
	return string(cid), nil
}

// detach removes a closing session from the conn set and every feed.
func (s *Server) detach(c *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
	for _, f := range s.feeds {
		delete(f.subs, c)
	}
}

// isClosing reports whether Close has begun.
func (s *Server) isClosing() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded)
}

// relRows serializes a relation for the wire: attribute names plus every
// tuple in canonical sorted order, cells in the textual value form that
// round-trips through value.Parse.  Two relations are equal exactly when
// their serializations are — "bit-identical across the wire".
func relRows(rel *table.Relation) (cols []string, rows [][]string) {
	cols = append([]string(nil), rel.Schema().Attrs...)
	return cols, RenderRows(rel.SortedTuples())
}

// RenderRows renders tuples to the wire's textual rows.  The cells of all
// rows share one backing array.
func RenderRows(ts []table.Tuple) [][]string {
	if len(ts) == 0 {
		return nil
	}
	n := 0
	for _, t := range ts {
		n += len(t)
	}
	cells := make([]string, 0, n)
	rows := make([][]string, len(ts))
	for i, t := range ts {
		start := len(cells)
		for _, v := range t {
			cells = append(cells, v.String())
		}
		rows[i] = cells[start:len(cells):len(cells)]
	}
	return rows
}

// sortedDeltaTuples orders one side of a delta deterministically by the
// canonical tuple key.
func sortedDeltaTuples(m map[string]table.Tuple) []table.Tuple {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]table.Tuple, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}
