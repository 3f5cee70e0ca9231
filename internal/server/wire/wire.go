// Package wire defines the incserver network protocol: length-prefixed
// JSON frames carrying one Request or Response each.  A frame is a 4-byte
// big-endian payload length followed by that many bytes of JSON; the
// length is hard-capped at MaxFrame so a hostile or corrupted prefix can
// never make either side allocate unbounded memory or block reading a
// frame that will never arrive.
//
// The protocol is deliberately small: one request, one reply, in order,
// per connection — except for subscription pushes (KindDelta), which the
// server interleaves between replies; clients tell them apart because
// pushes carry no request ID.  Values travel in the textual form of
// internal/value (integers as decimal, ⊥i for marked nulls, strings
// quoted only when ambiguous), which round-trips exactly through
// value.Parse — answers compare bit-identical across the wire.
//
// Response frames are written and read without reflection (codec.go).  A
// Response read from the wire keeps its frame in one allocation that every
// cell and string of it points into: holding any one of them holds the
// whole frame.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// MaxFrame is the default cap on a frame payload, applied by both reader
// and writer.  A length prefix above the cap is a protocol error, not an
// allocation.  Deployments that ship bulk updates or very wide answers
// can raise the cap per endpoint with the …Limit frame functions
// (server.Config.MaxFrame and client.DialMaxFrame wire them through); the
// two sides must agree.
const MaxFrame = 1 << 20

// Request operations.  Every request names one op; unknown ops get a
// CodeParse error reply.
const (
	// OpHello introduces the client; the reply carries the server banner
	// and the head commit.
	OpHello = "HELLO"
	// OpQuery evaluates Query under Mode/Planner/Workers on the session's
	// pinned snapshot, pinning one first if the session has none.
	OpQuery = "QUERY"
	// OpUpdate applies Ops to the live database through the engine's
	// writer lock; the session's pinned snapshot is unaffected.
	OpUpdate = "UPDATE"
	// OpCommit turns the updates since the last commit into a commit and
	// pushes every registered view's answer delta to its subscribers.
	OpCommit = "COMMIT"
	// OpAsOf pins the session to the state at a historical commit (Ref is
	// an id, unique prefix, branch name, or commit message).
	OpAsOf = "ASOF"
	// OpRefresh re-pins the session to the live head; the reply names the
	// head commit.
	OpRefresh = "REFRESH"
	// OpRegister registers Query under Mode/Planner as the maintained
	// view Name, server-side.
	OpRegister = "REGISTER"
	// OpSubscribe subscribes the connection to the registered view Name:
	// the reply is the view's current answer, and every later commit that
	// changes it pushes a KindDelta message.
	OpSubscribe = "SUBSCRIBE"
	// OpUnsubscribe drops the connection's subscription to Name.
	OpUnsubscribe = "UNSUBSCRIBE"
	// OpStats reports server and engine counters.
	OpStats = "STATS"
	// OpQuit closes the connection after an acknowledging reply.
	OpQuit = "QUIT"
)

// Response kinds.
const (
	// KindOK acknowledges an op with no tabular payload.
	KindOK = "ok"
	// KindHello is the reply to OpHello.
	KindHello = "hello"
	// KindResult carries an answer relation (Columns + Rows).
	KindResult = "result"
	// KindCommit is the reply to OpCommit, naming the new commit.
	KindCommit = "commit"
	// KindDelta is a subscription push: the net answer change of View at
	// Commit.  Pushes carry ID 0 — they answer no request.
	KindDelta = "delta"
	// KindStats carries the Stats payload.
	KindStats = "stats"
	// KindError reports a failure, classified by Code.
	KindError = "error"
)

// Error codes carried by KindError responses.  They mirror the incq CLI's
// exit-code convention: CodeParse (and CodeProto) mean the request itself
// was malformed (exit 2), everything else is an evaluation/data failure
// (exit 1).
const (
	// CodeParse marks a request the server understood as a frame but not
	// as an operation: unknown op, malformed query, bad mode/planner, bad
	// value literal.
	CodeParse = "parse"
	// CodeEval marks a well-formed request that failed against the data:
	// unknown relation or commit, arity mismatch, evaluation error.
	CodeEval = "eval"
	// CodeBusy marks a request rejected by admission control: the session
	// limit, or no execution slot within the request timeout.
	CodeBusy = "busy"
	// CodeProto marks a frame that was not valid JSON for a Request, or a
	// framing violation (oversized length prefix).  Framing violations
	// close the connection; garbage JSON inside an intact frame does not.
	CodeProto = "proto"
	// CodeShutdown marks a request refused because the server is
	// draining.
	CodeShutdown = "shutdown"
)

// Request is one client frame.
type Request struct {
	// ID is echoed in the reply so clients can match responses to
	// requests; pushes carry ID 0.
	ID uint64 `json:"id,omitempty"`
	// Op selects the operation (OpHello …​ OpQuit).
	Op string `json:"op"`
	// Client is a free-form banner sent with OpHello.
	Client string `json:"client,omitempty"`
	// Query is the relational-algebra query text (internal/queryparse
	// syntax) for OpQuery and OpRegister.
	Query string `json:"query,omitempty"`
	// Mode is the evaluation mode name (engine.ParseMode); empty means
	// certain.
	Mode string `json:"mode,omitempty"`
	// Planner is "on", "off" or "" (engine.ParsePlanner).
	Planner string `json:"planner,omitempty"`
	// Workers is the intra-query worker budget (engine.Options.Workers).
	Workers int `json:"workers,omitempty"`
	// Ops are the mutations of an OpUpdate.
	Ops []UpdateOp `json:"ops,omitempty"`
	// Ref names a commit for OpAsOf.
	Ref string `json:"ref,omitempty"`
	// Name names a view for OpRegister/OpSubscribe/OpUnsubscribe.
	Name string `json:"name,omitempty"`
	// Message is the commit message for OpCommit.
	Message string `json:"message,omitempty"`
}

// UpdateOp is one mutation of an OpUpdate request.
type UpdateOp struct {
	// Op is "add" or "delete".
	Op string `json:"op"`
	// Rel names the relation to mutate.
	Rel string `json:"rel"`
	// Row is the tuple in textual value form, one cell per attribute.
	Row []string `json:"row"`
}

// Response is one server frame: a reply (ID echoes the request) or a
// subscription push (ID 0, KindDelta).
type Response struct {
	ID   uint64 `json:"id,omitempty"`
	Kind string `json:"kind"`
	// Code classifies KindError responses.
	Code string `json:"code,omitempty"`
	// Error is the failure message of KindError responses.
	Error string `json:"error,omitempty"`
	// Server is the banner of KindHello responses.
	Server string `json:"server,omitempty"`
	// Commit is the relevant commit id: the head for hello/refresh, the
	// pinned commit for asof, the new commit for commit replies, the
	// committed commit for delta pushes.
	Commit string `json:"commit,omitempty"`
	// Columns are the answer attribute names of KindResult and KindDelta.
	Columns []string `json:"columns,omitempty"`
	// Rows are the answer tuples of KindResult in textual value form,
	// sorted in the relation's canonical tuple order.
	Rows [][]string `json:"rows,omitempty"`
	// View names the view of a subscribe reply or delta push.
	View string `json:"view,omitempty"`
	// Inserted and Deleted are the net answer change of a KindDelta push.
	Inserted [][]string `json:"inserted,omitempty"`
	Deleted  [][]string `json:"deleted,omitempty"`
	// Applied is the number of tuples an OpUpdate actually changed.
	Applied int `json:"applied,omitempty"`
	// Stats is the payload of KindStats responses.
	Stats *Stats `json:"stats,omitempty"`
}

// Stats is the payload of a STATS reply: server admission counters plus a
// coherent snapshot of the engine's cache and view counters.
type Stats struct {
	// Sessions is the number of currently connected sessions.
	Sessions int `json:"sessions"`
	// Served counts requests that acquired an execution slot.
	Served uint64 `json:"served"`
	// Rejected counts requests refused with CodeBusy.
	Rejected uint64 `json:"rejected"`
	// Head is the current head commit id.
	Head string `json:"head,omitempty"`
	// Planned and Oracle are the engine's plan-cache counters for the two
	// evaluation paths.
	Planned CacheCounters `json:"planned"`
	Oracle  CacheCounters `json:"oracle"`
	// Views maps registered view names to their refresh counters.
	Views map[string]ViewCounters `json:"views,omitempty"`
	// Relations maps each relation that has served equality selections or
	// built hash indexes to how: see RelationCounters.
	Relations map[string]RelationCounters `json:"relations,omitempty"`
}

// CacheCounters mirrors the engine's plan-cache and world-sweep
// statistics: sweeps run, worlds they evaluated the query on, and sweeps
// that stopped before their last world.
type CacheCounters struct {
	OneShotHits      uint64 `json:"one_shot_hits"`
	OneShotMisses    uint64 `json:"one_shot_misses"`
	OneShotEvictions uint64 `json:"one_shot_evictions"`
	WorldHits        uint64 `json:"world_hits"`
	WorldMisses      uint64 `json:"world_misses"`
	WorldEvictions   uint64 `json:"world_evictions"`
	Sweeps           uint64 `json:"sweeps"`
	WorldsEvaluated  uint64 `json:"worlds_evaluated"`
	SweepEarlyExits  uint64 `json:"sweep_early_exits"`
}

// RelationCounters mirrors the access-path counters of one relation:
// equality selections answered from a hash index and by a scan, and the
// hash indexes built from nothing and brought up to date after a write.
type RelationCounters struct {
	IndexLookups uint64 `json:"index_lookups"`
	SelectScans  uint64 `json:"select_scans"`
	IndexBuilds  uint64 `json:"index_builds"`
	IndexPatches uint64 `json:"index_patches"`
}

// ViewCounters mirrors a maintained view's refresh statistics.
type ViewCounters struct {
	Updates     uint64 `json:"updates"`
	Skipped     uint64 `json:"skipped"`
	Incremental uint64 `json:"incremental"`
	Recomputed  uint64 `json:"recomputed"`
	DeltaIn     uint64 `json:"delta_in"`
	DeltaOut    uint64 `json:"delta_out"`
	Failed      uint64 `json:"failed"`
}

// FrameTooLargeError reports a frame payload above the endpoint's cap.
// After reading one the stream position is untrustworthy (the oversized
// payload was never consumed); the connection must be closed.
type FrameTooLargeError struct {
	// Limit is the cap the frame exceeded, in bytes.
	Limit int
}

// Error formats the violation with the endpoint's cap.
func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("wire: frame exceeds %d bytes", e.Limit)
}

// Is makes every FrameTooLargeError match ErrFrameTooLarge under
// errors.Is, regardless of the configured limit.
func (e *FrameTooLargeError) Is(target error) bool {
	_, ok := target.(*FrameTooLargeError)
	return ok
}

// ErrFrameTooLarge is the sentinel for errors.Is checks; frame functions
// return a *FrameTooLargeError carrying the actual limit.
var ErrFrameTooLarge error = &FrameTooLargeError{Limit: MaxFrame}

// frameLimit resolves a caller-supplied cap: zero or negative means the
// protocol default MaxFrame.
func frameLimit(limit int) int {
	if limit <= 0 {
		return MaxFrame
	}
	return limit
}

// WriteFrame marshals v and writes it as one length-prefixed frame,
// capped at MaxFrame.
func WriteFrame(w io.Writer, v any) error { return WriteFrameLimit(w, v, 0) }

// WriteFrameLimit is WriteFrame under an explicit payload cap; limit <= 0
// means MaxFrame.  Both sides of a connection must agree on the cap, or a
// frame one side writes may be a framing violation to the other.  The
// frame goes out in one Write; a frame over the cap writes nothing.
func WriteFrameLimit(w io.Writer, v any, limit int) error {
	box := framePool.Get().(*[]byte)
	defer putFrame(box)
	frame := append((*box)[:0], 0, 0, 0, 0)
	var err error
	if resp, ok := v.(Response); ok {
		frame, err = appendResponse(frame, &resp)
	} else {
		var payload []byte
		payload, err = json.Marshal(v)
		frame = append(frame, payload...)
	}
	*box = frame
	if err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	n := len(frame) - 4
	if max := frameLimit(limit); n > max {
		return &FrameTooLargeError{Limit: max}
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err = w.Write(frame)
	return err
}

// framePool recycles the buffers frames are written from.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// putFrame hands a frame buffer back, unless a frame over the default cap
// grew it: one such frame must not pin its size in every pool.
func putFrame(box *[]byte) {
	if cap(*box) <= 4+MaxFrame {
		framePool.Put(box)
	}
}

// ReadFrame reads one length-prefixed frame payload, capped at MaxFrame.
// A clean EOF before any header byte returns io.EOF; a header or payload
// cut short returns io.ErrUnexpectedEOF; a length above the cap returns a
// *FrameTooLargeError without reading (or allocating) the payload.
func ReadFrame(r io.Reader) ([]byte, error) { return ReadFrameLimit(r, 0) }

// ReadFrameLimit is ReadFrame under an explicit payload cap; limit <= 0
// means MaxFrame.
func ReadFrameLimit(r io.Reader, limit int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if max := frameLimit(limit); uint64(n) > uint64(max) {
		return nil, &FrameTooLargeError{Limit: max}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// ReadResponse reads and decodes one Response frame, capped at MaxFrame.
func ReadResponse(r io.Reader) (Response, error) { return ReadResponseLimit(r, 0) }

// ReadResponseLimit is ReadResponse under an explicit payload cap;
// limit <= 0 means MaxFrame.
func ReadResponseLimit(r io.Reader, limit int) (Response, error) {
	payload, err := ReadFrameLimit(r, limit)
	if err != nil {
		return Response{}, err
	}
	if resp, ok := decodeResponse(payload); ok {
		return resp, nil
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return Response{}, fmt.Errorf("wire: bad response frame: %w", err)
	}
	return resp, nil
}
