package server

// Protocol-robustness tests: hostile and malformed byte streams against a
// live server.  The invariants: the server never panics, never hangs, and
// classifies failures with typed error codes — garbage JSON inside an
// intact frame keeps the connection usable, framing violations close it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"incdata/internal/server/client"
	"incdata/internal/server/wire"
)

// rawDial opens a plain TCP connection to the server, bypassing the
// client's protocol discipline.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	return nc
}

// TestGarbageJSONKeepsConnection pins that a frame whose payload is not a
// Request gets a typed proto error and the stream stays usable: a valid
// request on the same connection still answers.
func TestGarbageJSONKeepsConnection(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	nc := rawDial(t, addr)

	for _, garbage := range []string{"not json at all", `{"op": 42}`, `[]`, `{"op":"QUERY","ops":"x"}`} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(garbage)))
		if _, err := nc.Write(append(hdr[:], garbage...)); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadResponse(nc)
		if err != nil {
			t.Fatalf("%q: %v", garbage, err)
		}
		if resp.Kind != wire.KindError || resp.Code != wire.CodeProto {
			t.Fatalf("%q: kind=%s code=%s, want proto error", garbage, resp.Kind, resp.Code)
		}
	}

	// The stream survived: a well-formed request still works.
	if err := wire.WriteFrame(nc, wire.Request{ID: 9, Op: wire.OpHello}); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadResponse(nc)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 9 || resp.Kind != wire.KindHello {
		t.Fatalf("after garbage: %+v, want hello reply", resp)
	}
}

// TestOversizedPrefixClosesConnection pins that a length prefix above the
// cap gets a proto error and then a hangup — the stream position cannot
// be trusted after a framing violation.
func TestOversizedPrefixClosesConnection(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	nc := rawDial(t, addr)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], wire.MaxFrame+1)
	if _, err := nc.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.ReadResponse(nc)
	if err != nil {
		t.Fatalf("expected a proto error before the hangup: %v", err)
	}
	if resp.Kind != wire.KindError || resp.Code != wire.CodeProto {
		t.Fatalf("kind=%s code=%s, want proto error", resp.Kind, resp.Code)
	}
	if _, err := wire.ReadResponse(nc); err == nil {
		t.Fatal("connection must be closed after a framing violation")
	}
}

// TestTruncatedFrameDisconnectsWithoutHanging pins that a client dying
// mid-frame neither hangs a handler goroutine nor leaks the session: the
// server just closes its side.
func TestTruncatedFrameDisconnectsWithoutHanging(t *testing.T) {
	srv, _, addr := startServer(t, Config{})
	nc := rawDial(t, addr)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	if _, err := nc.Write(append(hdr[:], "only part"...)); err != nil {
		t.Fatal(err)
	}
	if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	// The server sees an unexpected EOF and tears the session down; our
	// read unblocks with EOF rather than timing out.
	if _, err := io.ReadAll(nc); err != nil {
		t.Fatalf("read after truncated frame: %v", err)
	}
	// The session slot is released: Close does not wait on a leaked
	// handler (it would time the test out if it did).
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigMaxFrame pins the configurable frame cap end to end.  A
// server with a tiny cap treats a frame the protocol default would accept
// as a framing violation (typed proto error, then hangup); a server with
// a raised cap serves an update whose frame exceeds the default 1 MiB,
// provided the client dialed with the matching cap — a default-cap client
// refuses to even write that frame, with the typed error.
func TestConfigMaxFrame(t *testing.T) {
	t.Run("small cap refuses", func(t *testing.T) {
		_, _, addr := startServer(t, Config{MaxFrame: 256})
		nc := rawDial(t, addr)
		// 300 bytes of query is legal by the protocol default but over
		// this server's cap.  Write it uncapped to get it on the wire.
		req := wire.Request{ID: 1, Op: wire.OpQuery, Query: strings.Repeat("R", 300)}
		if err := wire.WriteFrameLimit(nc, req, wire.MaxFrame); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadResponse(nc)
		if err != nil {
			t.Fatalf("expected a proto error before the hangup: %v", err)
		}
		if resp.Kind != wire.KindError || resp.Code != wire.CodeProto {
			t.Fatalf("kind=%s code=%s, want proto error", resp.Kind, resp.Code)
		}
		if _, err := wire.ReadResponse(nc); err == nil {
			t.Fatal("connection must be closed after exceeding the configured cap")
		}
	})

	t.Run("raised cap serves oversized frames", func(t *testing.T) {
		const frameCap = 4 * wire.MaxFrame
		_, _, addr := startServer(t, Config{MaxFrame: frameCap})
		cl, err := client.DialMaxFrame(addr, frameCap)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// One update frame of ~2 MiB: over the protocol default, under
		// this deployment's cap.
		bigRow := strings.Repeat("x", 2*wire.MaxFrame)
		resp, err := cl.Update(client.Add("R", "9", bigRow))
		if err != nil {
			t.Fatalf("oversized update under a raised cap: %v", err)
		}
		if resp.Applied != 1 {
			t.Fatalf("applied = %d, want 1", resp.Applied)
		}
		// Reading the wide row back crosses the cap in the reply
		// direction too.
		qr, err := cl.Query("R", "certain", "on", 0)
		if err != nil {
			t.Fatalf("query returning the wide row: %v", err)
		}
		found := false
		for _, row := range qr.Rows {
			if len(row) == 2 && row[1] == bigRow {
				found = true
			}
		}
		if !found {
			t.Fatal("the 2 MiB cell did not round-trip through the raised cap")
		}

		// A default-cap client against the same server cannot even write
		// that frame: the typed error surfaces client-side.
		def := dial(t, addr)
		if _, err := def.Update(client.Add("R", "10", bigRow)); !errors.Is(err, wire.ErrFrameTooLarge) {
			t.Fatalf("default-cap write: err = %v, want ErrFrameTooLarge", err)
		}
		var fe *wire.FrameTooLargeError
		if _, err := def.Update(client.Add("R", "11", bigRow)); !errors.As(err, &fe) || fe.Limit != wire.MaxFrame {
			t.Fatalf("default-cap write: err = %v, want FrameTooLargeError{%d}", err, wire.MaxFrame)
		}
	})

	t.Run("oversized reply is an error and the session keeps serving", func(t *testing.T) {
		_, _, addr := startServer(t, Config{})
		setup := dial(t, addr)
		if err := setup.Register("W", "R", "certain", "on"); err != nil {
			t.Fatal(err)
		}
		sub := dial(t, addr)
		if _, err := sub.Subscribe("W"); err != nil {
			t.Fatal(err)
		}
		// Two rows of 600 KiB: each update fits the default cap, an answer
		// holding both does not.
		cl := dial(t, addr)
		wide := strings.Repeat("x", 600<<10)
		for _, k := range []string{"90", "91"} {
			if _, err := cl.Update(client.Add("R", k, wide+k)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cl.Commit("two wide rows"); err != nil {
			t.Fatal(err)
		}
		// The commit's push is over the cap: the subscriber is dropped, as
		// a full queue would drop it, rather than left waiting.
		if push, err := sub.NextDelta(3 * time.Second); err == nil || isTimeout(err) {
			t.Fatalf("subscriber of an oversized push: push %+v, err %v; want the connection closed", push.Kind, err)
		}
		reply := make(chan error, 1)
		go func() {
			_, err := cl.Query("R", "certain", "on", 0)
			reply <- err
		}()
		select {
		case err := <-reply:
			var re *client.RemoteError
			if !errors.As(err, &re) || re.Code != wire.CodeEval || !strings.Contains(re.Msg, "1048576") {
				t.Fatalf("oversized reply: err = %v, want an eval error naming the cap", err)
			}
		case <-time.After(3 * time.Second):
			t.Fatal("no reply to a query whose answer exceeds the frame cap")
		}
		if _, err := cl.Call(wire.Request{Op: wire.OpHello}); err != nil {
			t.Fatalf("HELLO after an oversized reply: %v", err)
		}
	})
}

// TestTypedErrorCodes pins the error classification across the request
// surface: unknown ops and malformed inputs are parse errors, well-formed
// requests failing against the data are eval errors.
func TestTypedErrorCodes(t *testing.T) {
	_, _, addr := startServer(t, Config{})
	cl := dial(t, addr)
	// A request's workers sizes the per-world pool, which allocates per
	// worker: past GOMAXPROCS one request could exhaust the process.
	workersBound := fmt.Sprintf("0..%d", runtime.GOMAXPROCS(0))

	cases := []struct {
		name string
		req  wire.Request
		code string
		msg  string // when set, a substring the error message must hold
	}{
		{"unknown op", wire.Request{Op: "EXPLODE"}, wire.CodeParse, ""},
		{"empty op", wire.Request{}, wire.CodeParse, ""},
		{"malformed query", wire.Request{Op: wire.OpQuery, Query: "project(R"}, wire.CodeParse, ""},
		{"bad mode", wire.Request{Op: wire.OpQuery, Query: "R", Mode: "bogus"}, wire.CodeParse, ""},
		{"bad planner", wire.Request{Op: wire.OpQuery, Query: "R", Planner: "maybe"}, wire.CodeParse, ""},
		{"huge workers", wire.Request{Op: wire.OpQuery, Query: "R", Mode: "certain-cwa", Workers: 1 << 40}, wire.CodeParse, workersBound},
		{"workers above GOMAXPROCS", wire.Request{Op: wire.OpQuery, Query: "R", Mode: "certain-cwa", Workers: runtime.GOMAXPROCS(0) + 1}, wire.CodeParse, workersBound},
		{"negative workers", wire.Request{Op: wire.OpRegister, Name: "v", Query: "R", Workers: -1}, wire.CodeParse, workersBound},
		{"unknown relation", wire.Request{Op: wire.OpQuery, Query: "Nope"}, wire.CodeEval, ""},
		{"update without ops", wire.Request{Op: wire.OpUpdate}, wire.CodeParse, ""},
		{"update bad op kind", wire.Request{Op: wire.OpUpdate, Ops: []wire.UpdateOp{{Op: "upsert", Rel: "R", Row: []string{"1", "2"}}}}, wire.CodeParse, ""},
		{"update unknown relation", wire.Request{Op: wire.OpUpdate, Ops: []wire.UpdateOp{{Op: "add", Rel: "Nope", Row: []string{"1"}}}}, wire.CodeEval, ""},
		{"update arity mismatch", wire.Request{Op: wire.OpUpdate, Ops: []wire.UpdateOp{{Op: "add", Rel: "R", Row: []string{"1"}}}}, wire.CodeEval, ""},
		{"asof unknown commit", wire.Request{Op: wire.OpAsOf, Ref: "nope"}, wire.CodeEval, ""},
		{"register without name", wire.Request{Op: wire.OpRegister, Query: "R"}, wire.CodeParse, ""},
		{"subscribe unknown view", wire.Request{Op: wire.OpSubscribe, Name: "ghost"}, wire.CodeEval, ""},
		{"unsubscribe without name", wire.Request{Op: wire.OpUnsubscribe}, wire.CodeParse, ""},
	}
	for _, c := range cases {
		_, err := cl.Call(c.req)
		var re *client.RemoteError
		if !errors.As(err, &re) {
			t.Errorf("%s: err = %v, want RemoteError", c.name, err)
			continue
		}
		if re.Code != c.code {
			t.Errorf("%s: code = %s, want %s (%s)", c.name, re.Code, c.code, re.Msg)
		}
		if !strings.Contains(re.Msg, c.msg) {
			t.Errorf("%s: message %q does not hold %q", c.name, re.Msg, c.msg)
		}
	}

	// After all those failures the session still works.
	if _, err := cl.Call(wire.Request{Op: wire.OpHello}); err != nil {
		t.Fatalf("HELLO after error replies: %v", err)
	}
	if _, err := cl.Query("R", "certain", "on", 0); err != nil {
		t.Fatalf("session unusable after error replies: %v", err)
	}
}
