package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestFrameRoundTrip pins the framing format: WriteFrame then ReadFrame
// returns the exact JSON payload, and ReadResponse decodes it.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Response{ID: 7, Kind: KindResult, Columns: []string{"a"}, Rows: [][]string{{"1"}, {"⊥1"}}}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Kind != in.Kind || len(out.Rows) != 2 || out.Rows[1][0] != "⊥1" {
		t.Fatalf("round trip mangled the response: %+v", out)
	}
}

// TestReadFrameTruncated pins that frames cut short — in the header or
// the payload — fail with io.ErrUnexpectedEOF rather than hanging or
// succeeding, and a clean EOF before any byte is io.EOF.
func TestReadFrameTruncated(t *testing.T) {
	if _, err := ReadFrame(strings.NewReader("")); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
	if _, err := ReadFrame(strings.NewReader("\x00\x00")); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short header: err = %v, want unexpected EOF", err)
	}
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("only ten b")
	if _, err := ReadFrame(&buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("short payload: err = %v, want unexpected EOF", err)
	}
}

// TestReadFrameOversized pins the hard cap: a length prefix above
// MaxFrame is rejected as ErrFrameTooLarge without the payload being
// read, so a hostile prefix can neither allocate gigabytes nor block
// waiting for bytes that never come.
func TestReadFrameOversized(t *testing.T) {
	for _, n := range []uint32{MaxFrame + 1, 1 << 30, 0xFFFFFFFF} {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], n)
		r := bytes.NewReader(hdr[:])
		if _, err := ReadFrame(r); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("prefix %d: err = %v, want ErrFrameTooLarge", n, err)
		}
		if r.Len() != 0 {
			t.Errorf("prefix %d: header not fully consumed", n)
		}
	}
	// At exactly the cap the frame is legal.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame)
	buf.Write(hdr[:])
	buf.Write(bytes.Repeat([]byte{'x'}, MaxFrame))
	payload, err := ReadFrame(&buf)
	if err != nil || len(payload) != MaxFrame {
		t.Errorf("frame at cap: len=%d err=%v", len(payload), err)
	}
}

// TestWriteFrameOversized pins that the writer applies the same cap.
func TestWriteFrameOversized(t *testing.T) {
	big := Response{Error: strings.Repeat("x", MaxFrame)}
	if err := WriteFrame(io.Discard, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameTooLargeErrorTyped pins the typed form of the cap violation:
// errors.As extracts the configured limit from both the reader and writer
// side, and every instance matches the ErrFrameTooLarge sentinel under
// errors.Is regardless of its limit.
func TestFrameTooLargeErrorTyped(t *testing.T) {
	err := WriteFrameLimit(io.Discard, Response{Error: strings.Repeat("x", 100)}, 16)
	var fe *FrameTooLargeError
	if !errors.As(err, &fe) || fe.Limit != 16 {
		t.Fatalf("write err = %v, want *FrameTooLargeError{Limit: 16}", err)
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("a limit-16 violation must match the ErrFrameTooLarge sentinel")
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 17)
	_, err = ReadFrameLimit(bytes.NewReader(hdr[:]), 16)
	if !errors.As(err, &fe) || fe.Limit != 16 {
		t.Fatalf("read err = %v, want *FrameTooLargeError{Limit: 16}", err)
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("the reader-side violation must match the sentinel too")
	}
}

// TestFrameLimitVariants pins the configurable cap: a raised cap admits a
// frame the default rejects, and limit <= 0 means the default MaxFrame.
func TestFrameLimitVariants(t *testing.T) {
	big := Response{ID: 3, Kind: KindError, Error: strings.Repeat("x", MaxFrame)}
	var buf bytes.Buffer
	if err := WriteFrameLimit(&buf, big, 4*MaxFrame); err != nil {
		t.Fatalf("write under a raised cap: %v", err)
	}
	if _, err := ReadFrameLimit(bytes.NewReader(buf.Bytes()), 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("default-cap read of the oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
	resp, err := ReadResponseLimit(bytes.NewReader(buf.Bytes()), 4*MaxFrame)
	if err != nil || resp.ID != 3 || len(resp.Error) != MaxFrame {
		t.Fatalf("raised-cap read: err=%v id=%d len=%d", err, resp.ID, len(resp.Error))
	}
}

// checkDecode requires ReadResponse of a frame holding payload to agree
// with json.Unmarshal: an error exactly when it errors, and otherwise the
// same Response, nil and empty slices told apart.  A frame the codec
// decodes itself gets slices of exactly their length.
func checkDecode(t *testing.T, payload []byte) {
	t.Helper()
	if len(payload) > MaxFrame {
		return
	}
	var want Response
	werr := json.Unmarshal(payload, &want)
	var frame bytes.Buffer
	binary.Write(&frame, binary.BigEndian, uint32(len(payload)))
	frame.Write(payload)
	got, gerr := ReadResponse(&frame)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("payload %q: ReadResponse err %v, json.Unmarshal err %v", payload, gerr, werr)
	}
	if werr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("payload %q: ReadResponse %#v, json.Unmarshal %#v", payload, got, want)
	}
	if r, ok := decodeResponse(bytes.Clone(payload)); ok {
		for _, rows := range [][][]string{{r.Columns}, r.Rows, r.Inserted, r.Deleted} {
			if cap(rows) != len(rows) {
				t.Fatalf("payload %q: %d rows decoded with capacity %d", payload, len(rows), cap(rows))
			}
			for _, row := range rows {
				if cap(row) != len(row) {
					t.Fatalf("payload %q: %d cells decoded with capacity %d", payload, len(row), cap(row))
				}
			}
		}
	}
}

// checkFrame requires the payload WriteFrame writes for r to be the bytes
// json.Marshal writes, the codec to decode it when no string in it needed
// an escape and it carries no Stats, and the decoder to agree with
// json.Unmarshal on it and on copies with whitespace, an escaped key, and
// the keys in another order.
func checkFrame(t *testing.T, r Response) {
	t.Helper()
	want, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrameLimit(&buf, r, 4*MaxFrame); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[4:]; !bytes.Equal(got, want) {
		t.Fatalf("WriteFrame wrote\n%q\njson.Marshal writes\n%q", got, want)
	}
	if _, ok := decodeResponse(bytes.Clone(want)); !ok && r.Stats == nil && !bytes.Contains(want, []byte(`\`)) {
		t.Fatalf("the codec refused its own frame %q", want)
	}
	checkDecode(t, want)
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, want, " ", "\t"); err != nil {
		t.Fatal(err)
	}
	checkDecode(t, spaced.Bytes())
	checkDecode(t, bytes.Replace(want, []byte(`"kind":`), []byte(`"\u006bind":`), 1))
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(want, &fields); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(fields) // keys sorted by name, not in field order
	if err != nil {
		t.Fatal(err)
	}
	checkDecode(t, reordered)
}

// TestResponseFrameEdges runs the codec checks over responses built from
// the strings encoding/json escapes — HTML characters, control bytes,
// invalid UTF-8, U+2028 and U+2029 — next to plain ones, with a nil row
// next to an empty one, and with a Stats payload.
func TestResponseFrameEdges(t *testing.T) {
	odd := []string{"<b>&amp;</b>", "a<b", "c>d", "e&f", "\x00\x01\x1f\x7f", "\xff\xfe", "a\u2028b\u2029", `"q" \s`, "\t\n\r\b\f", "\xed\xa0\x80"}
	for _, s := range odd {
		checkFrame(t, Response{ID: 1, Kind: KindResult, Columns: []string{s, "a"}, Rows: [][]string{{"⊥1", s}, nil, {}, {""}}})
		checkFrame(t, Response{Kind: KindError, Code: CodeEval, Error: s})
	}
	checkFrame(t, Response{})
	checkFrame(t, Response{ID: math.MaxUint64, Kind: KindDelta, View: "V", Commit: "c", Columns: []string{}, Rows: [][]string{},
		Inserted: [][]string{nil}, Deleted: [][]string{{}, nil, {"x"}}, Applied: -3})
	checkFrame(t, Response{Kind: KindStats, Applied: 1, Stats: &Stats{Sessions: 2, Head: "<h>",
		Views: map[string]ViewCounters{"v": {Updates: 3}}, Relations: map[string]RelationCounters{"R&S": {IndexLookups: 4}}}})
}

// TestResponseCodecCoversEveryField keeps the codec and the Response struct
// from drifting apart: through reflection it sets each field alone, then
// all of them, to a non-zero value and runs the codec checks, so a field
// appendResponse does not write, or the decoder does not read, fails here
// rather than vanishing on the wire.  A field of a new type fails until
// codec.go and this test learn it.
func TestResponseCodecCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Response{})
	set := func(v reflect.Value, f reflect.StructField) {
		switch x := v.Addr().Interface().(type) {
		case *string:
			*x = "s-" + f.Name
		case *uint64:
			*x = 7
		case *int:
			*x = -7
		case *[]string:
			*x = []string{"c-" + f.Name}
		case *[][]string:
			*x = [][]string{{"r-" + f.Name, "⊥1"}, nil, {}}
		case **Stats:
			*x = &Stats{Sessions: 1, Head: "h"}
		default:
			t.Fatalf("Response.%s has type %s, which codec.go does not encode: extend appendResponse, responseKeys and the decoder", f.Name, f.Type)
		}
	}
	var all Response
	for i := 0; i < typ.NumField(); i++ {
		var one Response
		set(reflect.ValueOf(&one).Elem().Field(i), typ.Field(i))
		set(reflect.ValueOf(&all).Elem().Field(i), typ.Field(i))
		checkFrame(t, one)
	}
	checkFrame(t, all)
}

// responseFrom builds a random Response from the fuzzer's bytes: strings
// are slices of data or strings encoding/json escapes, rows mix nil, empty
// and filled ones, and a quarter carry Stats.
func responseFrom(data []byte, seed int64) Response {
	rng := rand.New(rand.NewSource(seed))
	special := []string{"", "<&>", "\x00\x1f", "\xff", "\u2028", "⊥12", `"\`, "é", "plain"}
	str := func() string {
		if len(data) > 0 && rng.Intn(2) == 0 {
			a := rng.Intn(len(data))
			return string(data[a : a+rng.Intn(len(data)-a+1)])
		}
		return special[rng.Intn(len(special))]
	}
	maybe := func() string {
		if rng.Intn(2) == 0 {
			return ""
		}
		return str()
	}
	cells := func() []string {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []string{}
		}
		row := make([]string, 1+rng.Intn(3))
		for i := range row {
			row[i] = str()
		}
		return row
	}
	rows := func() [][]string {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return [][]string{}
		}
		out := make([][]string, 1+rng.Intn(4))
		for i := range out {
			out[i] = cells()
		}
		return out
	}
	r := Response{Kind: str(), Code: maybe(), Error: maybe(), Server: maybe(), Commit: maybe(), Columns: cells(),
		Rows: rows(), View: maybe(), Inserted: rows(), Deleted: rows()}
	if rng.Intn(2) == 0 {
		r.ID = rng.Uint64() >> rng.Intn(64)
	}
	if rng.Intn(2) == 0 {
		r.Applied = int(rng.Int63()>>rng.Intn(63)) - 1<<20
	}
	if rng.Intn(4) == 0 {
		r.Stats = &Stats{Sessions: rng.Intn(5), Head: str(), Views: map[string]ViewCounters{str(): {Updates: 1}}}
	}
	return r
}

// FuzzResponseFrame pins the Response codec to encoding/json: on random
// responses, WriteFrame writes json.Marshal's bytes and ReadResponse reads
// what json.Unmarshal reads, perturbed copies included; on arbitrary bytes
// ReadResponse never panics and errors exactly when json.Unmarshal does.
func FuzzResponseFrame(f *testing.F) {
	f.Add([]byte(`{"id":7,"kind":"result","columns":["a"],"rows":[["1"],null,[]]}`), int64(1))
	f.Add([]byte(`{"kind":"delta","view":"V","inserted":[["⊥1","x"]],"deleted":[[]],"applied":-2}`), int64(2))
	f.Add([]byte(`{"kind":"stats","stats":{"sessions":1,"served":2}}`), int64(3))
	f.Add([]byte(`{"id":01,"kind":"x"}`), int64(4))
	f.Add([]byte("{\"kind\":\"\xff<\u2028\"}"), int64(5))
	f.Add([]byte(`{"kind":"a","kind":"b","Rows":[["c"]]} `), int64(6))
	f.Add([]byte{}, int64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		checkDecode(t, data)
		checkFrame(t, responseFrom(data, seed))
	})
}

// FuzzReadFrame throws arbitrary byte streams at the frame decoder.  The
// decoder must never panic, never allocate beyond the cap, and on success
// must have consumed exactly header+payload so framing stays in sync.
func FuzzReadFrame(f *testing.F) {
	var ok bytes.Buffer
	WriteFrame(&ok, Request{Op: OpQuery, Query: "project(R; a)"})
	f.Add(ok.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	f.Add([]byte{0, 0, 0, 5, 'h', 'i'})
	f.Add(append([]byte{0, 0, 0, 2}, []byte("{}extra")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := ReadFrame(r)
		if err != nil {
			return
		}
		if len(payload) > MaxFrame {
			t.Fatalf("payload of %d bytes exceeds the cap", len(payload))
		}
		if want := len(data) - 4 - len(payload); r.Len() != want {
			t.Fatalf("consumed %d trailing bytes too many", want-r.Len())
		}
	})
}
