package wire

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// The Response codec.  appendResponse writes exactly the bytes json.Marshal
// writes for a Response, without reflection; decodeResponse reads back the
// canonical form it writes — no whitespace, keys in field order, no string
// escapes — into slices of exactly the right size whose cells all point
// into the frame.  A frame in any other form (another writer's JSON, a
// string needing escapes, a Stats payload) is json.Unmarshal's to decode,
// and FuzzResponseFrame pins both directions against encoding/json.

// appendResponse appends the JSON encoding of r to dst.
func appendResponse(dst []byte, r *Response) ([]byte, error) {
	dst = append(dst, '{')
	if r.ID != 0 {
		dst = append(dst, `"id":`...)
		dst = strconv.AppendUint(dst, r.ID, 10)
		dst = append(dst, ',')
	}
	dst = append(dst, `"kind":`...)
	dst = appendString(dst, r.Kind)
	dst = appendField(dst, "code", r.Code)
	dst = appendField(dst, "error", r.Error)
	dst = appendField(dst, "server", r.Server)
	dst = appendField(dst, "commit", r.Commit)
	if len(r.Columns) > 0 {
		dst = append(dst, `,"columns":`...)
		dst = appendStrings(dst, r.Columns)
	}
	dst = appendRows(dst, "rows", r.Rows)
	dst = appendField(dst, "view", r.View)
	dst = appendRows(dst, "inserted", r.Inserted)
	dst = appendRows(dst, "deleted", r.Deleted)
	if r.Applied != 0 {
		dst = append(dst, `,"applied":`...)
		dst = strconv.AppendInt(dst, int64(r.Applied), 10)
	}
	if r.Stats != nil {
		stats, err := json.Marshal(r.Stats)
		if err != nil {
			return nil, err
		}
		dst = append(dst, `,"stats":`...)
		dst = append(dst, stats...)
	}
	return append(dst, '}'), nil
}

// appendField appends ,"key":s unless s is empty (omitempty).
func appendField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, '"', ':')
	return appendString(dst, s)
}

// appendRows appends ,"key":[…] unless rows is empty (omitempty); a nil
// row encodes as null, as encoding/json writes it.
func appendRows(dst []byte, key string, rows [][]string) []byte {
	if len(rows) == 0 {
		return dst
	}
	dst = append(dst, ',', '"')
	dst = append(dst, key...)
	dst = append(dst, '"', ':', '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
		} else {
			dst = appendStrings(dst, row)
		}
	}
	return append(dst, ']')
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendString appends s as a JSON string.  One that encoding/json would
// escape goes through json.Marshal, so the bytes are its bytes.
func appendString(dst []byte, s string) []byte {
	if !plain(s) {
		q, _ := json.Marshal(s) // a string always marshals
		return append(dst, q...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plain reports whether s is valid UTF-8 that encoding/json writes
// verbatim: no control bytes, no '"' or '\\', none of the HTML-escaped
// '<', '>', '&', and neither U+2028 nor U+2029.  The decoder's strings obey
// the same rule minus the HTML and line-separator characters, which a
// reader takes literally.
func plain(s string) bool {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

// responseKeys are the Response fields the canonical form may carry, in
// the order appendResponse writes them; stats is json.Unmarshal's.
var responseKeys = [...]string{"id", "kind", "code", "error", "server", "commit", "columns", "rows", "view", "inserted", "deleted", "applied"}

// decoder parses one canonical frame.  It runs twice: the first pass
// checks the form and counts the rows and cells, the second fills one
// array of each, allocated at those counts.
type decoder struct {
	s     string
	i     int
	fill  bool
	cells []string
	rows  [][]string
	nc    int // cells parsed
	nr    int // rows parsed
}

// decodeResponse decodes the canonical form of a Response; false means
// payload is in another form, which only json.Unmarshal may judge.  The
// decoded strings alias payload, which must not change afterwards.
func decodeResponse(payload []byte) (Response, bool) {
	if len(payload) == 0 {
		return Response{}, false
	}
	d := decoder{s: unsafe.String(&payload[0], len(payload))}
	var r Response
	if !d.response(&r) {
		return Response{}, false
	}
	d = decoder{s: d.s, fill: true, cells: make([]string, d.nc), rows: make([][]string, d.nr)}
	d.response(&r)
	return r, true
}

func (d *decoder) response(r *Response) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return d.i == len(d.s)
	}
	next := 0 // the first field the next key may name: keys come in order, once
	for {
		key, ok := d.str()
		if !ok || !d.eat(':') {
			return false
		}
		f := next
		for f < len(responseKeys) && responseKeys[f] != key {
			f++
		}
		if f == len(responseKeys) {
			return false
		}
		next = f + 1
		switch responseKeys[f] {
		case "id":
			r.ID, ok = d.uint()
		case "kind":
			r.Kind, ok = d.str()
		case "code":
			r.Code, ok = d.str()
		case "error":
			r.Error, ok = d.str()
		case "server":
			r.Server, ok = d.str()
		case "commit":
			r.Commit, ok = d.str()
		case "columns":
			r.Columns, ok = d.strings()
		case "rows":
			r.Rows, ok = d.table()
		case "view":
			r.View, ok = d.str()
		case "inserted":
			r.Inserted, ok = d.table()
		case "deleted":
			r.Deleted, ok = d.table()
		case "applied":
			var n int64
			n, ok = d.int()
			r.Applied = int(n)
		}
		if !ok {
			return false
		}
		if d.eat('}') {
			return d.i == len(d.s)
		}
		if !d.eat(',') {
			return false
		}
	}
}

func (d *decoder) eat(c byte) bool {
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str parses a string without escapes, control bytes or invalid UTF-8.
func (d *decoder) str() (string, bool) {
	if !d.eat('"') {
		return "", false
	}
	start := d.i
	for d.i < len(d.s) {
		c := d.s[d.i]
		switch {
		case c == '"':
			d.i++
			return d.s[start : d.i-1], true
		case c == '\\' || c < 0x20:
			return "", false
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[d.i:])
			if r == utf8.RuneError && size == 1 {
				return "", false
			}
			d.i += size
		}
	}
	return "", false
}

// strings parses an array of strings into the next cells.
func (d *decoder) strings() ([]string, bool) {
	if !d.eat('[') {
		return nil, false
	}
	start := d.nc
	if !d.eat(']') {
		for {
			s, ok := d.str()
			if !ok {
				return nil, false
			}
			if d.fill {
				d.cells[d.nc] = s
			}
			d.nc++
			if d.eat(']') {
				break
			}
			if !d.eat(',') {
				return nil, false
			}
		}
	}
	if !d.fill {
		return nil, true
	}
	return d.cells[start:d.nc:d.nc], true
}

// table parses an array of rows, each an array of strings or null, into
// the next rows.
func (d *decoder) table() ([][]string, bool) {
	if !d.eat('[') {
		return nil, false
	}
	start := d.nr
	if !d.eat(']') {
		for {
			var row []string
			if d.lit("null") {
				// a nil row
			} else if r, ok := d.strings(); ok {
				row = r
			} else {
				return nil, false
			}
			if d.fill {
				d.rows[d.nr] = row
			}
			d.nr++
			if d.eat(']') {
				break
			}
			if !d.eat(',') {
				return nil, false
			}
		}
	}
	if !d.fill {
		return nil, true
	}
	return d.rows[start:d.nr:d.nr], true
}

func (d *decoder) lit(s string) bool {
	if len(d.s)-d.i >= len(s) && d.s[d.i:d.i+len(s)] == s {
		d.i += len(s)
		return true
	}
	return false
}

// digits consumes a JSON integer — an optional minus sign and no leading
// zero — and returns its text.
func (d *decoder) digits(signed bool) (string, bool) {
	start := d.i
	if signed {
		d.eat('-')
	}
	first := d.i
	for d.i < len(d.s) && d.s[d.i] >= '0' && d.s[d.i] <= '9' {
		d.i++
	}
	if d.i == first || d.s[first] == '0' && d.i-first > 1 {
		return "", false
	}
	return d.s[start:d.i], true
}

func (d *decoder) uint() (uint64, bool) {
	s, ok := d.digits(false)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(s, 10, 64)
	return n, err == nil
}

func (d *decoder) int() (int64, bool) {
	s, ok := d.digits(true)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, strconv.IntSize)
	return n, err == nil
}
