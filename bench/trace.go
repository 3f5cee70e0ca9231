package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call from the benchmark into a layer's public function.
// Spans of one op share Op; Parent is the id of the enclosing span (0 for
// an op's root).  OnPath marks the spans whose sum should reproduce the
// untraced latency of the op; the others are whole-call references and
// probe measurements that ride along.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`  // op index in the workload's sequence; -1 for stretches of other workloads and probes
	Src    string  `json:"src"` // the workload whose ops or data the call was made for
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	OnPath bool    `json:"on_path,omitempty"`
	N      float64 `json:"n,omitempty"` // work done inside the span: rows, bytes or worlds
}

// tracer keeps spans in memory; they are written out once, at exit.
type tracer struct {
	t0    time.Time
	src   string // stamped on every span begun; the stage at work sets it
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int, onPath bool) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Src: t.src, Name: name, OnPath: onPath,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

// end closes the span and attaches its work count.
func (t *tracer) end(id int, n float64) {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.N = n
}

// pick returns the spans a metric over name is computed from: those of the
// first workload to have made at least minSpans of them, the traced
// workload itself coming first and the stretches of the others after it in
// the order they ran; every span of that name if none made that many.
func (t *tracer) pick(name string) []*span {
	var order []string
	by := map[string][]*span{}
	var all []*span
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			if by[s.Src] == nil {
				order = append(order, s.Src)
			}
			by[s.Src] = append(by[s.Src], s)
			all = append(all, s)
		}
	}
	for _, src := range order {
		if len(by[src]) >= minSpans {
			return by[src]
		}
	}
	return all
}

// durs returns the durations, in nanoseconds, of the picked spans.
func (t *tracer) durs(name string) []float64 {
	var out []float64
	for _, s := range t.pick(name) {
		out = append(out, float64(s.End-s.Start))
	}
	return out
}

// work returns the summed N of the picked spans.
func (t *tracer) work(name string) float64 {
	n := 0.0
	for _, s := range t.pick(name) {
		n += s.N
	}
	return n
}

// onPathNS sums the on-path spans of the replayed ops (all other spans
// carry op -1): the staged time the untraced time of the same ops is held
// against.
func (t *tracer) onPathNS() float64 {
	total := 0.0
	for i := range t.spans {
		if s := &t.spans[i]; s.OnPath && s.Op >= 0 {
			total += float64(s.End - s.Start)
		}
	}
	return total
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
