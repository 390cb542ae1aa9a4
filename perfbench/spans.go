package main

import (
	"bufio"
	"encoding/json"
	"io"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	name   string // the public call, e.g. "serve.Run"
	op     string // the operation it belongs to (figure id, leg, export)
	parent int    // index of the enclosing span, -1 for a root
	start  time.Duration
	end    time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer keeps the spans of a traced run in memory. A nil *tracer is
// the untraced run: every method is a no-op, so the timed passes of an
// untraced run execute the same benchmark code with nothing recorded.
// Spans are opened and closed by the benchmark's single driving
// goroutine, so the open stack needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name, op string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.t0)})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its index (-1 when
// untraced).
func (t *tracer) end() int {
	if t == nil {
		return -1
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = time.Since(t.t0)
	return i
}

// children returns the direct children of span i in start order (spans
// are appended as they open).
func (t *tracer) children(i int) []int {
	var out []int
	for j := range t.spans {
		if t.spans[j].parent == i {
			out = append(out, j)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals.
func (t *tracer) covered(i int) time.Duration {
	var total, reach time.Duration
	for _, k := range t.children(i) {
		s, e := t.spans[k].start, t.spans[k].end
		if s < reach {
			s = reach
		}
		if e > s {
			total += e - s
			reach = e
		}
	}
	return total
}

// self is span i's duration minus the part its children cover.
func (t *tracer) self(i int) time.Duration { return t.spans[i].dur() - t.covered(i) }

// selfByName sums self time per span name, the per-layer view.
func (t *tracer) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i := range t.spans {
		out[t.spans[i].name] += t.self(i)
	}
	return out
}

// sumByName sums the durations of spans with the given name and op
// (op "" matches any op).
func (t *tracer) sumByName(name, op string) time.Duration {
	var d time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; s.name == name && (op == "" || s.op == op) {
			d += s.dur()
		}
	}
	return d
}

// chromeSpan is one complete ("X") event of the Chrome trace-event
// format, which Perfetto loads.
type chromeSpan struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome exports the spans as Chrome trace-event JSON, timestamps
// in microseconds since the tracer started.
func (t *tracer) writeChrome(w io.Writer) error {
	evs := make([]chromeSpan, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		evs[i] = chromeSpan{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: us(s.start), Dur: us(s.dur()), Pid: 1, Tid: 1,
			Args: map[string]any{"op": s.op, "id": i, "parent": s.parent, "self_us": us(t.self(i))},
		}
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(map[string]any{"traceEvents": evs}); err != nil {
		return err
	}
	return bw.Flush()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerOf maps a span name to its layer: the package prefix before the
// first dot ("serve.Run" → "serve").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
