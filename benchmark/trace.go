package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one recorded call into a layer. Spans of one request share
// an op id; parent is the span that caused this one (0 = none). Times
// are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Shadow marks a measurement taken beside the request path (a layer
	// called on its own, on private data) rather than on it. Shadow
	// spans have no parent and never count toward a request's time.
	Shadow bool `json:"shadow,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. It serves one goroutine: the layer replay is sequential, like
// the closed-loop client it stands in for.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int // ids of the open spans, innermost last
	op    int   // op id stamped on new spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("tracer: spans closed out of order") // a bug in the replay, never input
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].End = now
}

// do records fn as one span.
func (t *tracer) do(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// child records an already-measured interval of length d that ended
// when the innermost open span's callee returned — used where a layer
// reports a sub-step's duration itself (the WAL's fsync time).
func (t *tracer) child(name string, d time.Duration) {
	now := int64(time.Since(t.t0))
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: now - int64(d), End: now})
}

// shadow records fn as a parentless span outside the request path.
func (t *tracer) shadow(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	end := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Op: t.op, Name: name, Start: end - int64(d), End: end, Shadow: true})
	return d
}

// selfTimes returns, per span name, every span's self time: its
// duration minus the part of that interval its child spans cover.
// Children of one parent never overlap here (one goroutine), so the
// covered part is the sum of their durations.
func selfTimes(spans []span) map[string][]time.Duration {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered[s.ID]))
	}
	return out
}

// layerSummary is one line of the self-time summary.
type layerSummary struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	SelfMS float64 `json:"self_ms"` // total self time
	P50US  float64 `json:"self_p50_us"`
	Share  float64 `json:"share"` // of all non-shadow self time
	Shadow bool    `json:"shadow,omitempty"`
}

// summarize folds the spans into one line per name, largest total self
// time first.
func summarize(spans []span) []layerSummary {
	shadow := map[string]bool{}
	for _, s := range spans {
		if s.Shadow {
			shadow[s.Name] = true
		}
	}
	var total float64
	var out []layerSummary
	for name, ds := range selfTimes(spans) {
		us := make([]float64, len(ds))
		var sum float64
		for i, d := range ds {
			us[i] = float64(d) / float64(time.Microsecond)
			sum += ms(d)
		}
		if !shadow[name] {
			total += sum
		}
		out = append(out, layerSummary{Name: name, Calls: len(ds), SelfMS: sum, P50US: percentile(us, 50), Shadow: shadow[name]})
	}
	for i := range out {
		if !out[i].Shadow && total > 0 {
			out[i].Share = out[i].SelfMS / total
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeTrace writes the spans as JSON lines, followed by one
// {"summary": [...]} line with the self-time summary.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(struct {
		Summary []layerSummary `json:"summary"`
	}{summarize(spans)}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
