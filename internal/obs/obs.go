// Package obs is the zero-dependency observability layer of the
// system: structured spans and counters for the evaluation engine and
// the optimizer pipeline, with exporters for a human-readable profile
// report, a JSONL event log, and the Chrome trace-event format
// (loadable in Perfetto / chrome://tracing).
//
// The design goal is that *disabled* tracing costs one predictable
// branch: every method of Tracer and Span is safe on a nil
// receiver and returns immediately, so instrumented code holds a
// possibly-nil *Tracer and calls it unconditionally. No time is read
// and nothing is allocated on the nil path, which is what lets the
// evaluation engine keep its "no run-time overhead when disabled"
// budget (DESIGN.md §8).
//
// Concurrency: Tracer.Emit is safe for concurrent use (one mutex
// around the event buffer).
package obs

import (
	"sort"
	"sync"
	"time"
)

// Event is one finished span or instant. Timestamps are offsets from
// the owning Tracer's start, so traces from one process line up on a
// single clock.
type Event struct {
	Name string
	Cat  string
	TS   time.Duration // start offset since the trace began
	Dur  time.Duration // zero for instant events
	TID  int64         // logical lane (0 = main)
	Args map[string]int64
}

// maxEvents bounds the in-memory event buffer. Long benchmark suites
// with per-firing spans can emit a lot; beyond the cap events are
// counted but dropped, and the profile report says so.
const maxEvents = 1 << 20

// Tracer collects events. The zero value is not usable — construct
// with New — but a nil *Tracer is: every method no-ops, so callers
// never branch on enablement themselves.
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	events  []Event
	dropped int64
}

// New returns a tracer whose clock starts now.
func New() *Tracer { return &Tracer{start: time.Now()} }

// Enabled reports whether the tracer records anything. It is the one
// branch instrumented code pays when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

// Since returns the current offset on the tracer's clock (zero when
// disabled).
func (t *Tracer) Since() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Emit appends a finished event. Safe for concurrent use.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.events) < maxEvents {
		t.events = append(t.events, e)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Complete emits a span that was measured with a raw time.Now pair —
// the pattern hot loops use so the untraced path never reads the
// clock.
func (t *Tracer) Complete(cat, name string, start time.Time, dur time.Duration, args map[string]int64) {
	if t == nil {
		return
	}
	t.Emit(Event{Name: name, Cat: cat, TS: start.Sub(t.start), Dur: dur, Args: args})
}

// Events returns a copy of the recorded events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Dropped returns how many events were discarded after the buffer
// filled.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Span is an open interval being measured. Obtain one from
// Tracer.Start; a nil *Span (from a nil tracer) is inert.
type Span struct {
	t    *Tracer
	name string
	cat  string
	beg  time.Duration
	args map[string]int64
}

// Start opens a span on the tracer's main lane.
func (t *Tracer) Start(cat, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, cat: cat, name: name, beg: t.Since()}
}

// Arg attaches a numeric argument; it returns the span for chaining.
func (s *Span) Arg(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]int64, 4)
	}
	s.args[key] = v
	return s
}

// End closes the span and emits it.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.t.Emit(Event{Name: s.name, Cat: s.cat, TS: s.beg, Dur: s.t.Since() - s.beg, Args: s.args})
}

// ProfileEntry aggregates every event sharing a (Cat, Name) key: how
// often it ran, how long it took in total, and the sums of its numeric
// arguments.
type ProfileEntry struct {
	Cat   string
	Name  string
	Count int64
	Total time.Duration
	Args  map[string]int64
}

// Aggregate folds events into profile entries, sorted by total
// duration descending (ties: category, then name).
func Aggregate(events []Event) []ProfileEntry {
	byKey := make(map[[2]string]*ProfileEntry)
	var order [][2]string
	for _, e := range events {
		k := [2]string{e.Cat, e.Name}
		p := byKey[k]
		if p == nil {
			p = &ProfileEntry{Cat: e.Cat, Name: e.Name}
			byKey[k] = p
			order = append(order, k)
		}
		p.Count++
		p.Total += e.Dur
		for ak, av := range e.Args {
			if p.Args == nil {
				p.Args = make(map[string]int64)
			}
			p.Args[ak] += av
		}
	}
	out := make([]ProfileEntry, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		if out[i].Cat != out[j].Cat {
			return out[i].Cat < out[j].Cat
		}
		return out[i].Name < out[j].Name
	})
	return out
}
