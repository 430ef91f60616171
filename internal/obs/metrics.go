package obs

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the service metric registry: named counters, gauges,
// log-scale histograms, and labeled counter families. Every kind is
// nil-safe like Tracer — a nil *Metrics hands out nil handles whose
// methods are no-ops and allocate nothing — so instrumented code never
// branches on whether metrics are wired up. The long-running service
// registers its pipeline instruments here; GET /metrics renders the
// whole registry in Prometheus text exposition format (prometheus.go)
// and GET /v1/stats as JSON (SnapshotAll).
//
// Naming convention: dotted lowercase paths ("serve.query_ns",
// "durable.fsync_ns"); the Prometheus writer maps dots to underscores.
// Duration-valued histograms carry a _ns suffix and record integer
// nanoseconds.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	vecs     map[string]*CounterVec
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		vecs:     make(map[string]*CounterVec),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Safe for concurrent use; returns nil on a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Safe for concurrent use; returns nil on a nil registry.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// on first use. Safe for concurrent use; returns nil on a nil
// registry.
func (m *Metrics) Histogram(name string) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hists[name]
	if h == nil {
		h = newHistogram()
		m.hists[name] = h
	}
	return h
}

// CounterVec returns the labeled counter family registered under name,
// creating it on first use with the given label keys. Safe for
// concurrent use; returns nil on a nil registry. A name registered
// twice keeps its first label set.
func (m *Metrics) CounterVec(name string, labels ...string) *CounterVec {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.vecs[name]
	if v == nil {
		v = &CounterVec{labels: append([]string(nil), labels...), m: make(map[string]*Counter)}
		m.vecs[name] = v
	}
	return v
}

// Snapshot returns the current value of every registered plain counter
// (the PR-4 era flat view; SnapshotAll covers every metric kind).
// Returns nil on a nil registry.
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counters))
	for name, c := range m.counters {
		out[name] = c.Load()
	}
	return out
}

// Counter is a monotonic (or high-watermark, via Max) atomic counter.
// All methods are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Max raises the counter to v if v exceeds the current value, turning
// the counter into a high-watermark gauge (e.g. largest batch seen).
func (c *Counter) Max(v int64) {
	if c == nil {
		return
	}
	for {
		cur := c.v.Load()
		if v <= cur || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 on a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can move both ways: queue
// depths, in-flight request counts, live session counts. All methods
// are no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by d (negative d moves it down).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Inc moves the gauge up by one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec moves the gauge down by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Load returns the current value (0 on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBins is the fixed bucket count of every Histogram. Bin 0 counts
// the value 0; bin i >= 1 counts values v with bits.Len64(v) == i,
// i.e. v in [2^(i-1), 2^i - 1]. 47 doubling bins reach 2^46 ns
// (~19.5 hours) before the overflow bin, which is plenty for both
// latencies and sizes.
const histBins = 48

// Histogram is a fixed log2-bucket histogram: recording is lock-free
// (one atomic add per bin plus count/sum/min/max updates, no
// allocation ever), so it can sit on the query and commit hot paths.
// All methods are no-ops on a nil receiver. Negative observations are
// clamped to zero.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	min   atomic.Int64 // MaxInt64 until the first observation
	max   atomic.Int64
	bins  [histBins]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBins {
		i = histBins - 1
	}
	h.bins[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// ObserveSince records the nanoseconds elapsed since start. No clock
// is read on a nil histogram.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// Count returns how many values were observed (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// snapshot reads a consistent-enough view (each field is individually
// atomic; cross-field skew is bounded by in-flight observations).
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if min := h.min.Load(); min != math.MaxInt64 {
		s.Min = min
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := range h.bins {
		n := h.bins[i].Load()
		if n == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, HistogramBucket{Le: bucketUpperBound(i), Count: n})
	}
	return s
}

// bucketUpperBound is the inclusive upper bound of bin i; -1 marks the
// overflow (+Inf) bin.
func bucketUpperBound(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= histBins-1 {
		return -1
	}
	return int64(1)<<uint(i) - 1
}

// HistogramBucket is one non-empty histogram bin: Count observations
// at most Le (Le == -1 means the unbounded overflow bin). Counts are
// per-bin, not cumulative; the Prometheus writer accumulates.
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the JSON-facing summary of a histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	Mean    float64           `json:"mean"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// vecSep joins label values into a map key. 0xff cannot appear in
// UTF-8 text, so joined keys cannot collide across value boundaries.
const vecSep = "\xff"

// CounterVec is a family of counters keyed by a small tuple of label
// values (session name, route, ...). With returns the
// counter for one label tuple, creating it on first use; hot paths
// should look their handle up once and hold it. All methods are
// no-ops on a nil receiver, and the nil path allocates nothing.
type CounterVec struct {
	labels []string
	mu     sync.RWMutex
	m      map[string]*Counter
}

// With returns the counter for the given label values. Returns nil on
// a nil family or when the value count does not match the label keys
// (a nil counter counts nothing, keeping misuse observable in tests
// without panicking a live server).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || len(values) != len(v.labels) {
		return nil
	}
	key := strings.Join(values, vecSep)
	v.mu.RLock()
	c := v.m[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[key]; c == nil {
		c = &Counter{}
		v.m[key] = c
	}
	return c
}

// FamilyValue is one labeled counter of a family.
type FamilyValue struct {
	Labels []string `json:"labels"`
	Value  int64    `json:"value"`
}

// FamilySnapshot is the JSON-facing view of one CounterVec: the label
// keys plus every labeled value, sorted by label tuple.
type FamilySnapshot struct {
	Labels []string      `json:"labels"`
	Values []FamilyValue `json:"values"`
}

func (v *CounterVec) snapshot() FamilySnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s := FamilySnapshot{Labels: append([]string(nil), v.labels...)}
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.Values = append(s.Values, FamilyValue{
			Labels: strings.Split(k, vecSep),
			Value:  v.m[k].Load(),
		})
	}
	return s
}

// MetricsSnapshot is the full registry state at one instant — the one
// serializer behind both GET /v1/stats (JSON) and GET /metrics
// (Prometheus text, see WritePrometheus).
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Families   map[string]FamilySnapshot    `json:"families,omitempty"`
}

// SnapshotAll captures every registered metric. Returns nil on a nil
// registry.
func (m *Metrics) SnapshotAll() *MetricsSnapshot {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &MetricsSnapshot{}
	if len(m.counters) > 0 {
		s.Counters = make(map[string]int64, len(m.counters))
		for name, c := range m.counters {
			s.Counters[name] = c.Load()
		}
	}
	if len(m.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(m.gauges))
		for name, g := range m.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(m.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(m.hists))
		for name, h := range m.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	if len(m.vecs) > 0 {
		s.Families = make(map[string]FamilySnapshot, len(m.vecs))
		for name, v := range m.vecs {
			s.Families[name] = v.snapshot()
		}
	}
	return s
}

// Timer accumulates durations under a pair of counters: a call count
// and total nanoseconds. Like Counter it is nil-safe. The two counters
// appear in the registry snapshot as "<name>.count" and "<name>.ns".
// New instrumentation should prefer Histogram, which additionally
// buckets the distribution; Timer remains for cheap two-counter
// aggregates.
type Timer struct {
	count *Counter
	ns    *Counter
}

// Timer returns the timer registered under name, creating its backing
// counters on first use. Returns a nil timer on a nil registry (whose
// Observe is a no-op).
func (m *Metrics) Timer(name string) *Timer {
	if m == nil {
		return nil
	}
	return &Timer{count: m.Counter(name + ".count"), ns: m.Counter(name + ".ns")}
}

// Observe records one measured duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Inc()
	t.ns.Add(int64(d))
}
