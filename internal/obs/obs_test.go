package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTracerIsInert exercises every exported method on a nil tracer
// (the disabled path the engine runs in production).
func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Since() != 0 {
		t.Error("nil Since must be 0")
	}
	tr.Emit(Event{Name: "x"})
	tr.Complete("c", "n", time.Now(), time.Second, nil)
	sp := tr.Start("cat", "name")
	sp.Arg("k", 1).Arg("j", 2)
	sp.End()
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer must hold nothing")
	}
}

// TestNilPathAllocs pins the disabled path to zero allocations: this
// is the overhead budget of DESIGN.md §8 in executable form. It
// covers the tracer and every metric kind a disabled service touches
// (counters, gauges, histograms, labeled families).
func TestNilPathAllocs(t *testing.T) {
	var tr *Tracer
	var m *Metrics
	g := m.Gauge("depth")
	h := m.Histogram("lat")
	v := m.CounterVec("events", "session", "kind")
	c := m.Counter("hits")
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("eval", "round")
		sp.Arg("delta", 42)
		sp.End()
		tr.Complete("eval.rule", "r1", time.Time{}, 0, nil)
		g.Set(3)
		h.Observe(42)
		h.ObserveSince(time.Time{})
		v.With("default", "hit").Inc()
		c.Add(2)
	})
	if allocs != 0 {
		t.Fatalf("nil obs path allocates %.1f times per op, want 0", allocs)
	}
}

func TestSpanRecordsDurationAndArgs(t *testing.T) {
	tr := New()
	sp := tr.Start("eval", "stratum")
	sp.Arg("rules", 3)
	time.Sleep(time.Millisecond)
	sp.End()
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	e := evs[0]
	if e.Cat != "eval" || e.Name != "stratum" || e.Args["rules"] != 3 {
		t.Errorf("bad event %+v", e)
	}
	if e.Dur <= 0 || e.TS < 0 {
		t.Errorf("non-positive timing %+v", e)
	}
}

// TestChromeTraceFormat validates the exporter output against the
// trace-event contract Perfetto relies on: a JSON array of objects
// with name/ph/ts fields, ts in microseconds.
func TestChromeTraceFormat(t *testing.T) {
	tr := New()
	tr.Emit(Event{Name: "round", Cat: "eval", TS: 1500 * time.Nanosecond, Dur: 2 * time.Microsecond,
		TID: 1, Args: map[string]int64{"delta": 9}})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("not a JSON array: %v\n%s", err, buf.String())
	}
	if len(arr) != 1 {
		t.Fatalf("entries = %d, want 1", len(arr))
	}
	e := arr[0]
	if e["name"] != "round" || e["ph"] != "X" {
		t.Errorf("bad entry %v", e)
	}
	if ts, ok := e["ts"].(float64); !ok || ts != 1.5 {
		t.Errorf("ts = %v, want 1.5µs", e["ts"])
	}
	if dur, ok := e["dur"].(float64); !ok || dur != 2 {
		t.Errorf("dur = %v, want 2µs", e["dur"])
	}
}

func TestJSONLExport(t *testing.T) {
	tr := New()
	tr.Emit(Event{Name: "a", Cat: "c", Dur: time.Microsecond})
	tr.Emit(Event{Name: "b", Cat: "c", TID: 2})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("lines = %d, want 2", lines)
	}
}

func TestAggregateAndProfile(t *testing.T) {
	tr := New()
	tr.Emit(Event{Name: "r1", Cat: "eval.rule", Dur: 3 * time.Millisecond, Args: map[string]int64{"derived": 10}})
	tr.Emit(Event{Name: "r1", Cat: "eval.rule", Dur: 2 * time.Millisecond, Args: map[string]int64{"derived": 5}})
	tr.Emit(Event{Name: "r2", Cat: "eval.rule", Dur: time.Millisecond})
	entries := Aggregate(tr.Events())
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	if entries[0].Name != "r1" || entries[0].Count != 2 || entries[0].Total != 5*time.Millisecond {
		t.Errorf("bad top entry %+v", entries[0])
	}
	if entries[0].Args["derived"] != 15 {
		t.Errorf("args not summed: %+v", entries[0].Args)
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "r1") || !strings.Contains(out, "derived=15") {
		t.Errorf("profile output missing aggregation:\n%s", out)
	}
	// r1 (5ms) must be listed before r2 (1ms).
	if strings.Index(out, "r1") > strings.Index(out, "r2") {
		t.Errorf("profile not sorted by total time:\n%s", out)
	}
}

func TestWriteProfileNilTracer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfile(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disabled") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestStartPprof(t *testing.T) {
	addr, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp.StatusCode)
	}
}

// TestMetricsRegistry covers the nil-safety contract and the counter
// semantics (Add, Inc, Max high-watermark, Snapshot).
func TestMetricsRegistry(t *testing.T) {
	var nilM *Metrics
	if c := nilM.Counter("x"); c != nil {
		t.Fatal("nil registry must hand out nil counters")
	}
	var nilC *Counter
	nilC.Add(5)
	nilC.Inc()
	nilC.Max(10)
	if nilC.Load() != 0 {
		t.Fatal("nil counter must read 0")
	}
	if nilM.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}

	m := NewMetrics()
	a := m.Counter("serve.a")
	a.Add(2)
	a.Inc()
	if a.Load() != 3 {
		t.Fatalf("a = %d, want 3", a.Load())
	}
	if m.Counter("serve.a") != a {
		t.Fatal("same name must return the same counter")
	}
	hw := m.Counter("serve.max")
	hw.Max(7)
	hw.Max(3) // lower value must not regress the watermark
	hw.Max(9)
	if hw.Load() != 9 {
		t.Fatalf("watermark = %d, want 9", hw.Load())
	}
	snap := m.Snapshot()
	if snap["serve.a"] != 3 || snap["serve.max"] != 9 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestMetricsConcurrent hammers one counter from many goroutines; run
// with -race.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := m.Counter("shared")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			m.Counter("hw").Max(int64(i))
		}(i)
	}
	wg.Wait()
	if got := m.Counter("shared").Load(); got != 8000 {
		t.Fatalf("shared = %d, want 8000", got)
	}
	if got := m.Counter("hw").Load(); got != 7 {
		t.Fatalf("hw = %d, want 7", got)
	}
}
