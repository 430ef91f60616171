package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe log sink for tests: the server's
// access logger writes from handler goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// doJSON issues a request and returns the raw response, so tests can
// inspect headers (call/mustOK discard them).
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body any) *http.Response {
	t.Helper()
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestRequestIDHeader: every routed response carries a distinct
// X-Request-Id — including error responses, which are exactly the ones
// a client wants to correlate with server logs.
func TestRequestIDHeader(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)

	cases := []struct {
		method, path string
		body         any
	}{
		{"POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}},
		{"GET", statsPath, nil},
		{"GET", "/v1/stats", nil},
		{"POST", "/v1/sessions/nope/query", QueryRequest{Goal: "tc(X, Y)"}}, // 404 still gets an ID
	}
	seen := map[string]bool{}
	for _, c := range cases {
		resp := doJSON(t, ts, c.method, c.path, c.body)
		id := resp.Header.Get("X-Request-Id")
		if len(id) != 16 {
			t.Fatalf("%s %s: X-Request-Id = %q, want 16 hex chars", c.method, c.path, id)
		}
		if _, err := strconv.ParseUint(id, 16, 64); err != nil {
			t.Fatalf("%s %s: X-Request-Id %q is not hex: %v", c.method, c.path, id, err)
		}
		if seen[id] {
			t.Fatalf("request ID %q repeated", id)
		}
		seen[id] = true
	}
}

// TestMetricsEndpoint drives the service through its hot paths and
// asserts the Prometheus exposition carries the series the ISSUE's
// acceptance criteria name: query/commit latency histograms, pipeline
// gauges, the per-route request family, and planner decisions.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}, nil) // miss
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}, nil) // hit
	mustOK(t, ts, "POST", changesPath, addFacts("edge(c, d)."), nil)

	resp := doJSON(t, ts, "GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE serve_query_ns histogram",
		"serve_query_ns_bucket{le=\"+Inf\"}",
		"# TYPE serve_commit_ns histogram",
		"serve_commit_ns_count 1",
		"# TYPE serve_batch_size histogram",
		"# TYPE serve_queue_depth gauge",
		"# TYPE serve_sessions gauge",
		"serve_sessions 1",
		"# TYPE serve_requests counter",
		`serve_requests{route="POST /v1/sessions/{name}/query",code="200"} 2`,
		`serve_cache{session="default",event="hit"} 1`,
		`serve_cache{session="default",event="miss"} 1`,
		"serve_batches 1",
		"serve_planner_rules{mode=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", out)
	}
}

// TestAccessLogAndSlowQuery: with an access-log sink and a zero-ish
// slow-query threshold, every request logs a JSON access line bearing
// the same request ID the client saw, and slow queries add a
// slow_query line with the investigation fields.
func TestAccessLogAndSlowQuery(t *testing.T) {
	var logBuf syncBuffer
	ts := newTestServer(t, Config{AccessLog: &logBuf, SlowQuery: time.Nanosecond})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)
	resp := doJSON(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(a, Y)"})
	wantID := resp.Header.Get("X-Request-Id")
	if resp.StatusCode != http.StatusOK || wantID == "" {
		t.Fatalf("query = %d, id %q", resp.StatusCode, wantID)
	}

	var access, slow []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		switch rec["type"] {
		case "access":
			access = append(access, rec)
		case "slow_query":
			slow = append(slow, rec)
		default:
			t.Fatalf("unknown log record type %v", rec["type"])
		}
	}
	if len(access) != 2 { // load + query
		t.Fatalf("access lines = %d, want 2", len(access))
	}
	q := access[1]
	if q["request_id"] != wantID {
		t.Errorf("access request_id = %v, want %v", q["request_id"], wantID)
	}
	if q["route"] != "POST /v1/sessions/{name}/query" || q["path"] != queryPath {
		t.Errorf("access route/path = %v / %v", q["route"], q["path"])
	}
	if q["status"] != float64(200) {
		t.Errorf("access status = %v", q["status"])
	}

	if len(slow) != 1 {
		t.Fatalf("slow_query lines = %d, want 1 (only the query exceeds the threshold)", len(slow))
	}
	s := slow[0]
	if s["request_id"] != wantID || s["session"] != "default" || s["goal"] != "tc(a, Y)" {
		t.Errorf("slow_query identity fields = %v / %v / %v", s["request_id"], s["session"], s["goal"])
	}
	if s["generation"] == nil {
		t.Errorf("slow_query missing generation: %v", s)
	}
	if s["total"] != float64(2) { // tc(a,b), tc(a,c)
		t.Errorf("slow_query total = %v, want 2", s["total"])
	}
}

// TestStatsMetricsParity: /v1/stats and /metrics render the same
// registry snapshot — counter values must agree when the server is
// quiescent.
func TestStatsMetricsParity(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)
	mustOK(t, ts, "POST", changesPath, addFacts("edge(c, d)."), nil)
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}, nil)

	var v1 ServerStatsResponse
	mustOK(t, ts, "GET", "/v1/stats", nil, &v1)
	if v1.Metrics == nil {
		t.Fatal("/v1/stats must carry the metrics snapshot")
	}
	exposition := scrapeMetrics(t, ts)
	for _, name := range []string{"serve.batches", "serve.batched_writes", "serve.cache_misses"} {
		prom := metricValue(t, exposition, strings.ReplaceAll(name, ".", "_"))
		if v := strconv.FormatInt(v1.Metrics.Counters[name], 10); prom != v {
			t.Errorf("%s: /metrics %s vs /v1/stats %s", name, prom, v)
		}
	}
	if v1.Metrics.Counters["serve.batches"] != 1 {
		t.Errorf("serve.batches = %d, want 1", v1.Metrics.Counters["serve.batches"])
	}
	// Histograms ride the same snapshot: one commit was observed.
	if h, ok := v1.Metrics.Histograms["serve.commit_ns"]; !ok || h.Count != 1 {
		t.Errorf("serve.commit_ns histogram = %+v, want count 1", v1.Metrics.Histograms["serve.commit_ns"])
	}
	// The process gauges are sampled per scrape, so the two surfaces
	// agree on presence, not value: the heap is never empty, and the
	// peak resident set only grows (0 only where /proc is absent).
	_, procErr := os.Stat("/proc/self/status")
	for _, name := range []string{"process.heap_inuse_bytes", "process.rss_peak_bytes"} {
		v, ok := v1.Metrics.Gauges[name]
		if !ok {
			t.Fatalf("/v1/stats lacks gauge %s", name)
		}
		prom, err := strconv.ParseInt(metricValue(t, exposition, strings.ReplaceAll(name, ".", "_")), 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if procErr != nil && name == "process.rss_peak_bytes" {
			continue
		}
		if v <= 0 || prom <= 0 {
			t.Errorf("%s: /v1/stats %d, /metrics %d, want both > 0", name, v, prom)
		}
		if name == "process.rss_peak_bytes" && prom < v {
			t.Errorf("%s fell from %d to %d between scrapes", name, v, prom)
		}
	}
}

// TestCommitTraceLinksRequestID is the ISSUE's acceptance criterion in
// executable form: one request ID is traceable from the HTTP response
// header through the committer's serve.commit span. With durability on,
// the span's seq arg names the WAL batch that made the write durable.
func TestCommitTraceLinksRequestID(t *testing.T) {
	tracer := obs.New()
	ts := newTestServer(t, Config{
		Tracer:     tracer,
		Durability: &durable.Options{Dir: t.TempDir()},
	})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)
	resp := doJSON(t, ts, "POST", changesPath, addFacts("edge(c, d)."))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert = %d", resp.StatusCode)
	}
	reqID, err := strconv.ParseUint(resp.Header.Get("X-Request-Id"), 16, 64)
	if err != nil {
		t.Fatalf("X-Request-Id: %v", err)
	}

	var found bool
	for _, ev := range tracer.Events() {
		if ev.Cat != "serve.commit" || ev.Name != "commit.request" {
			continue
		}
		if uint64(ev.Args["req"]) != reqID {
			continue
		}
		found = true
		if ev.Args["batch"] < 1 {
			t.Errorf("commit.request batch = %d, want >= 1", ev.Args["batch"])
		}
		if ev.Args["seq"] < 1 {
			t.Errorf("commit.request seq = %d, want >= 1 (WAL batch sequence)", ev.Args["seq"])
		}
		if ev.Args["wait_ns"] < 0 {
			t.Errorf("commit.request wait_ns = %d, want >= 0", ev.Args["wait_ns"])
		}
	}
	if !found {
		t.Fatalf("no commit.request span with req=%#x in %d events", reqID, len(tracer.Events()))
	}
}
