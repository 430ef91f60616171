package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestQueryCache: a repeated goal is served from the cache until a
// write bumps the snapshot generation, which invalidates it.
func TestQueryCache(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)

	var q1, q2, q3 QueryResponse
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}, &q1)
	if q1.Cached {
		t.Fatal("first query should miss the cache")
	}
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}, &q2)
	if !q2.Cached || q2.Generation != q1.Generation {
		t.Fatalf("second query = cached=%v gen=%d, want a hit on gen %d", q2.Cached, q2.Generation, q1.Generation)
	}
	if renderSorted(q2.Tuples) != renderSorted(q1.Tuples) {
		t.Fatal("cache hit returned different tuples")
	}

	mustOK(t, ts, "POST", changesPath, addFacts("edge(c, d)."), nil)
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}, &q3)
	if q3.Cached {
		t.Fatal("query after a write must not be served from the stale cache")
	}
	if q3.Generation <= q1.Generation {
		t.Fatalf("generation did not advance across a write: %d -> %d", q1.Generation, q3.Generation)
	}
	if q3.Total != q1.Total+3 { // chain a b c d adds tc(a,d) tc(b,d) tc(c,d)
		t.Fatalf("post-write total = %d, want %d", q3.Total, q1.Total+3)
	}

	var st SessionStats
	mustOK(t, ts, "GET", statsPath, nil, &st)
	if st.CacheHits != 1 || st.CacheMisses < 2 {
		t.Fatalf("cache counters = %d hits / %d misses, want 1 / >=2", st.CacheHits, st.CacheMisses)
	}

	// A disabled cache never reports hits.
	off := newTestServer(t, Config{QueryCache: -1})
	mustOK(t, off, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)
	var c1, c2 QueryResponse
	mustOK(t, off, "POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}, &c1)
	mustOK(t, off, "POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}, &c2)
	if c1.Cached || c2.Cached {
		t.Fatal("disabled cache served a hit")
	}
}

// TestQueryPagination walks a result set with limit/cursor and checks
// the pages tile the full result exactly.
func TestQueryPagination(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\n")
	const n = 25
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "edge(n%02d, n%02d).\n", i, i+1)
	}
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: sb.String()}, nil)

	var all QueryResponse
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(n00, Y)"}, &all)
	if all.Total != n || all.Count != n || all.NextCursor != "" {
		t.Fatalf("unpaginated query = count %d total %d next %q, want %d/%d/none",
			all.Count, all.Total, all.NextCursor, n, n)
	}

	var rows [][]string
	cursor := ""
	pages := 0
	for {
		var page QueryResponse
		mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(n00, Y)", Limit: 7, Cursor: cursor}, &page)
		if page.Total != n {
			t.Fatalf("page %d: total = %d, want %d", pages, page.Total, n)
		}
		rows = append(rows, page.Tuples...)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
		if pages > n {
			t.Fatal("cursor never terminated")
		}
	}
	if pages != 4 { // ceil(25/7)
		t.Fatalf("walked %d pages, want 4", pages)
	}
	if renderSorted(rows) != renderSorted(all.Tuples) {
		t.Fatal("paginated rows do not tile the full result")
	}

	if code := call(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(n00, Y)", Cursor: "bogus"}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad cursor = %d, want 400", code)
	}
}

// TestRequestHardening covers the decode guards: wrong Content-Type is
// 415, an oversized body is 413, an unknown field (the removed
// "optimize" flag is one) is 400, all with stable error codes.
func TestRequestHardening(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 256})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)

	req, _ := http.NewRequest("POST", ts.URL+queryPath, strings.NewReader(`{"goal": "tc(X, Y)"}`))
	req.Header.Set("Content-Type", "text/plain")
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var e ErrorResponse
	decodeBody(t, res, &e)
	if res.StatusCode != http.StatusUnsupportedMediaType || e.Error.Code != CodeUnsupportedMedia {
		t.Fatalf("text/plain = %d/%q, want 415 %s", res.StatusCode, e.Error.Code, CodeUnsupportedMedia)
	}

	big := addFacts("edge(" + strings.Repeat("x", 512) + ", y).")
	req, _ = http.NewRequest("POST", ts.URL+changesPath, jsonBody(t, big))
	req.Header.Set("Content-Type", "application/json")
	res, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, res, &e)
	if res.StatusCode != http.StatusRequestEntityTooLarge || e.Error.Code != CodeTooLarge {
		t.Fatalf("oversized body = %d/%q, want 413 %s", res.StatusCode, e.Error.Code, CodeTooLarge)
	}

	optimize := json.RawMessage(`{"program": "p(a).", "optimize": true}`)
	if code := call(t, ts, "POST", loadPath, optimize, &e); code != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
		t.Fatalf("load with optimize = %d/%q, want 400 %s", code, e.Error.Code, CodeBadRequest)
	}

	// The error envelope is structured on ordinary failures too.
	var bad ErrorResponse
	if code := call(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(X,"}, &bad); code != http.StatusBadRequest {
		t.Fatalf("bad goal = %d, want 400", code)
	}
	if bad.Error.Code != CodeBadGoal || bad.Error.Message == "" {
		t.Fatalf("bad goal envelope = %+v, want code %s with a message", bad, CodeBadGoal)
	}
}

func decodeBody(t *testing.T, res *http.Response, out any) {
	t.Helper()
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestMultiSession: named sessions are fully isolated — independent
// programs, writes, stats.
func TestMultiSession(t *testing.T) {
	ts := newTestServer(t, Config{})

	var load LoadResponse
	mustOK(t, ts, "POST", "/v1/sessions/graph", LoadRequest{Program: tcSrc}, &load)
	if load.Session != "graph" {
		t.Fatalf("load session = %q, want graph", load.Session)
	}
	mustOK(t, ts, "POST", "/v1/sessions/other", LoadRequest{Program: `
		p(X) :- q(X).
		q(a).
	`}, nil)

	// Writes to one session do not leak into the other.
	mustOK(t, ts, "POST", "/v1/sessions/graph/changes", addFacts("edge(c, d)."), nil)
	var q QueryResponse
	mustOK(t, ts, "POST", "/v1/sessions/graph/query", QueryRequest{Goal: "tc(a, Y)"}, &q)
	if q.Total != 3 {
		t.Fatalf("graph tc(a, Y) total = %d, want 3", q.Total)
	}
	mustOK(t, ts, "POST", "/v1/sessions/other/query", QueryRequest{Goal: "tc(a, Y)"}, &q)
	if q.Total != 0 {
		t.Fatalf("other session sees graph's tc: %+v", q)
	}

	var del UpdateResponse
	mustOK(t, ts, "POST", "/v1/sessions/graph/changes", delFacts("edge(c, d)."), &del)
	if del.Applied != 1 {
		t.Fatalf("graph delete = %+v, want 1 applied", del)
	}

	var names SessionListResponse
	mustOK(t, ts, "GET", "/v1/sessions", nil, &names)
	if len(names.Sessions) != 2 {
		t.Fatalf("sessions = %v, want graph and other", names.Sessions)
	}

	// Unknown sessions are 404 no_session.
	var e ErrorResponse
	if code := call(t, ts, "POST", "/v1/sessions/nope/query", QueryRequest{Goal: "tc(X, Y)"}, &e); code != http.StatusNotFound {
		t.Fatalf("unknown session = %d, want 404", code)
	}
	if e.Error.Code != CodeNoSession {
		t.Fatalf("unknown session code = %q, want %s", e.Error.Code, CodeNoSession)
	}
	// Invalid names are rejected at load.
	if code := call(t, ts, "POST", "/v1/sessions/bad%2Fname", LoadRequest{Program: tcSrc}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid session name = %d, want 400", code)
	}

	// Dropping a session removes it; the rest keep serving.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/sessions/other", nil)
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNoContent {
		t.Fatalf("drop = %d, want 204", res.StatusCode)
	}
	if code := call(t, ts, "POST", "/v1/sessions/other/query", QueryRequest{Goal: "p(X)"}, nil); code != http.StatusNotFound {
		t.Fatalf("query after drop = %d, want 404", code)
	}
	mustOK(t, ts, "POST", "/v1/sessions/graph/query", QueryRequest{Goal: "tc(a, Y)"}, &q)
	if q.Total != 2 {
		t.Fatalf("graph after sibling drop: total = %d, want 2", q.Total)
	}

	// /v1/stats sees every live session and the obs metrics.
	var st ServerStatsResponse
	mustOK(t, ts, "GET", "/v1/stats", nil, &st)
	if len(st.Sessions) != 1 {
		t.Fatalf("/v1/stats sessions = %d, want 1", len(st.Sessions))
	}
	if st.Metrics == nil {
		t.Fatal("/v1/stats should carry the metrics snapshot")
	}
}

// TestRouteInventory pins the whole HTTP surface: these thirteen
// patterns answer, and the flat aliases and /facts write routes that
// used to shadow them are gone (the mux's plain 404/405).
func TestRouteInventory(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	probe := func(route string) (pattern string, code int) {
		method, path, _ := strings.Cut(route, " ")
		req := httptest.NewRequest(method, strings.Replace(path, "{name}", "x", 1), strings.NewReader("{}"))
		_, pattern = srv.mux.Handler(req)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		return pattern, rec.Code
	}
	for _, route := range []string{
		"GET /healthz", "GET /readyz", "GET /metrics", "GET /v1/stats", "GET /v1/sessions",
		"POST /v1/sessions/{name}", "DELETE /v1/sessions/{name}",
		"POST /v1/sessions/{name}/query", "POST /v1/sessions/{name}/changes",
		"GET /v1/sessions/{name}/subscribe", "GET /v1/sessions/{name}/stats",
		"POST /v1/sessions/{name}/checkpoint", "GET /v1/sessions/{name}/replicate",
	} {
		if pattern, _ := probe(route); pattern != route {
			t.Errorf("%s is served by pattern %q", route, pattern)
		}
	}
	for _, route := range []string{
		"POST /load", "POST /query", "POST /insert", "POST /delete", "GET /stats",
		"POST /v1/sessions/x/facts", "DELETE /v1/sessions/x/facts",
		"GET /v1/sessions/x/query", "POST /v1/sessions/x/stats", "POST /v1/sessions/x/query/y",
	} {
		if pattern, code := probe(route); pattern != "" || (code != http.StatusNotFound && code != http.StatusMethodNotAllowed) {
			t.Errorf("%s = %d via pattern %q, want the mux's 404/405", route, code, pattern)
		}
	}
}

// TestLoadRefusesFactWithVariables: a load whose fact has a variable,
// or whose fact disagrees with an earlier one on arity, is a positioned
// 400 bad_request, as a change with a variable is; the session keeps
// serving the program it had.
func TestLoadRefusesFactWithVariables(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)
	for src, want := range map[string]string{
		"p(X).\nq(Y) :- p(Y).\n":    "1:1: fact p(X) has variables",
		"q(Y) :- p(Y).\n  p(a, Z).": "2:3: fact p(a, Z) has variables",
		"p(a).\np(a, b).\n":         "2:1: predicate p used with arities 1 and 2",
	} {
		var e ErrorResponse
		code := call(t, ts, "POST", loadPath, LoadRequest{Program: src}, &e)
		if code != http.StatusBadRequest || e.Error.Code != CodeBadRequest || !strings.Contains(e.Error.Message, want) {
			t.Fatalf("load %q = %d/%q %q, want 400 %s containing %q", src, code, e.Error.Code, e.Error.Message, CodeBadRequest, want)
		}
	}
	var res QueryResponse
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}, &res)
	if len(res.Tuples) == 0 {
		t.Fatal("the refused loads replaced the serving program")
	}
}
