package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// startDaemon runs the daemon on a free port and returns its base URL,
// the signal channel, and a channel that yields run's error on exit.
func startDaemon(t *testing.T, args ...string) (string, chan os.Signal, chan error) {
	t.Helper()
	sig := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), sig, io.Discard, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, sig, done
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
		return "", nil, nil
	}
}

func post(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return res.StatusCode
}

// addFacts and delFacts build the one-sided /changes payload that
// inserts or deletes src (one entry may carry several facts).
func addFacts(src string) serve.ChangesRequest { return serve.ChangesRequest{Adds: []string{src}} }
func delFacts(src string) serve.ChangesRequest { return serve.ChangesRequest{Dels: []string{src}} }

// TestDaemonStartupProgramAndRoundTrip boots with -program and checks
// the full load → query → insert → query → delete flow over a real
// listener.
func TestDaemonStartupProgramAndRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tc.dl")
	if err := os.WriteFile(path, []byte(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		edge(a, b).
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	url, sig, done := startDaemon(t, "-program", path)

	res, err := http.Get(url + "/healthz")
	if err != nil || res.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, res)
	}
	res.Body.Close()

	var q serve.QueryResponse
	if code := post(t, url+"/v1/sessions/default/query", serve.QueryRequest{Goal: "tc(a, Y)"}, &q); code != 200 || q.Count != 1 {
		t.Fatalf("startup query: code=%d resp=%+v", code, q)
	}
	var upd serve.UpdateResponse
	if code := post(t, url+"/v1/sessions/default/changes", addFacts("edge(b, c)."), &upd); code != 200 || upd.Mode != "incremental" {
		t.Fatalf("insert: code=%d resp=%+v", code, upd)
	}
	if post(t, url+"/v1/sessions/default/query", serve.QueryRequest{Goal: "tc(a, Y)"}, &q); q.Count != 2 {
		t.Fatalf("after insert: %+v", q)
	}
	if code := post(t, url+"/v1/sessions/default/changes", delFacts("edge(a, b)."), &upd); code != 200 {
		t.Fatalf("delete: code=%d", code)
	}
	if post(t, url+"/v1/sessions/default/query", serve.QueryRequest{Goal: "tc(a, Y)"}, &q); q.Count != 0 {
		t.Fatalf("after delete: %+v", q)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestDaemonGracefulShutdown: after SIGTERM the daemon completes the
// in-flight request and refuses new ones.
func TestDaemonGracefulShutdown(t *testing.T) {
	url, sig, done := startDaemon(t)
	if code := post(t, url+"/v1/sessions/default", serve.LoadRequest{Program: "p(a). q(X) :- p(X)."}, nil); code != 200 {
		t.Fatalf("load: %d", code)
	}

	// Hold a request in flight: the body arrives only after SIGTERM.
	pr, pw := io.Pipe()
	inflight := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest("POST", url+"/v1/sessions/default/query", pr)
		res, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			inflight <- err
			return
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight query = %d", res.StatusCode)
			return
		}
		inflight <- nil
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the handler

	sig <- syscall.SIGTERM

	// The daemon must stop accepting new connections. Shutdown closes
	// the listener asynchronously, so poll briefly.
	refused := false
	for i := 0; i < 100 && !refused; i++ {
		res, err := http.Get(url + "/healthz")
		if err != nil {
			refused = true
			break
		}
		res.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !refused {
		t.Error("daemon kept accepting new connections after SIGTERM")
	}

	// The in-flight request still completes once its body arrives.
	if _, err := io.WriteString(pw, `{"goal": "q(X)"}`); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not exit after drain")
	}
}

// TestDaemonBadFlags and bad program exit with an error instead of
// serving.
func TestDaemonBadStartup(t *testing.T) {
	sig := make(chan os.Signal, 1)
	if err := run([]string{"-no-such-flag"}, sig, io.Discard, nil); err == nil {
		t.Error("bad flag should fail")
	}
	for _, flag := range []string{"-optimize", "-join", "-batch-window", "-expose-pprof"} {
		if err := run([]string{flag}, sig, io.Discard, nil); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("the removed %s flag: err = %v", flag, err)
		}
	}
	path := filepath.Join(t.TempDir(), "bad.dl")
	os.WriteFile(path, []byte("p(X :-"), 0o644)
	err := run([]string{"-program", path}, sig, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "load") {
		t.Errorf("bad program: err = %v", err)
	}
}

// TestDaemonMultiProgramV1 boots with two -program flags (one default,
// one named) and exercises the /v1 surface end to end: per-session
// query, changes, stats, and the server-wide stats with both sessions.
func TestDaemonMultiProgramV1(t *testing.T) {
	dir := t.TempDir()
	tcPath := filepath.Join(dir, "tc.dl")
	if err := os.WriteFile(tcPath, []byte(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		edge(a, b).
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	pqPath := filepath.Join(dir, "pq.dl")
	if err := os.WriteFile(pqPath, []byte("q(X) :- p(X).\np(a).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	url, sig, done := startDaemon(t, "-program", tcPath, "-program", "aux="+pqPath, "-query-cache", "16")

	// An unnamed -program lands in the session called "default".
	var q serve.QueryResponse
	if code := post(t, url+"/v1/sessions/default/query", serve.QueryRequest{Goal: "tc(a, Y)"}, &q); code != 200 || q.Total != 1 {
		t.Fatalf("v1 default query: code=%d resp=%+v", code, q)
	}
	if code := post(t, url+"/v1/sessions/aux/query", serve.QueryRequest{Goal: "q(X)"}, &q); code != 200 || q.Total != 1 {
		t.Fatalf("v1 aux query: code=%d resp=%+v", code, q)
	}

	var upd serve.UpdateResponse
	if code := post(t, url+"/v1/sessions/aux/changes", addFacts("p(b)."), &upd); code != 200 || upd.Applied != 1 {
		t.Fatalf("v1 changes add: code=%d resp=%+v", code, upd)
	}
	if post(t, url+"/v1/sessions/aux/query", serve.QueryRequest{Goal: "q(X)"}, &q); q.Total != 2 {
		t.Fatalf("aux after insert: %+v", q)
	}
	// Sessions are isolated.
	if post(t, url+"/v1/sessions/default/query", serve.QueryRequest{Goal: "q(X)"}, &q); q.Total != 0 {
		t.Fatalf("default sees aux's q: %+v", q)
	}

	// Repeat query hits the cache.
	post(t, url+"/v1/sessions/default/query", serve.QueryRequest{Goal: "tc(a, Y)"}, nil)
	if post(t, url+"/v1/sessions/default/query", serve.QueryRequest{Goal: "tc(a, Y)"}, &q); !q.Cached {
		t.Fatalf("repeat query not cached: %+v", q)
	}

	res, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st serve.ServerStatsResponse
	if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if len(st.Sessions) != 2 {
		t.Fatalf("/v1/stats sessions = %d, want 2", len(st.Sessions))
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}
