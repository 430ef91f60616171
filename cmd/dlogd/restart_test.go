package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// syncWriter is a goroutine-safe log sink: with -access-log the server
// writes JSON lines from handler goroutines while the test reads.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestHelperDaemon is not a test: it is the child half of the SIGKILL
// e2e. When re-executed with DLOGD_HELPER_ARGS set, it runs the real
// daemon with those arguments, announces the bound address on stdout,
// and serves until the parent kills the process.
func TestHelperDaemon(t *testing.T) {
	raw := os.Getenv("DLOGD_HELPER_ARGS")
	if raw == "" {
		t.Skip("helper process entry point; driven by TestDaemonSurvivesSIGKILL")
	}
	sig := make(chan os.Signal) // never signalled: the parent SIGKILLs us
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(strings.Split(raw, "\x1f"), sig, os.Stderr, ready) }()
	select {
	case addr := <-ready:
		fmt.Printf("ADDR %s\n", addr)
	case err := <-done:
		t.Fatalf("helper daemon exited before ready: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("helper daemon: %v", err)
	}
}

// spawnDaemon re-executes this test binary as a real dlogd process and
// returns its base URL and process handle. The child dies by SIGKILL,
// never cleanly — that is the point of the exercise.
func spawnDaemon(t *testing.T, args ...string) (string, *exec.Cmd) {
	t.Helper()
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperDaemon", "-test.v")
	cmd.Env = append(os.Environ(), "DLOGD_HELPER_ARGS="+strings.Join(args, "\x1f"))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	deadline := time.After(15 * time.Second)
	addrc := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
				addrc <- a
				return
			}
		}
	}()
	select {
	case a := <-addrc:
		return "http://" + a, cmd
	case <-deadline:
		t.Fatal("child daemon never announced its address")
		return "", nil
	}
}

func sigkill(t *testing.T, cmd *exec.Cmd) {
	t.Helper()
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; exit status is the kill, not consulted
}

func tcAnswers(t *testing.T, url string) []string {
	t.Helper()
	var q serve.QueryResponse
	if code := post(t, url+"/v1/sessions/default/query", serve.QueryRequest{Goal: "tc(X, Y)", Limit: 1000}, &q); code != 200 {
		t.Fatalf("query = %d", code)
	}
	out := make([]string, 0, len(q.Tuples))
	for _, tu := range q.Tuples {
		out = append(out, strings.Join(tu, ","))
	}
	sort.Strings(out)
	return out
}

// TestDaemonSurvivesSIGKILL is the end-to-end crash proof: a real
// dlogd process with -data-dir takes acknowledged writes, dies by
// SIGKILL mid-flight, and a fresh process pointed at the same
// directory serves every pre-crash answer.
func TestDaemonSurvivesSIGKILL(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "tc.dl")
	if err := os.WriteFile(prog, []byte(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		edge(a, b).
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "data")

	url, cmd := spawnDaemon(t, "-data-dir", data, "-program", prog, "-checkpoint-every", "2")
	for _, f := range []string{"edge(b, c).", "edge(c, d).", "edge(d, e)."} {
		var upd serve.UpdateResponse
		if code := post(t, url+"/v1/sessions/default/changes", addFacts(f), &upd); code != 200 {
			t.Fatalf("insert %q = %d", f, code)
		}
	}
	var upd serve.UpdateResponse
	if code := post(t, url+"/v1/sessions/default/changes", addFacts("edge(a, b)."), &upd); code != 200 {
		t.Fatalf("duplicate insert = %d", code)
	}
	want := tcAnswers(t, url)
	if len(want) != 10 { // closure of the 4-edge chain
		t.Fatalf("pre-crash tc has %d tuples, want 10: %v", len(want), want)
	}

	sigkill(t, cmd)

	// Restart in-process on the same directory; -program must be
	// skipped in favor of the recovered state (the log says so, and the
	// acked writes prove it). -access-log exercises the telemetry path
	// across recovery: every post-restart request must log a JSON line.
	var logBuf syncWriter
	sig := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-data-dir", data, "-program", prog, "-checkpoint-every", "2", "-access-log"},
			sig, &logBuf, ready)
	}()
	var url2 string
	select {
	case addr := <-ready:
		url2 = "http://" + addr
	case err := <-done:
		t.Fatalf("restart failed: %v\nlog:\n%s", err, logBuf.String())
	}
	defer func() {
		sig <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Fatalf("restarted daemon exit: %v", err)
		}
	}()

	got := tcAnswers(t, url2)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("post-crash answers differ\n got: %v\nwant: %v", got, want)
	}
	if !strings.Contains(logBuf.String(), "recovered session default") ||
		!strings.Contains(logBuf.String(), "skipping -program") {
		t.Fatalf("restart log missing recovery lines:\n%s", logBuf.String())
	}

	// The recovered session keeps taking writes durably.
	if code := post(t, url2+"/v1/sessions/default/changes", addFacts("edge(e, f)."), &upd); code != 200 {
		t.Fatalf("post-recovery insert = %d", code)
	}
	if got := tcAnswers(t, url2); len(got) != 15 {
		t.Fatalf("after post-recovery insert: %d tuples, want 15", len(got))
	}

	// Every JSON line in the mixed log must parse, and the access lines
	// must carry the request correlation fields.
	accessLines := 0
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue // plain dlogd: startup/recovery lines
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line is not valid JSON: %q: %v", line, err)
		}
		if rec["type"] != "access" {
			continue
		}
		accessLines++
		id, _ := rec["request_id"].(string)
		if len(id) != 16 {
			t.Errorf("access line request_id = %q, want 16 hex chars: %v", id, rec)
		}
		if rec["route"] == nil || rec["status"] == nil {
			t.Errorf("access line missing route/status: %v", rec)
		}
	}
	if accessLines < 2 { // at least the queries before this check
		t.Fatalf("access log lines = %d, want >= 2\nlog:\n%s", accessLines, logBuf.String())
	}
}

// TestDaemonSIGKILLNoFsync: with -fsync=false an acknowledged write
// may be lost to the page cache, but the survivor must still be a
// consistent prefix — the recovered closure is exactly the closure of
// some prefix of the inserted chain, never a torn in-between.
func TestDaemonSIGKILLNoFsync(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "tc.dl")
	if err := os.WriteFile(prog, []byte(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		edge(a, b).
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "data")

	url, cmd := spawnDaemon(t, "-data-dir", data, "-fsync=false", "-program", prog, "-checkpoint-every", "100")
	chain := []string{"edge(b, c).", "edge(c, d).", "edge(d, e)."}
	for _, f := range chain {
		var upd serve.UpdateResponse
		if code := post(t, url+"/v1/sessions/default/changes", addFacts(f), &upd); code != 200 {
			t.Fatalf("insert %q = %d", f, code)
		}
	}
	sigkill(t, cmd)

	var logBuf strings.Builder
	sig := make(chan os.Signal, 1)
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-data-dir", data, "-fsync=false"}, sig, &logBuf, ready)
	}()
	var url2 string
	select {
	case addr := <-ready:
		url2 = "http://" + addr
	case err := <-done:
		t.Fatalf("restart failed: %v\nlog:\n%s", err, logBuf.String())
	}
	defer func() {
		sig <- syscall.SIGTERM
		<-done
	}()

	// Valid states: closure of a,b + first k chain edges, k = 0..3.
	// Those closures have 1, 3, 6, 10 tuples.
	got := tcAnswers(t, url2)
	valid := map[int]bool{1: true, 3: true, 6: true, 10: true}
	if !valid[len(got)] {
		t.Fatalf("recovered closure has %d tuples; not the closure of any inserted prefix: %v", len(got), got)
	}
}
