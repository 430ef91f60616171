package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// postQuiet is post without the test-failing teeth: connection errors
// and non-2xx answers are expected while a follower is still catching
// up or a leader is dead.
func postQuiet(url string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			return res.StatusCode, err
		}
	}
	return res.StatusCode, nil
}

// waitTC polls url's default session until tc(X, Y) matches want.
func waitTC(t *testing.T, url string, want []string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		var q serve.QueryResponse
		code, err := postQuiet(url+"/v1/sessions/default/query", serve.QueryRequest{Goal: "tc(X, Y)", Limit: 1000}, &q)
		if err == nil && code == 200 && len(q.Tuples) == len(want) {
			got := make([]string, 0, len(q.Tuples))
			for _, tu := range q.Tuples {
				got = append(got, strings.Join(tu, ","))
			}
			if answersEqual(got, want) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s to serve %d tc tuples", url, len(want))
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func answersEqual(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	set := make(map[string]bool, len(got))
	for _, g := range got {
		set[g] = true
	}
	for _, w := range want {
		if !set[w] {
			return false
		}
	}
	return true
}

// TestFollowerPromotionAfterLeaderSIGKILL is the failover e2e over
// real processes: a leader dlogd takes writes, a -follow dlogd
// replicates them into its own data directory, the leader dies by
// SIGKILL, the replica keeps serving reads, and restarting the
// replica's directory WITHOUT -follow promotes it to a leader that
// holds every replicated answer and accepts new writes.
func TestFollowerPromotionAfterLeaderSIGKILL(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "tc.dl")
	if err := os.WriteFile(prog, []byte(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		edge(a, b).
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	leaderData := filepath.Join(dir, "leader")
	followerData := filepath.Join(dir, "follower")

	leaderURL, leaderCmd := spawnDaemon(t, "-data-dir", leaderData, "-program", prog, "-checkpoint-every", "2")
	for _, f := range []string{"edge(b, c).", "edge(c, d)."} {
		var upd serve.UpdateResponse
		if code := post(t, leaderURL+"/v1/sessions/default/changes", addFacts(f), &upd); code != 200 {
			t.Fatalf("insert %q = %d", f, code)
		}
	}
	want := tcAnswers(t, leaderURL)
	if len(want) != 6 { // closure of the 3-edge chain
		t.Fatalf("leader tc has %d tuples, want 6: %v", len(want), want)
	}

	followerURL, followerCmd := spawnDaemon(t,
		"-data-dir", followerData, "-follow", leaderURL, "-replication-heartbeat", "25ms")
	waitTC(t, followerURL, want)

	// The replica is read-only and names its leader.
	var er serve.ErrorResponse
	code, err := postQuiet(followerURL+"/v1/sessions/default/changes", addFacts("edge(x, y)."), &er)
	if err != nil || code != http.StatusForbidden || er.Error.Code != serve.CodeNotLeader {
		t.Fatalf("replica write = %d %q (%v), want 403 not_leader", code, er.Error.Code, err)
	}
	if er.Error.Leader != leaderURL {
		t.Fatalf("not_leader names %q, want %q", er.Error.Leader, leaderURL)
	}

	// Kill the leader. The replica must keep serving every replicated
	// answer.
	sigkill(t, leaderCmd)
	got := tcAnswers(t, followerURL)
	if !answersEqual(got, want) {
		t.Fatalf("replica answers after leader SIGKILL differ\n got: %v\nwant: %v", got, want)
	}

	// Promote: stop the replica process and restart its data directory
	// without -follow. Recovery replays the locally persisted WAL — the
	// promoted daemon is a leader with the replicated state.
	sigkill(t, followerCmd)
	promotedURL, sig, done := startDaemon(t, "-data-dir", followerData, "-checkpoint-every", "2")
	defer func() {
		sig <- syscall.SIGTERM
		if err := <-done; err != nil {
			t.Fatalf("promoted daemon exit: %v", err)
		}
	}()

	got = tcAnswers(t, promotedURL)
	if !answersEqual(got, want) {
		t.Fatalf("promoted answers differ\n got: %v\nwant: %v", got, want)
	}

	// A promoted daemon is a leader: writes are accepted and durable.
	var upd serve.UpdateResponse
	if code := post(t, promotedURL+"/v1/sessions/default/changes", addFacts("edge(d, e)."), &upd); code != 200 {
		t.Fatalf("post-promotion insert = %d", code)
	}
	if got := tcAnswers(t, promotedURL); len(got) != 10 {
		t.Fatalf("post-promotion closure has %d tuples, want 10", len(got))
	}
}
