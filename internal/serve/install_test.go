package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/durable"
)

// TestEveryInstallKeepsCostModelExact: a planned session's cost model
// — what its engine and adaptive re-plan read — answers a recount of
// its EDB after every way a state reaches it: a load, the rebuild that
// heals a dirty session, an adopted re-plan, and a follower's
// bootstrap and live apply. (Recovery is covered by
// TestCostModelIncrementalProperty, a rank-less checkpoint by
// TestRanklessCheckpointRecoversAndBootstraps.)
func TestEveryInstallKeepsCostModelExact(t *testing.T) {
	const chains, depth = 4, 25
	c := startCluster(t, Config{ReplanEvery: 2}, Config{})
	mustOK(t, c.leaderTS, "POST", "/v1/sessions/a", LoadRequest{Program: routesProgram(chains, depth), Plan: "auto"}, nil)
	sess := c.leader.session("a")
	checkCostModel(t, sess, "after load")

	sess.mu.Lock()
	sess.dirty = true
	sess.mu.Unlock()
	var upd UpdateResponse
	mustOK(t, c.leaderTS, "POST", "/v1/sessions/a/changes", ChangesRequest{Adds: []string{"open(x0)"}}, &upd)
	if upd.Mode != "recompute" {
		t.Fatalf("commit on a dirty session: mode %q, want recompute", upd.Mode)
	}
	checkCostModel(t, sess, "after the dirty-session rebuild")

	waitConverged(t, c.leader, c.follower, "a")
	checkCostModel(t, c.follower.session("a"), "on the bootstrapped follower")

	for i := 0; sess.replans.Load() == 0; i++ {
		if i == 12 {
			t.Fatal("twelve spur batches adopted no new plan")
		}
		mustOK(t, c.leaderTS, "POST", "/v1/sessions/a/changes", ChangesRequest{Adds: spurFacts(chains, depth, i)}, nil)
		checkCostModel(t, sess, fmt.Sprintf("after spur batch %d", i))
	}
	waitConverged(t, c.leader, c.follower, "a")
	checkCostModel(t, c.follower.session("a"), "on the follower after live applies")
}

// TestFollowerRebootstrapEndsFeeds: a leader reload replaces the state
// wholesale, so a follower's change feed must end at the re-bootstrap
// as the leader's own feeds end at the load — not carry on across a
// sequence number that was no delta. The stale cursor is then refused
// as truncated, naming the bootstrap checkpoint.
func TestFollowerRebootstrapEndsFeeds(t *testing.T) {
	c := startCluster(t, Config{}, Config{})
	mustOK(t, c.leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	insertFacts(t, c.leaderTS, "m", "edge(n1, n2).")
	waitConverged(t, c.leader, c.follower, "m")
	head := c.follower.session("m").snap.Load().seq

	feed := openSSE(t, c.followerTS, fmt.Sprintf("/v1/sessions/m/subscribe?from=%d", head))
	waitFor(t, "the follower subscriber", func() bool { return c.follower.subscribers.Load() == 1 })
	mustOK(t, c.leaderTS, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc + "edge(n5, n6).\n"}, nil)
	insertFacts(t, c.leaderTS, "m", "edge(n2, n3).")
	waitConverged(t, c.leader, c.follower, "m")
	if frame, ok := feed.next(t); ok {
		t.Fatalf("the follower feed carried on across the re-bootstrap with frame %+v", frame)
	}

	res, err := http.Get(c.followerTS.URL + fmt.Sprintf("/v1/sessions/m/subscribe?from=%d&wait=0", head))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var e ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusGone || e.Error.Code != CodeCursorTruncated || e.Error.OldestSeq != head+1 {
		t.Fatalf("resume from %d = %d %+v, want 410 %s naming the bootstrap seq %d",
			head, res.StatusCode, e.Error, CodeCursorTruncated, head+1)
	}
}

// TestRanklessCheckpointRecoversAndBootstraps: a checkpoint written
// without ranks (HasRanks false, no 'K' frames) is restored by
// evaluating its EDB, on recovery and on a follower's bootstrap alike.
// Both land on the from-scratch fixpoint with every derived tuple
// ranked, a planned session with an exact cost model, and commit
// incrementally from there.
func TestRanklessCheckpointRecoversAndBootstraps(t *testing.T) {
	const name = "r"
	dir := t.TempDir()
	func() {
		srv, ts := durableServer(t, dir, Config{})
		defer srv.Close()
		mustOK(t, ts, "POST", "/v1/sessions/"+name, LoadRequest{Program: routesProgram(2, 6), Plan: "auto"}, nil)
		mustOK(t, ts, "POST", "/v1/sessions/"+name+"/changes", ChangesRequest{Adds: spurFacts(2, 6, 0)}, nil)
		mustOK(t, ts, "POST", "/v1/sessions/"+name+"/checkpoint", nil, nil)
	}()
	stripRanks(t, filepath.Join(dir, name))

	leader, leaderTS := durableServer(t, dir, Config{})
	reports, err := leader.RecoverSessions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Err != "" {
		t.Fatalf("reports = %+v, want one clean recovery", reports)
	}
	follower, _, _ := startFollower(t, t.TempDir(), leaderTS.URL, Config{})
	waitConverged(t, leader, follower, name)

	for _, srv := range []*Server{leader, follower} {
		sess := srv.session(name)
		if db := sess.snap.Load().db; !db.Equal(fromScratch(t, sess)) {
			t.Fatalf("restored session differs from from-scratch evaluation:\n%s", db)
		}
		if ranks, ranked := idbRanks(sess); ranked == 0 || ranked != len(ranks) {
			t.Fatalf("%d of %d derived tuples ranked", ranked, len(ranks))
		}
		checkCostModel(t, sess, "restored from a rank-less checkpoint")
	}
	var upd UpdateResponse
	mustOK(t, leaderTS, "POST", "/v1/sessions/"+name+"/changes", ChangesRequest{
		Adds: spurFacts(2, 6, 1), Dels: []string{"hop(c0_2, c0_3, paved)"},
	}, &upd)
	if upd.Mode != "incremental" {
		t.Fatalf("commit after a rank-less restore: mode %q, want incremental", upd.Mode)
	}
	waitConverged(t, leader, follower, name)
	want, _ := idbRanks(leader.session(name))
	if got, _ := idbRanks(follower.session(name)); !reflect.DeepEqual(got, want) {
		t.Fatalf("follower ranks differ from the leader's after a live apply:\n got %v\nwant %v", got, want)
	}
}

// stripRanks rewrites every checkpoint in a session directory as one
// written without ranks.
func stripRanks(t *testing.T, dir string) {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	stripped := 0
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), durable.SnapSuffix) {
			continue
		}
		path := filepath.Join(dir, f.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := durable.DecodeSnapshot(b)
		if err != nil {
			t.Fatal(err)
		}
		snap.Meta.HasRanks = false
		for _, p := range snap.DB.Preds() {
			snap.DB.Replace(snap.DB.Relation(p).Clone()) // a clone carries no ranks
		}
		if b, err = durable.EncodeSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		stripped++
	}
	if stripped == 0 {
		t.Fatal("no checkpoint to strip")
	}
}

// TestLoadCheckpointIsObserved: the checkpoint a durable load writes
// goes through the one checkpoint writer, so durable.checkpoint_ns
// counts it like any other.
func TestLoadCheckpointIsObserved(t *testing.T) {
	srv, ts := durableServer(t, t.TempDir(), Config{})
	mustOK(t, ts, "POST", "/v1/sessions/m", LoadRequest{Program: replSrc}, nil)
	if got := metricValue(t, scrapeMetrics(t, ts), "durable_checkpoint_ns_count"); got != "1" {
		t.Fatalf("durable_checkpoint_ns_count = %s after one durable load, want 1", got)
	}
	if st := srv.session("m").stats(); st.Durability == nil || st.Durability.Checkpoints != 1 {
		t.Fatalf("durability stats = %+v, want one checkpoint", st.Durability)
	}
}
