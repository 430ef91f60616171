package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// groupTestServer builds a server whose committer parks at the start of
// every commit until release is closed, reporting each batch size on
// entered — tests use it to pin batch boundaries deterministically.
func groupTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan int, chan struct{}) {
	t.Helper()
	srv, ts := startTestServer(t, cfg)
	entered := make(chan int, 128)
	release := make(chan struct{})
	srv.testBeforeCommit = func(n int) {
		entered <- n
		<-release
	}
	return srv, ts, entered, release
}

// awaitQueued blocks until the session's commit queue holds want
// requests (on top of whatever the parked committer already collected).
func awaitQueued(t *testing.T, sess *session, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(sess.queue) < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d writes queued after 10s", len(sess.queue), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// groupCase is one program, its concurrent writers, and the goals whose
// answers the differential compares.
type groupCase struct {
	name  string
	plan  string
	rules string // no facts: the from-scratch reference re-states the EDB
	facts string
	ops   []ChangesRequest
	edb   []string // goals enumerating the final EDB
	goals []string
}

// TestGroupCommitDifferential fires N concurrent mixed inserts and
// deletes at a group-committing server and checks the resulting tuples
// are identical to the same operations applied sequentially to a second
// server and to a from-scratch load of the final EDB on a third — with
// and without plan selection (no constraint applies to tc, so the
// planner's semantic candidates come up empty), and under a program
// whose unreach stratum negates the closure the writers reshape (every
// group is one sweep, never a recompute). It also asserts the tentpole criterion:
// the batch counters show strictly fewer maintenance fixpoints than
// write requests. Run with -race.
func TestGroupCommitDifferential(t *testing.T) {
	const tcRules = `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`
	const chain = `
		edge(root, d0).
		edge(d0, d1). edge(d1, d2). edge(d2, d3). edge(d3, d4).
		edge(d4, d5). edge(d5, d6). edge(d6, d7).
	`
	// Half the writers delete chain edges, half insert fresh ones that
	// reattach below root, so batches mix both kinds and the closure
	// changes shape.
	var ops []ChangesRequest
	for i := 0; i < 8; i++ {
		ops = append(ops, delFacts(fmt.Sprintf("edge(d%d, d%d).", i, i+1)))
	}
	for i := 0; i < 8; i++ {
		ops = append(ops, addFacts(fmt.Sprintf("edge(root, e%d). edge(e%d, e%d).", i, i, (i+1)%8)))
	}
	// Under negation node/1 moves too: unreach loses and gains whole
	// rows and columns while tc changes beneath it.
	negOps := append([]ChangesRequest(nil), ops...)
	for i := 0; i < 4; i++ {
		negOps = append(negOps,
			delFacts(fmt.Sprintf("node(d%d).", 2*i)),
			addFacts(fmt.Sprintf("node(e%d).", i)))
	}
	tcGoals := []string{"tc(X, Y)", "tc(root, Y)"}
	for _, tc := range []groupCase{
		{name: "seq", rules: tcRules, facts: chain, ops: ops, edb: []string{"edge(X, Y)"}, goals: tcGoals},
		{name: "semopt/seq", plan: "auto", rules: tcRules, facts: chain, ops: ops, edb: []string{"edge(X, Y)"}, goals: tcGoals},
		{
			name:  "negation/seq",
			rules: tcRules + "unreach(X, Y) :- node(X), node(Y), not tc(X, Y).\n",
			facts: chain + "node(root). node(d0). node(d1). node(d2). node(d3). node(d4). node(d5). node(d6). node(d7).\n",
			ops:   negOps,
			edb:   []string{"edge(X, Y)", "node(X)"},
			goals: append([]string{"unreach(X, Y)", "unreach(root, Y)"}, tcGoals...),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runGroupDifferential(t, tc)
		})
	}
}

func runGroupDifferential(t *testing.T, c groupCase) {
	program := c.rules + c.facts
	n := len(c.ops)

	srv, ts, entered, release := groupTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: program, Plan: c.plan}, nil)
	sess := srv.session(testSession)

	errs := make(chan error, n)
	var wg sync.WaitGroup
	for _, o := range c.ops {
		wg.Add(1)
		go func(o ChangesRequest) {
			defer wg.Done()
			var resp UpdateResponse
			if code := call(t, ts, "POST", changesPath, o, &resp); code != http.StatusOK {
				errs <- fmt.Errorf("changes %+v = %d", o, code)
			}
		}(o)
	}
	// The committer is parked inside the first commit; once every other
	// writer is queued behind it, release — the remainder commits as one
	// group.
	first := <-entered
	awaitQueued(t, sess, n-first)
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Sequential reference: same operations, one at a time.
	ref := newTestServer(t, Config{})
	mustOK(t, ref, "POST", loadPath, LoadRequest{Program: program, Plan: c.plan}, nil)
	for _, o := range c.ops {
		mustOK(t, ref, "POST", changesPath, o, nil)
	}
	// From-scratch reference: the rules over the final EDB, stated as
	// program facts, evaluated by one load.
	final := c.rules
	for _, goal := range c.edb {
		pred := goal[:strings.IndexByte(goal, '(')]
		for _, row := range queryTuples(t, ts, goal) {
			final += fmt.Sprintf("%s(%s).\n", pred, strings.Join(row, ", "))
		}
	}
	scratch := newTestServer(t, Config{})
	mustOK(t, scratch, "POST", loadPath, LoadRequest{Program: final, Plan: c.plan}, nil)
	for _, goal := range append(c.goals, c.edb...) {
		got := renderSorted(queryTuples(t, ts, goal))
		if want := renderSorted(queryTuples(t, ref, goal)); got != want {
			t.Fatalf("%s: group-committed state diverged from sequential\ngot:  %s\nwant: %s", goal, got, want)
		}
		if want := renderSorted(queryTuples(t, scratch, goal)); got != want {
			t.Fatalf("%s: group-committed state diverged from from-scratch\ngot:  %s\nwant: %s", goal, got, want)
		}
	}

	// Tentpole criterion: N writes, strictly fewer maintenance passes,
	// every one of them the sweep.
	var st SessionStats
	mustOK(t, ts, "GET", "/v1/sessions/default/stats", nil, &st)
	if st.Recomputes != 0 {
		t.Fatalf("Recomputes = %d, want 0", st.Recomputes)
	}
	if st.Incremental >= int64(n) {
		t.Fatalf("ran %d maintenance passes for %d writes; batching did not amortize", st.Incremental, n)
	}
	if st.BatchedWrites != int64(n) {
		t.Fatalf("BatchedWrites = %d, want %d", st.BatchedWrites, n)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("MaxBatch = %d, want a real group", st.MaxBatch)
	}
}

// mkReq builds a validated one-sided commitReq the way commitChanges
// would.
func mkReq(t *testing.T, sess *session, isInsert bool, src string) *commitReq {
	t.Helper()
	facts, err := parseFactsSrc(src)
	if err != nil {
		t.Fatal(err)
	}
	req := &commitReq{
		ctx:  context.Background(),
		done: make(chan commitResult, 1),
	}
	if isInsert {
		req.adds = facts
	} else {
		req.dels = facts
	}
	return req
}

// TestCoalesceNetZero: an insert and a delete of the same absent tuple
// in one group cancel out — both requests succeed with sequential
// Applied counts, no maintenance pass runs, and the database is
// untouched.
func TestCoalesceNetZero(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	if _, err := srv.LoadSession(context.Background(), testSession, LoadRequest{Program: tcSrc}); err != nil {
		t.Fatal(err)
	}
	sess := srv.session(testSession)

	ins := mkReq(t, sess, true, "edge(x, y).")
	del := mkReq(t, sess, false, "edge(x, y).")
	srv.commitBatch(sess, []*commitReq{ins, del})

	insRes, delRes := <-ins.done, <-del.done
	if insRes.err != nil || delRes.err != nil {
		t.Fatalf("net-zero group failed: %v / %v", insRes.err, delRes.err)
	}
	// Arrival-order semantics: the insert applied (tuple absent), the
	// delete applied (tuple just inserted) — exactly as sequentially.
	if insRes.resp.Applied != 1 || insRes.resp.Mode != "noop" {
		t.Fatalf("insert = %+v, want 1 applied noop", insRes.resp)
	}
	if delRes.resp.Applied != 1 || delRes.resp.Mode != "noop" || delRes.resp.Batched != 2 {
		t.Fatalf("delete = %+v, want 1 applied noop batched=2", delRes.resp)
	}
	if sess.incremental.Load() != 0 || sess.recomputes.Load() != 0 {
		t.Fatalf("net-zero group ran a maintenance pass (%d/%d)",
			sess.incremental.Load(), sess.recomputes.Load())
	}
	if rel := sess.db.Relation("edge"); rel.Len() != 2 {
		t.Fatalf("edge has %d tuples, want the original 2", rel.Len())
	}
}

// TestCoalesceDedupAcrossRequests: two inserts of the same tuple in one
// group apply once; the later request sees it as already present.
func TestCoalesceDedupAcrossRequests(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	if _, err := srv.LoadSession(context.Background(), testSession, LoadRequest{Program: tcSrc}); err != nil {
		t.Fatal(err)
	}
	sess := srv.session(testSession)

	r1 := mkReq(t, sess, true, "edge(c, d).")
	r2 := mkReq(t, sess, true, "edge(c, d). edge(d, e).")
	srv.commitBatch(sess, []*commitReq{r1, r2})

	res1, res2 := <-r1.done, <-r2.done
	if res1.resp.Applied != 1 || res1.resp.Ignored != 0 {
		t.Fatalf("first insert = %+v, want 1 applied", res1.resp)
	}
	if res2.resp.Applied != 1 || res2.resp.Ignored != 1 {
		t.Fatalf("second insert = %+v, want 1 applied 1 ignored", res2.resp)
	}
	if res1.resp.Mode != "incremental" || res1.resp.Batched != 2 {
		t.Fatalf("group = %+v, want one incremental pass over the batch", res1.resp)
	}
	if got := sess.incremental.Load(); got != 1 {
		t.Fatalf("incremental passes = %d, want 1 for the whole group", got)
	}
	// tc must now cover the chain a b c d e: 10 pairs.
	if n := sess.db.Count("tc"); n != 10 {
		t.Fatalf("tc has %d tuples, want 10", n)
	}
}

// TestBatchPoisonIsolation: one malformed request in a group (arity
// clash against a batchmate's new predicate) is refused alone; the rest
// of the group commits.
func TestBatchPoisonIsolation(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	if _, err := srv.LoadSession(context.Background(), testSession, LoadRequest{Program: tcSrc}); err != nil {
		t.Fatal(err)
	}
	sess := srv.session(testSession)

	good := mkReq(t, sess, true, "p(a).")
	bad := mkReq(t, sess, true, "p(b, c).") // conflicts with the batchmate's arity
	also := mkReq(t, sess, true, "edge(c, d).")
	srv.commitBatch(sess, []*commitReq{good, bad, also})

	if res := <-good.done; res.err != nil || res.resp.Applied != 1 {
		t.Fatalf("good request = %+v / %v", res.resp, res.err)
	}
	if res := <-bad.done; res.status != http.StatusBadRequest || res.code != CodeBadRequest {
		t.Fatalf("poisoned request = %d/%s, want 400 bad_request", res.status, res.code)
	}
	if res := <-also.done; res.err != nil || res.resp.Applied != 1 {
		t.Fatalf("bystander request = %+v / %v", res.resp, res.err)
	}
	if n := sess.db.Count("tc"); n != 6 { // chain a b c d
		t.Fatalf("tc has %d tuples, want 6", n)
	}
	if sess.db.Relation("p").Len() != 1 {
		t.Fatal("p should hold exactly the good request's tuple")
	}
}

// TestBatchCancelledRequest: a request whose client went away before
// commit gets 499 and is excluded; its batchmates commit normally.
func TestBatchCancelledRequest(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	if _, err := srv.LoadSession(context.Background(), testSession, LoadRequest{Program: tcSrc}); err != nil {
		t.Fatal(err)
	}
	sess := srv.session(testSession)

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	dead := mkReq(t, sess, true, "edge(c, d).")
	dead.ctx = gone
	live := mkReq(t, sess, true, "edge(c, e).")
	srv.commitBatch(sess, []*commitReq{dead, live})

	if res := <-dead.done; res.status != statusClientClosedRequest || res.code != CodeCancelled {
		t.Fatalf("cancelled request = %d/%s, want 499 cancelled", res.status, res.code)
	}
	if res := <-live.done; res.err != nil || res.resp.Applied != 1 || res.resp.Batched != 1 {
		t.Fatalf("live request = %+v / %v", res.resp, res.err)
	}
	if sess.db.Relation("edge").Len() != 3 {
		t.Fatal("only the live request's tuple should land")
	}
}

// TestAckAfterPublish: the committer publishes a commit's snapshot
// before it answers any of the commit's writers, solo or grouped —
// otherwise a client that reads right after its reply can miss its own
// acknowledged write.
func TestAckAfterPublish(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	if _, err := srv.LoadSession(context.Background(), testSession, LoadRequest{Program: tcSrc}); err != nil {
		t.Fatal(err)
	}
	sess := srv.session(testSession)

	for _, facts := range [][]string{{"edge(c, d)."}, {"edge(d, e).", "edge(e, f)."}} {
		var reqs []*commitReq
		for _, f := range facts {
			reqs = append(reqs, mkReq(t, sess, true, f))
		}
		before := sess.snap.Load().db
		reached := false
		srv.testBeforePublish = func() {
			reached = true
			for _, r := range reqs {
				if len(r.done) != 0 {
					t.Errorf("group of %d: a writer was answered before its commit was published", len(reqs))
				}
			}
			if sess.snap.Load().db != before {
				t.Errorf("group of %d: hook ran after the publish", len(reqs))
			}
		}
		srv.commitBatch(sess, reqs)
		if !reached {
			t.Fatalf("group of %d never reached the publish hook", len(reqs))
		}
		for _, r := range reqs {
			if res := <-r.done; res.err != nil || res.resp.Applied != 1 {
				t.Fatalf("group of %d: %+v / %v", len(reqs), res.resp, res.err)
			}
		}
		// What the answered writers can now read holds their writes.
		if got, want := sess.snap.Load().db.Count("edge"), before.Count("edge")+len(reqs); got != want {
			t.Fatalf("group of %d: published snapshot has %d edges, want %d", len(reqs), got, want)
		}
	}
}

// TestReplySeqIsSnapshotSeq: a reply's seq names the state the reply
// was served from. A query landing after a commit has advanced the
// session's sequence but before it publishes must answer the old state
// under the old seq — never the new seq over the old rows.
func TestReplySeqIsSnapshotSeq(t *testing.T) {
	srv, ts := startTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)
	sess := srv.session(testSession)

	// The commit runs on this goroutine, so the hook may use mustOK.
	var before, during, after QueryResponse
	goal := QueryRequest{Goal: "tc(X, Y)"}
	mustOK(t, ts, "POST", queryPath, goal, &before)
	srv.testBeforePublish = func() { mustOK(t, ts, "POST", queryPath, goal, &during) }
	srv.commitBatch(sess, []*commitReq{mkReq(t, sess, true, "edge(c, d).")})
	mustOK(t, ts, "POST", queryPath, goal, &after)

	if during.Seq != before.Seq || during.Total != before.Total {
		t.Errorf("read inside the commit = seq %d total %d, want the published state: seq %d total %d",
			during.Seq, during.Total, before.Seq, before.Total)
	}
	if after.Seq != before.Seq+1 || after.Total != before.Total+3 {
		t.Errorf("read after the commit = seq %d total %d, want seq %d total %d",
			after.Seq, after.Total, before.Seq+1, before.Total+3)
	}
}

// TestWriteQueueFull: with a one-slot queue and a parked committer, an
// extra write is refused with 503, a depth-derived Retry-After, and a
// write_rejected count.
func TestWriteQueueFull(t *testing.T) {
	srv, ts, entered, release := groupTestServer(t, Config{MaxPendingWrites: 1})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)
	sess := srv.session(testSession)

	var wg sync.WaitGroup
	post := func(facts string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call(t, ts, "POST", changesPath, addFacts(facts), nil)
		}()
	}
	post("edge(c, d).") // dequeued by the committer, parked in the hook
	<-entered
	post("edge(d, e).") // fills the single queue slot
	awaitQueued(t, sess, 1)

	req, _ := http.NewRequest("POST", ts.URL+changesPath, jsonBody(t, addFacts("edge(e, f).")))
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write to full queue = %d, want 503", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	close(release)
	wg.Wait()

	var st ServerStatsResponse
	mustOK(t, ts, "GET", "/v1/stats", nil, &st)
	if st.WriteRejected == 0 {
		t.Fatal("/v1/stats should count the rejected write")
	}
	if got := queryTuples(t, ts, "edge(c, Y)"); len(got) != 1 {
		t.Fatalf("queued writes should land after release, edge(c, Y) = %v", got)
	}
}
