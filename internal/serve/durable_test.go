package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// The crash-matrix workload: a transitive closure that grows, shrinks
// and closes a cycle, so recovery exercises insert replay, delete
// replay and checkpoint GC. Steps are deterministic — the matrix
// depends on every run issuing the identical filesystem op sequence.
const crashSrc = `
	tc(X, Y) :- edge(X, Y).
	tc(X, Y) :- tc(X, Z), edge(Z, Y).
	edge(n0, n1).
`

var crashWrites = []ChangesRequest{
	addFacts("edge(n1, n2)."),
	addFacts("edge(n2, n3)."),
	delFacts("edge(n1, n2)."),
	addFacts("edge(n2, n4). edge(n4, n5)."),
	addFacts("edge(n5, n0)."),
	delFacts("edge(n0, n1)."),
	addFacts("edge(n3, n6)."),
	addFacts("edge(n6, n7)."),
}

func durableCfg(fs durable.FS, fsync bool, every int) Config {
	return Config{Durability: &durable.Options{
		Dir:             "data",
		Fsync:           fsync,
		CheckpointEvery: every,
		FS:              fs,
	}}
}

// post issues one JSON request and tolerates any status — after the
// injected crash point every write fails, and that is the point.
func post(t *testing.T, ts *httptest.Server, method, path string, req any) int {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	return res.StatusCode
}

// runCrashWorkload drives the deterministic workload against a server
// and returns the index of the first write that failed (len(crashWrites)
// if all succeeded), or -1 when the load itself failed. Every write
// before that index was acknowledged against the same state as the
// reference run, so the crashed server's last acknowledged effectful
// state is states[first]. Writes AFTER the first failure may still be
// acknowledged when they are no-ops against the rolled-back memory (the
// injected crash latches the store broken, so no later write that
// changes state can be acked) — those acks are honest ("applied 0") and
// move nothing.
func runCrashWorkload(t *testing.T, ts *httptest.Server) (first int) {
	t.Helper()
	if post(t, ts, "POST", "/v1/sessions/m", LoadRequest{Program: crashSrc}) != http.StatusOK {
		return -1
	}
	first = len(crashWrites)
	for i, w := range crashWrites {
		code := post(t, ts, "POST", "/v1/sessions/m/changes", w)
		if code != http.StatusOK && i < first {
			first = i
		}
	}
	return first
}

// referenceStates runs the workload on a purely in-memory server and
// captures the published database after the load and after each write:
// states[j] is the correct database once exactly j writes have applied.
func referenceStates(t *testing.T) []*storage.Database {
	t.Helper()
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var states []*storage.Database
	snap := func() {
		db := srv.session("m").snap.Load().db
		if db == nil {
			t.Fatal("reference session has no snapshot")
		}
		states = append(states, db)
	}
	mustOK(t, ts, "POST", "/v1/sessions/m", LoadRequest{Program: crashSrc}, nil)
	snap()
	for _, w := range crashWrites {
		if code := post(t, ts, "POST", "/v1/sessions/m/changes", w); code != http.StatusOK {
			t.Fatalf("reference write %+v = %d, want 200", w, code)
		}
		snap()
	}
	return states
}

// recoverOnto builds a fresh server over fs and runs crash recovery,
// failing the test if any recovered session reports an error.
func recoverOnto(t *testing.T, fs *testutil.FaultFS, fsync bool, every int) (*Server, []RecoveryReport) {
	t.Helper()
	srv := New(durableCfg(fs, fsync, every))
	t.Cleanup(srv.Close)
	reports, err := srv.RecoverSessions(context.Background())
	if err != nil {
		t.Fatalf("RecoverSessions: %v", err)
	}
	for _, rep := range reports {
		if rep.Err != "" {
			t.Fatalf("session %s failed to recover: %s", rep.Session, rep.Err)
		}
	}
	return srv, reports
}

// matchState finds which reference state the recovered database equals,
// or -1.
func matchState(states []*storage.Database, db *storage.Database) int {
	for j, ref := range states {
		if db.Equal(ref) {
			return j
		}
	}
	return -1
}

// TestCrashMatrix is the durability proof: for every mutating
// filesystem operation the workload performs, crash exactly there
// (under each keep policy for unsynced data, and under keep-synced,
// which also undoes directory entries and directories no SyncDir made
// durable), reboot onto the surviving files, and require the recovered
// database to be tuple-identical to a legal reference state.
//
// An acknowledged load survives: a crash at any op after it finds the
// session. With fsync on, "legal" is exact: every write acknowledged
// before the first failure must survive (acked => durable), and at most
// the single first-failed write may additionally appear — it may have
// been logged before its acknowledgement was interrupted, the classic
// ambiguous-outcome window.
func TestCrashMatrix(t *testing.T) {
	const every = 3 // force automatic checkpoints (and WAL GC) mid-workload
	states := referenceStates(t)

	// Fault-free probe run: counts the op universe and sanity-checks
	// that clean recovery reproduces the final state.
	probe := testutil.NewFaultFS()
	func() {
		srv := New(durableCfg(probe, true, every))
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if first := runCrashWorkload(t, ts); first != len(crashWrites) {
			t.Fatalf("fault-free run failed at write %d", first)
		}
	}()
	total := probe.Ops()
	if total < 20 {
		t.Fatalf("workload performed only %d fs ops; matrix would prove little", total)
	}
	srv, _ := recoverOnto(t, probe.Recovered(), true, every)
	if got := matchState(states, srv.session("m").snap.Load().db); got != len(crashWrites) {
		t.Fatalf("fault-free recovery = state %d, want %d", got, len(crashWrites))
	}

	policies := []struct {
		name string
		keep testutil.KeepPolicy
	}{
		{"keep-all", testutil.KeepAll},
		{"keep-half", testutil.KeepHalf},
		{"keep-none", testutil.KeepNone},
		{"keep-synced", testutil.KeepSynced},
	}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.name, func(t *testing.T) {
			for n := 0; n < total; n++ {
				fs := testutil.NewFaultFS()
				fs.CrashAt(n, pol.keep)
				var first int
				func() {
					srv := New(durableCfg(fs, true, every))
					defer srv.Close()
					ts := httptest.NewServer(srv.Handler())
					defer ts.Close()
					first = runCrashWorkload(t, ts)
				}()
				if !fs.Crashed() {
					t.Fatalf("op %d: crash point never reached (workload ran %d ops)", n, fs.Ops())
				}

				srv, _ := recoverOnto(t, fs.Recovered(), true, every)
				sess := srv.session("m")
				if sess == nil {
					// The initial load's checkpoint never landed: neither
					// the load nor any write can have been acknowledged.
					checkSessionLost(t, fmt.Sprintf("op %d", n), first)
					continue
				}
				hi := first + 1
				if hi > len(crashWrites) {
					hi = len(crashWrites)
				}
				got := matchState(states, sess.snap.Load().db)
				if got < max(first, 0) || got > hi {
					t.Fatalf("op %d (%s): recovered to state %d, want %d..%d",
						n, pol.name, got, first, hi)
				}
			}
		})
	}
}

// checkSessionLost fails when the crash named by what lost the session
// although the workload's load was acknowledged, first being
// runCrashWorkload's result.
func checkSessionLost(t *testing.T, what string, first int) {
	t.Helper()
	switch {
	case first > 0:
		t.Fatalf("%s: session lost but write %d had been acked", what, first-1)
	case first == 0:
		t.Fatalf("%s: session lost but its load had been acked", what)
	}
}

// TestCrashMatrixNoFsync covers -fsync=false: acknowledged writes may
// be lost, but recovery must still land on SOME prefix of the workload
// — never a torn or reordered state — and never run ahead of the
// single ambiguous in-flight write.
func TestCrashMatrixNoFsync(t *testing.T) {
	const every = 3
	states := referenceStates(t)

	probe := testutil.NewFaultFS()
	func() {
		srv := New(durableCfg(probe, false, every))
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if first := runCrashWorkload(t, ts); first != len(crashWrites) {
			t.Fatalf("fault-free run failed at write %d", first)
		}
	}()
	total := probe.Ops()

	for _, keep := range []testutil.KeepPolicy{testutil.KeepHalf, testutil.KeepNone, testutil.KeepSynced} {
		for n := 0; n < total; n++ {
			fs := testutil.NewFaultFS()
			fs.CrashAt(n, keep)
			var first int
			func() {
				srv := New(durableCfg(fs, false, every))
				defer srv.Close()
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				first = runCrashWorkload(t, ts)
			}()

			srv, _ := recoverOnto(t, fs.Recovered(), false, every)
			sess := srv.session("m")
			if sess == nil {
				checkSessionLost(t, fmt.Sprintf("keep=%d op %d", keep, n), first)
				continue
			}
			hi := first + 1
			if hi > len(crashWrites) {
				hi = len(crashWrites)
			}
			got := matchState(states, sess.snap.Load().db)
			if got < 0 || got > hi {
				t.Fatalf("keep=%d op %d: recovered to state %d, want a prefix <= %d",
					keep, n, got, hi)
			}
		}
	}
}

// TestRecoveryReplaysIncrementally pins the acceptance criterion that
// an intact WAL tail is replayed through incremental maintenance, not
// recomputed: the recovery report counts every batch as incremental,
// and the engine work replay performed is strictly less than one full
// fixpoint of the same database.
func TestRecoveryReplaysIncrementally(t *testing.T) {
	// A long chain makes the full fixpoint expensive relative to the
	// three single-edge deltas the WAL holds.
	var sb strings.Builder
	sb.WriteString("tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\n")
	for i := 0; i < 30; i++ {
		sb.WriteString("edge(v")
		sb.WriteString(string(rune('a' + i/10)))
		sb.WriteString(string(rune('0' + i%10)))
		sb.WriteString(", v")
		sb.WriteString(string(rune('a' + (i+1)/10)))
		sb.WriteString(string(rune('0' + (i+1)%10)))
		sb.WriteString(").\n")
	}

	fs := testutil.NewFaultFS()
	func() {
		srv := New(durableCfg(fs, true, 1000)) // no auto checkpoint: the WAL keeps all batches
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		mustOK(t, ts, "POST", "/v1/sessions/m", LoadRequest{Program: sb.String()}, nil)
		for _, f := range []string{"edge(vd0, vd1).", "edge(vd1, vd2).", "edge(vd2, vd3)."} {
			if code := post(t, ts, "POST", "/v1/sessions/m/changes", addFacts(f)); code != http.StatusOK {
				t.Fatalf("insert %q = %d", f, code)
			}
		}
	}()

	srv, reports := recoverOnto(t, fs.Recovered(), true, 1000)
	if len(reports) != 1 {
		t.Fatalf("reports = %+v, want exactly one", reports)
	}
	rep := reports[0]
	if rep.ReplayedBatches != 3 || rep.ReplayedIncr != 3 || rep.ReplayedRecomp != 0 {
		t.Fatalf("replay = %d batches (%d incremental, %d recomputed), want 3/3/0",
			rep.ReplayedBatches, rep.ReplayedIncr, rep.ReplayedRecomp)
	}
	sess := srv.session("m")
	st := sess.stats()
	if st.Durability == nil || st.Durability.ReplayIncremental != 3 {
		t.Fatalf("durability stats = %+v, want replay_incremental 3", st.Durability)
	}
	replayDerived := st.Eval.Derived
	if replayDerived == 0 {
		t.Fatal("replay derived no tuples; counters are not recording replay work")
	}

	// The counter evidence: a from-scratch fixpoint over the same
	// database enumerates strictly more head tuples than the whole
	// replay did. (Derived, not RuleFirings: the Z-set sweep runs many
	// tiny head-bound check plans, so plan invocations no longer track
	// work — the tuples those plans enumerate do.)
	sess.mu.Lock()
	recompStats, err := sess.recompute(context.Background())
	sess.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if replayDerived >= recompStats.Derived {
		t.Fatalf("replay derived %d tuples, full recompute derived %d — replay was not incremental",
			replayDerived, recompStats.Derived)
	}
}

// negationSrc is the tc + unreach shape of the benchmark's
// write_negation workload: every edge or node change moves a stratum
// that negates the closure.
const negationSrc = `
	tc(X, Y) :- edge(X, Y).
	tc(X, Y) :- tc(X, Z), edge(Z, Y).
	unreach(X, Y) :- node(X), node(Y), not tc(X, Y).
	node(a). node(b). node(c).
	edge(a, b).
`

// negationChanges is a commit sequence over negationSrc that closes a
// cycle, reshapes it with a mixed batch, and moves node/1 — each batch
// adds and removes unreach tuples.
var negationChanges = []ChangesRequest{
	{Adds: []string{"edge(b, a)."}},
	{Adds: []string{"edge(b, c)."}, Dels: []string{"edge(a, b)."}},
	{Adds: []string{"node(d).", "edge(c, d)."}, Dels: []string{"node(a)."}},
}

// TestRecoveryRecomputesThroughNegation: batches whose delta reaches a
// negated predicate are swept at commit time, and recovery walks the
// same applyDelta — the report must show incremental replays only, and
// the recovered database must equal both the pre-crash one and a
// from-scratch rebuild.
func TestRecoveryRecomputesThroughNegation(t *testing.T) {
	fs := testutil.NewFaultFS()
	var before *storage.Database
	func() {
		srv := New(durableCfg(fs, true, 1000))
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		mustOK(t, ts, "POST", "/v1/sessions/m", LoadRequest{Program: negationSrc}, nil)
		for _, ch := range negationChanges {
			var upd UpdateResponse
			mustOK(t, ts, "POST", "/v1/sessions/m/changes", ch, &upd)
			if upd.Mode != "incremental" {
				t.Fatalf("changes %+v: mode = %q, want incremental", ch, upd.Mode)
			}
		}
		before = srv.session("m").snap.Load().db
	}()

	srv, reports := recoverOnto(t, fs.Recovered(), true, 1000)
	if len(reports) != 1 || reports[0].ReplayedIncr != len(negationChanges) || reports[0].ReplayedRecomp != 0 {
		t.Fatalf("reports = %+v, want one session with %d incremental replays and no recompute", reports, len(negationChanges))
	}
	sess := srv.session("m")
	db := sess.snap.Load().db
	if !db.Equal(before) {
		t.Fatalf("recovered database differs from the pre-crash one\nrecovered:\n%s\npre-crash:\n%s", db, before)
	}
	// a left node/1 and nothing reaches back from d: 3 nodes, 9 pairs,
	// minus tc's (b,c), (b,d), (c,d).
	if n := db.Count("unreach"); n != 6 {
		t.Fatalf("unreach has %d tuples after recovery, want 6", n)
	}
	sess.mu.Lock()
	_, err := sess.recompute(context.Background())
	fresh := sess.db
	sess.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Equal(db) {
		t.Fatalf("recovered database differs from a from-scratch rebuild\nrecovered:\n%s\nfrom scratch:\n%s", db, fresh)
	}
}

// TestCheckpointEndpoint: explicit checkpoints answer 200 on a durable
// server (and truncate the WAL), 409 not_durable on an in-memory one.
func TestCheckpointEndpoint(t *testing.T) {
	fs := testutil.NewFaultFS()
	srv := New(durableCfg(fs, true, 1000))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	mustOK(t, ts, "POST", "/v1/sessions/m", LoadRequest{Program: crashSrc}, nil)
	if code := post(t, ts, "POST", "/v1/sessions/m/changes", addFacts("edge(n1, n2).")); code != http.StatusOK {
		t.Fatalf("insert = %d", code)
	}
	// Seq 1 was consumed by the load's own checkpoint, seq 2 by the
	// insert; the explicit checkpoint reports the latter.
	var resp CheckpointResponse
	mustOK(t, ts, "POST", "/v1/sessions/m/checkpoint", struct{}{}, &resp)
	if resp.Session != "m" || resp.Seq != 2 {
		t.Fatalf("checkpoint = %+v, want session m seq 2", resp)
	}
	var st SessionStats
	mustOK(t, ts, "GET", "/v1/sessions/m/stats", nil, &st)
	if st.Durability == nil || !st.Durability.Enabled || st.Durability.SinceCheckpoint != 0 {
		t.Fatalf("durability stats = %+v, want enabled with since_checkpoint 0", st.Durability)
	}

	// After the checkpoint, a reboot must not replay anything.
	srv2, reports := recoverOnto(t, fs.Recovered(), true, 1000)
	if len(reports) != 1 || reports[0].ReplayedBatches != 0 || reports[0].Seq != 2 {
		t.Fatalf("post-checkpoint recovery reports = %+v, want seq 2 with 0 replays", reports)
	}
	if srv2.session("m") == nil {
		t.Fatal("session not recovered")
	}

	// In-memory server: checkpoint is a 409 with a stable code.
	mem := newTestServer(t, Config{})
	mustOK(t, mem, "POST", "/v1/sessions/m", LoadRequest{Program: crashSrc}, nil)
	var eresp ErrorResponse
	if code := call(t, mem, "POST", "/v1/sessions/m/checkpoint", struct{}{}, &eresp); code != http.StatusConflict {
		t.Fatalf("checkpoint without -data-dir = %d, want 409", code)
	}
	if eresp.Error.Code != CodeNotDurable {
		t.Fatalf("error code = %q, want %q", eresp.Error.Code, CodeNotDurable)
	}
}

// TestDropSessionDestroysDurableState: deleting a session removes its
// directory, so it cannot resurrect on the next restart.
func TestDropSessionDestroysDurableState(t *testing.T) {
	fs := testutil.NewFaultFS()
	func() {
		srv := New(durableCfg(fs, true, 1000))
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		mustOK(t, ts, "POST", "/v1/sessions/m", LoadRequest{Program: crashSrc}, nil)
		if code := post(t, ts, "DELETE", "/v1/sessions/m", nil); code != http.StatusNoContent {
			t.Fatalf("drop = %d", code)
		}
	}()
	for _, f := range fs.Files() {
		if strings.HasPrefix(f, "data/m/") {
			t.Fatalf("dropped session left durable file %s", f)
		}
	}
	srv, reports := recoverOnto(t, fs.Recovered(), true, 1000)
	if len(reports) != 0 || srv.session("m") != nil {
		t.Fatalf("dropped session resurrected: reports=%+v", reports)
	}
}
