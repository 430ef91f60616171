package serve

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// idbRanks reads the rank of every tuple of sess's derived relations —
// 0 for a seed fact — keyed by predicate and tuple, so two sessions
// compare equal exactly when they hold the same IDB with the same ranks.
// It also returns how many of those tuples are ranked.
func idbRanks(sess *session) (map[string]uint32, int) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	out := map[string]uint32{}
	ranked := 0
	for p := range sess.prog.Load().idb {
		rel := sess.db.Relation(p)
		if rel == nil {
			continue
		}
		for _, tu := range rel.Tuples() {
			_, rank := rel.Rank(tu)
			out[p+tu.String()] = rank
			if rank != 0 {
				ranked++
			}
		}
	}
	return out, ranked
}

// TestRanksSurviveCheckpointRecoveryAndReplication: over random
// programs, positive and with negation, the rank certificate of every
// IDB tuple is the same on the live session after random commits, after
// a checkpoint and a crash recovery that replays a WAL tail, on a
// follower bootstrapped from the checkpoint, and on that follower after
// it applied a live commit. The checkpoint's decoded rank columns rank
// exactly the session's ranked tuples.
func TestRanksSurviveCheckpointRecoveryAndReplication(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		arity    int
		negation bool
	}{{21, 2, false}, {22, 3, false}, {23, 2, true}, {24, 3, true}} {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			prog, arities := testutil.RandProgram(rng, testutil.RandProgramConfig{
				Arity: tc.arity, EDBPreds: 2, RecRules: 1 + rng.Intn(2), ExitRules: 1, Negation: tc.negation,
			})
			edb := make([]string, 0, len(arities))
			for p := range arities {
				edb = append(edb, p)
			}
			sort.Strings(edb)
			randFact := func() string {
				p := edb[rng.Intn(len(edb))]
				args := make([]string, arities[p])
				for i := range args {
					args[i] = fmt.Sprintf("c%d", rng.Intn(5))
				}
				return p + "(" + strings.Join(args, ", ") + ")"
			}
			src := prog.String()
			for i := 0; i < 12*len(edb); i++ {
				src += randFact() + ".\n"
			}

			const name = "k"
			dir := t.TempDir()
			leader, leaderTS := durableServer(t, dir, Config{})
			changes := "/v1/sessions/" + name + "/changes"
			mustOK(t, leaderTS, "POST", "/v1/sessions/"+name, LoadRequest{Program: src}, nil)
			// randCommit sends one random mixed batch that changes the EDB:
			// a fact is never named on both sides, a stored one is never
			// re-added and an absent one never deleted.
			randCommit := func() {
				db := leader.session(name).snap.Load().db
				var adds, dels []string
				named := map[string]bool{}
				for len(adds)+len(dels) == 0 || len(named) < 4 {
					f := randFact()
					if named[f] {
						continue
					}
					named[f] = true
					p := f[:strings.IndexByte(f, '(')]
					stored := false
					if rel := db.Relation(p); rel != nil {
						for _, tu := range rel.Tuples() {
							stored = stored || p+tu.String() == f
						}
					}
					if !stored {
						adds = append(adds, f)
					} else if rng.Intn(2) == 0 {
						dels = append(dels, f)
					}
				}
				var upd UpdateResponse
				mustOK(t, leaderTS, "POST", changes, ChangesRequest{Adds: adds, Dels: dels}, &upd)
				if upd.Mode != "incremental" {
					t.Fatalf("commit +%v -%v: mode %q, want incremental", adds, dels, upd.Mode)
				}
			}
			for i := 0; i < 8; i++ {
				randCommit()
			}
			mustOK(t, leaderTS, "POST", "/v1/sessions/"+name+"/checkpoint", nil, nil)
			atCheckpoint, ranked := idbRanks(leader.session(name))
			if ranked == 0 {
				t.Fatal("the program ranked nothing; the test would prove nothing")
			}

			// A follower bootstraps from that checkpoint, then applies a
			// live commit; the leader commits twice more, which leaves a
			// WAL tail behind the checkpoint for the recovery below.
			follower, _, _ := startFollower(t, t.TempDir(), leaderTS.URL, Config{})
			waitConverged(t, leader, follower, name)
			if got, _ := idbRanks(follower.session(name)); !reflect.DeepEqual(got, atCheckpoint) {
				t.Fatalf("follower bootstrap ranks differ from the leader's:\n got %v\nwant %v", got, atCheckpoint)
			}
			randCommit()
			waitConverged(t, leader, follower, name)
			live, _ := idbRanks(leader.session(name))
			if got, _ := idbRanks(follower.session(name)); !reflect.DeepEqual(got, live) {
				t.Fatalf("follower ranks after a live apply differ from the leader's:\n got %v\nwant %v", got, live)
			}
			randCommit()
			live, _ = idbRanks(leader.session(name))

			leader.Close()
			leaderTS.Close()
			st, err := durable.Open(durable.Options{Dir: dir}, name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := st.Recover()
			st.Close()
			if err != nil {
				t.Fatal(err)
			}
			entries := 0
			for _, p := range res.Snapshot.DB.Preds() {
				for _, r := range res.Snapshot.DB.Relation(p).RankColumn() {
					if r != 0 {
						entries++
					}
				}
			}
			if !res.Snapshot.Meta.HasRanks || entries != ranked {
				t.Fatalf("checkpoint carries %d ranks (has_ranks %v), the session had %d ranked tuples",
					entries, res.Snapshot.Meta.HasRanks, ranked)
			}

			recovered, _ := durableServer(t, dir, Config{})
			reports, err := recovered.RecoverSessions(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) != 1 || reports[0].ReplayedBatches != 2 || reports[0].ReplayedRecomp != 0 {
				t.Fatalf("reports = %+v, want 2 batches replayed incrementally", reports)
			}
			if got, _ := idbRanks(recovered.session(name)); !reflect.DeepEqual(got, live) {
				t.Fatalf("recovered ranks differ from the live session's:\n got %v\nwant %v", got, live)
			}
		})
	}
}

// fromScratch evaluates sess's program over a copy of its extensional
// relations and IDB seed facts, touching nothing of the session.
func fromScratch(t *testing.T, sess *session) *storage.Database {
	t.Helper()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	p := sess.prog.Load()
	fresh := storage.NewDatabase()
	for _, pred := range sess.db.Preds() {
		if !p.idb[pred] {
			fresh.Replace(sess.db.Relation(pred).Clone())
		}
	}
	for _, rel := range sess.seedIDB {
		fresh.Replace(rel.Clone())
	}
	if err := eval.New(p.active, fresh).Run(); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestRecoverKeyOrderedRanks: testdata/datadir-v1 was written by the
// build before ranks moved into relations, whose checkpoints list 'K'
// entries in interned-key order rather than relation order. It holds a
// tc + unreach session (negation) checkpointed after three commits,
// with two more commits in the WAL. It recovers to the answers that
// build served last (tc 73, unreach 27) with every derived tuple
// ranked and no recompute, and keeps committing incrementally,
// tuple-identical to from-scratch evaluation.
func TestRecoverKeyOrderedRanks(t *testing.T) {
	const name = "legacy"
	src := filepath.Join("testdata", "datadir-v1", name)
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(f.Name(), durable.SnapSuffix) {
			// The fixture tests order independence only if its entries
			// are not already in relation order.
			snap, err := durable.DecodeSnapshot(b)
			if err != nil {
				t.Fatal(err)
			}
			inOrder := true
			for p, rts := range snap.Ranks {
				last := -1
				for _, rt := range rts {
					pos, _ := snap.DB.Relation(p).Rank(rt.T)
					inOrder = inOrder && pos > last
					last = pos
				}
			}
			if inOrder {
				t.Fatal("the fixture's 'K' entries are in relation order")
			}
		}
	}

	srv, ts := durableServer(t, dir, Config{})
	reports, err := srv.RecoverSessions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Seq != 6 || reports[0].ReplayedIncr != 2 || reports[0].ReplayedRecomp != 0 {
		t.Fatalf("reports = %+v, want seq 6 after 2 incremental replays", reports)
	}
	sess := srv.session(name)
	total := func(goal string) int {
		var resp QueryResponse
		mustOK(t, ts, "POST", "/v1/sessions/"+name+"/query", QueryRequest{Goal: goal, Limit: 1}, &resp)
		return resp.Total
	}
	check := func(what string) {
		t.Helper()
		if db := sess.snap.Load().db; !db.Equal(fromScratch(t, sess)) {
			t.Fatalf("%s: the session differs from from-scratch evaluation:\n%s", what, db)
		}
		ranks, ranked := idbRanks(sess)
		if ranked != len(ranks) {
			t.Fatalf("%s: %d of %d derived tuples ranked", what, ranked, len(ranks))
		}
	}
	check("recovered")
	if tc, unreach := total("tc(X, Y)"), total("unreach(X, Y)"); tc != 73 || unreach != 27 {
		t.Fatalf("recovered totals tc %d unreach %d, the writing build served 73 and 27", tc, unreach)
	}
	for i, ch := range []ChangesRequest{
		{Adds: []string{"edge(v9, v0)"}, Dels: []string{"edge(v3, v4)"}},
		{Adds: []string{"edge(v1, v2)", "edge(v3, v4)"}},
		{Dels: []string{"edge(v6, v7)", "edge(v0, v1)"}},
	} {
		var upd UpdateResponse
		mustOK(t, ts, "POST", "/v1/sessions/"+name+"/changes", ch, &upd)
		if upd.Mode != "incremental" || upd.Applied != len(ch.Adds)+len(ch.Dels) {
			t.Fatalf("commit %d %+v = %+v, want every fact applied incrementally", i, ch, upd)
		}
		check(fmt.Sprintf("after commit %d", i))
	}
	if n := sess.recomputes.Load(); n != 0 {
		t.Fatalf("%d recomputes, want 0", n)
	}
}

// TestRecoveredCheckpointReencodes: for each cold-load program and for
// read_point's layered closure, the checkpoint a durable load wrote,
// recovered on a fresh server, re-encodes from the recovered session to
// the same bytes (sha256) — the header, the dictionary order, every
// relation's positions and rank column come back exactly — and the
// recovered session equals from-scratch evaluation, every derived tuple
// with the rank it had before the restart.
func TestRecoveredCheckpointReencodes(t *testing.T) {
	ctx := context.Background()
	progs := append(workload.ColdLoad(1), workload.LoadText{Name: "read_point", Src: layeredTC(41, 20)})
	for _, lt := range progs {
		t.Run(lt.Name, func(t *testing.T) {
			plan := "auto"
			if lt.Name == "read_point" {
				plan = ""
			}
			dir := t.TempDir()
			srv, _ := durableServer(t, dir, Config{})
			if _, err := srv.LoadSession(ctx, lt.Name, LoadRequest{Program: lt.Src, Plan: plan, Goal: lt.Goal}); err != nil {
				t.Fatal(err)
			}
			want, ranked := idbRanks(srv.session(lt.Name))
			srv.Close()
			if ranked == 0 {
				t.Fatal("the load ranked no derived tuple")
			}
			st, err := durable.Open(durable.Options{Dir: dir}, lt.Name)
			if err != nil {
				t.Fatal(err)
			}
			raw, _, err := st.NewestSnapshotRaw()
			st.Close()
			if err != nil {
				t.Fatal(err)
			}
			written, err := durable.DecodeSnapshot(raw)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d-byte checkpoint of %d tuples, %.1f B per tuple", len(raw), written.DB.TotalTuples(),
				float64(len(raw))/float64(written.DB.TotalTuples()))

			rec, _ := durableServer(t, dir, Config{})
			reports, err := rec.RecoverSessions(ctx)
			if err != nil || len(reports) != 1 || reports[0].Err != "" || reports[0].ReplayedBatches != 0 {
				t.Fatalf("recover = %+v, %v", reports, err)
			}
			sess := rec.session(lt.Name)
			sess.mu.Lock()
			img := sess.checkpointImage(&state{prog: sess.prog.Load(), db: sess.db, zs: sess.zs, seedIDB: sess.seedIDB}, sess.seq.Load())
			// The recovered session published past the checkpoint's
			// generation; every other header field is its own.
			img.Meta.Generation = written.Meta.Generation
			re, err := durable.EncodeSnapshot(img)
			sess.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(re) != sha256.Sum256(raw) {
				t.Fatalf("the recovered session encodes to %d bytes unlike the %d-byte checkpoint it recovered", len(re), len(raw))
			}
			if db := sess.snap.Load().db; !db.Equal(fromScratch(t, sess)) {
				t.Fatal("the recovered session differs from from-scratch evaluation")
			}
			if got, _ := idbRanks(sess); !reflect.DeepEqual(got, want) {
				t.Fatal("the recovered ranks differ from the loaded session's")
			}
		})
	}
}
