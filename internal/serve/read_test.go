package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// scanMatch is the read path's oracle: the matcher dlogd shipped before
// reads were indexed, reduced to its scan arm. It lowers the goal and
// walks the whole relation, so whatever the product's probes, indexes
// and cache return must be these tuples in this order.
func scanMatch(db *storage.Database, goal ast.Atom) ([]storage.Tuple, error) {
	rel := db.Relation(goal.Pred)
	if rel == nil {
		return nil, nil
	}
	if rel.Arity != len(goal.Args) {
		return nil, fmt.Errorf("%s has arity %d, goal has %d", goal.Pred, rel.Arity, len(goal.Args))
	}
	consts := make([]storage.Value, len(goal.Args))
	peer := make([]int, len(goal.Args))
	firstOf := map[ast.Var]int{}
	for i, arg := range goal.Args {
		peer[i] = -1
		if v, ok := arg.(ast.Var); ok {
			if j, seen := firstOf[v]; seen {
				peer[i] = j
			} else {
				firstOf[v] = i
			}
			continue
		}
		val, ok := storage.LookupTerm(arg)
		if !ok {
			return nil, nil
		}
		consts[i] = val
	}
	var out []storage.Tuple
scan:
	for _, t := range rel.Tuples() {
		for i := range t {
			if consts[i] != storage.NoValue && t[i] != consts[i] {
				continue scan
			}
			if peer[i] >= 0 && t[i] != t[peer[i]] {
				continue scan
			}
		}
		out = append(out, t)
	}
	return out, nil
}

func rowsOf(tuples []storage.Tuple) [][]string {
	rows := make([][]string, len(tuples))
	for i, t := range tuples {
		rows[i] = make([]string, len(t))
		for j, v := range t {
			rows[i][j] = v.String()
		}
	}
	return rows
}

// randGoal draws a goal over db in one of the shapes the read path
// tells apart: ground (present and absent), one or two bound columns,
// repeated variables, all free, a constant the interner has never seen,
// the wrong arity, an unknown predicate.
func randGoal(rng *rand.Rand, db *storage.Database) ast.Atom {
	preds := db.Preds()
	pred := preds[rng.Intn(len(preds))]
	rel := db.Relation(pred)
	vars := []ast.Term{ast.Var("X"), ast.Var("Y"), ast.Var("Zed"), ast.Var("_w")}
	// sample is a stored tuple's terms when there is one: constants drawn
	// from it make goals that match something.
	sample := make([]ast.Term, rel.Arity)
	for i := range sample {
		sample[i] = ast.Sym(fmt.Sprintf("c%d", rng.Intn(5)))
	}
	if rel.Len() > 0 {
		sample = rel.At(rng.Intn(rel.Len())).Terms()
	}
	free := func() []ast.Term {
		args := make([]ast.Term, rel.Arity)
		copy(args, vars)
		return args
	}
	args := free()
	switch shape := rng.Intn(10); shape {
	case 0: // ground, present
		args = sample
	case 1: // ground, most likely absent
		for i := range args {
			args[i] = ast.Sym(fmt.Sprintf("c%d", rng.Intn(5)))
		}
	case 2, 3: // one bound column
		col := rng.Intn(rel.Arity)
		args[col] = sample[col]
	case 4: // two bound columns
		for _, col := range rng.Perm(rel.Arity)[:min(2, rel.Arity)] {
			args[col] = sample[col]
		}
	case 5: // a repeated variable, with or without a bound column
		a, b := rng.Intn(rel.Arity), rng.Intn(rel.Arity)
		args[a], args[b] = vars[0], vars[0]
		if col := rng.Intn(rel.Arity); col != a && col != b {
			args[col] = sample[col]
		}
	case 6: // all free
	case 7: // a constant nobody ever interned
		args[rng.Intn(rel.Arity)] = ast.Sym(fmt.Sprintf("never_interned_%d", rng.Intn(3)))
	case 8: // wrong arity
		args = append(args, ast.Var("Extra"))
	case 9: // unknown predicate
		pred = "no_such_pred"
	}
	return ast.Atom{Pred: pred, Args: args}
}

// checkReads asks srv a batch of random goals, each twice — the second
// time from the cache — and holds every reply to scanMatch over the
// snapshot it was answered from.
func checkReads(t *testing.T, what string, rng *rand.Rand, srv *Server, ts *httptest.Server, name string) {
	t.Helper()
	pub := srv.session(name).snap.Load()
	for i := 0; i < 60; i++ {
		goal := randGoal(rng, pub.db)
		want, wantErr := scanMatch(pub.db, goal)
		for pass := 0; pass < 2; pass++ {
			var resp QueryResponse
			code := call(t, ts, "POST", "/v1/sessions/"+name+"/query", QueryRequest{Goal: goal.String()}, &resp)
			if wantErr != nil {
				if code != http.StatusBadRequest {
					t.Fatalf("%s: %s = %d, want 400 (%v)", what, goal, code, wantErr)
				}
				continue
			}
			if code != http.StatusOK {
				t.Fatalf("%s: %s = %d, want 200", what, goal, code)
			}
			if resp.Generation != pub.db.Generation() || resp.Seq != pub.seq {
				t.Fatalf("%s: %s answered from generation %d seq %d, the published one is %d seq %d",
					what, goal, resp.Generation, resp.Seq, pub.db.Generation(), pub.seq)
			}
			if resp.Total != len(want) || !reflect.DeepEqual(resp.Tuples, rowsOf(want)) {
				t.Fatalf("%s: %s (pass %d, cached=%v)\n got %d rows %v\nwant %d rows %v",
					what, goal, pass, resp.Cached, resp.Total, resp.Tuples, len(want), rowsOf(want))
			}
			if pass == 1 && !resp.Cached {
				t.Fatalf("%s: %s asked twice on one generation was not served from the cache", what, goal)
			}
		}
	}
}

// TestReadDifferential: over random programs, the indexed, cached read
// path returns the scan oracle's rows in the oracle's order, whatever
// state the session reached its snapshot through — a load, adds,
// deletes, a mixed commit, a checkpoint and a crash recovery, or a
// follower's bootstrap and replication stream.
func TestReadDifferential(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		arity    int
		negation bool
	}{{11, 2, false}, {12, 3, false}, {13, 2, true}, {14, 3, true}} {
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
					if args[i] = fmt.Sprintf("c%d", rng.Intn(5)); rng.Intn(4) == 0 {
						args[i] = fmt.Sprint(rng.Intn(5))
					}
				}
				return p + "(" + strings.Join(args, ", ") + ")"
			}
			src := prog.String()
			for i := 0; i < 12*len(edb); i++ {
				src += randFact() + ".\n"
			}

			const name = "r"
			dir := t.TempDir()
			leader, leaderTS := durableServer(t, dir, Config{})
			changes := "/v1/sessions/" + name + "/changes"
			mustOK(t, leaderTS, "POST", "/v1/sessions/"+name, LoadRequest{Program: src}, nil)
			// someStored picks stored EDB facts to delete.
			someStored := func(n int) []string {
				db := leader.session(name).snap.Load().db
				var out []string
				for i := 0; i < n; i++ {
					p := edb[rng.Intn(len(edb))]
					if rel := db.Relation(p); rel != nil && rel.Len() > 0 {
						out = append(out, p+rel.At(rng.Intn(rel.Len())).String())
					}
				}
				return out
			}
			someNew := func(n int) []string {
				out := make([]string, n)
				for i := range out {
					out[i] = randFact()
				}
				return out
			}
			checkReads(t, "fresh load", rng, leader, leaderTS, name)
			mustOK(t, leaderTS, "POST", changes, ChangesRequest{Adds: someNew(4)}, nil)
			checkReads(t, "after add", rng, leader, leaderTS, name)
			mustOK(t, leaderTS, "POST", changes, ChangesRequest{Dels: someStored(4)}, nil)
			checkReads(t, "after delete", rng, leader, leaderTS, name)
			// A fact drawn for both sides would be refused; one that is
			// stored cannot also be new.
			dels := someStored(3)
			var adds []string
			for _, f := range someNew(5) {
				if atom, err := parser.ParseAtom(f); err == nil {
					if got, _ := scanMatch(leader.session(name).snap.Load().db, atom); len(got) == 0 {
						adds = append(adds, f)
					}
				}
			}
			mustOK(t, leaderTS, "POST", changes, ChangesRequest{Adds: adds, Dels: dels}, nil)
			checkReads(t, "after mixed commit", rng, leader, leaderTS, name)

			// Checkpoint, commit once more so recovery has a WAL tail to
			// replay on top of the checkpoint, then stop and recover.
			mustOK(t, leaderTS, "POST", "/v1/sessions/"+name+"/checkpoint", nil, nil)
			mustOK(t, leaderTS, "POST", changes, ChangesRequest{Adds: someNew(3), Dels: someStored(1)}, nil)
			before := leader.session(name).snap.Load().db
			leader.Close()
			leaderTS.Close()
			leader, leaderTS = durableServer(t, dir, Config{})
			if _, err := leader.RecoverSessions(context.Background()); err != nil {
				t.Fatal(err)
			}
			if after := leader.session(name); after == nil || !after.snap.Load().db.Equal(before) {
				t.Fatal("recovery did not restore the session's state")
			}
			checkReads(t, "after checkpoint and recovery", rng, leader, leaderTS, name)

			follower, followerTS, _ := startFollower(t, t.TempDir(), leaderTS.URL, Config{})
			waitConverged(t, leader, follower, name)
			checkReads(t, "on a follower", rng, follower, followerTS, name)
			mustOK(t, leaderTS, "POST", changes, ChangesRequest{Adds: someNew(4)}, nil)
			waitConverged(t, leader, follower, name)
			checkReads(t, "on a follower after a replicated commit", rng, follower, followerTS, name)
		})
	}
}

// rawQuery posts a query and returns the reply's status, headers and
// undecoded body.
func rawQuery(t *testing.T, ts *httptest.Server, path string, req QueryRequest) (*http.Response, []byte) {
	t.Helper()
	res := doJSON(t, ts, "POST", path, req)
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, body
}

// TestQueryWireBytes: the hand-assembled reply is byte for byte what
// json.NewEncoder writes for the QueryResponse it decodes to — on a
// miss, a hit, pages and cursors, an empty result, an uncached result,
// and constants that JSON must escape.
func TestQueryWireBytes(t *testing.T) {
	for _, cacheSize := range []int{0, -1} {
		ts := newTestServer(t, Config{QueryCache: cacheSize})
		src := `link(X, Y) :- e(X, Y).
			e(a, b). e(a, 'say "hi"'). e(a, 'back\slash'). e(a, '<tag>&amp;'). e(a, 'héllo wörld').
			e(a, '日本語'). e(a, 'it''s'). e(a, 'tab	bed'). e(a, -7). e(a, 'UPPER'). e(a, '` + " " + `').
			e('<b>', '</b>').`
		mustOK(t, ts, "POST", loadPath, LoadRequest{Program: src}, nil)
		for _, req := range []QueryRequest{
			{Goal: "link(a, Y)"},
			{Goal: "link(a, Y)"}, // the hit
			{Goal: "link(a, Other)", Limit: 3},
			{Goal: "link(a, Y)", Limit: 3, Cursor: "3"},
			{Goal: "link(a, Y)", Limit: 4, Cursor: "9"},
			{Goal: "link(a, Y)", Cursor: "400"},
			{Goal: "link(a, Y)", Limit: 1, Cursor: "10"},
			{Goal: "link(zzz, Y)"},
			{Goal: "link(X, X)"},
			{Goal: "link('<b>', Y)"},
			{Goal: "link('<b>', '</b>')"},
			{Goal: "link(a, 'say \"hi\"')"},
			{Goal: "nothing_here(X)"},
			{Goal: "link(X, Y)", Limit: 2},
		} {
			res, body := rawQuery(t, ts, queryPath, req)
			if res.StatusCode != http.StatusOK {
				t.Fatalf("%+v = %d: %s", req, res.StatusCode, body)
			}
			var resp QueryResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("%+v: reply is not JSON: %v\n%s", req, err, body)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, want.Bytes()) {
				t.Fatalf("%+v (cache %d): reply differs from encoding/json's\n got %s\nwant %s", req, cacheSize, body, want.Bytes())
			}
			if resp.Count != len(resp.Tuples) || resp.Tuples == nil {
				t.Fatalf("%+v: count %d with tuples %v", req, resp.Count, resp.Tuples)
			}
			if got := res.Header.Get("Content-Type"); got != "application/json" {
				t.Fatalf("%+v: Content-Type %q", req, got)
			}
			if got := res.ContentLength; got != int64(len(body)) {
				t.Fatalf("%+v: Content-Length %d for a %d-byte body", req, got, len(body))
			}
		}
	}
}

// TestCacheKeyUpToRenaming: goals that differ only in variable names
// are one cache entry and one match; the reply still echoes the goal
// the caller sent, and a repeated variable is not a renaming of two
// distinct ones.
func TestCacheKeyUpToRenaming(t *testing.T) {
	srv, ts := startTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc + "edge(c, c)."}, nil)
	var first, renamed, repeated, swapped QueryResponse
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(a, Y)"}, &first)
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(a, Z)"}, &renamed)
	if first.Cached || !renamed.Cached {
		t.Fatalf("tc(a, Y) then tc(a, Z): cached = %v, %v; want a miss then a hit", first.Cached, renamed.Cached)
	}
	if renamed.Goal != "tc(a, Z)" || !reflect.DeepEqual(renamed.Tuples, first.Tuples) {
		t.Fatalf("renamed goal answered %q %v, want its own text and %v", renamed.Goal, renamed.Tuples, first.Tuples)
	}
	if n, _ := srv.session(testSession).cache.size(); n != 1 {
		t.Fatalf("two spellings of one goal hold %d cache entries", n)
	}
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}, &first)
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(Y, X)"}, &swapped)
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(X, X)"}, &repeated)
	if !swapped.Cached || repeated.Cached {
		t.Fatalf("tc(Y, X) cached = %v (want a hit on tc(X, Y)), tc(X, X) cached = %v (want a miss)", swapped.Cached, repeated.Cached)
	}
	if repeated.Total != 1 || first.Total <= repeated.Total {
		t.Fatalf("tc(X, X) has %d rows and tc(X, Y) %d", repeated.Total, first.Total)
	}
	// A constant is never confused with a variable's number.
	for a, b := range map[string]string{"tc('$0', X)": "tc(Y, X)", "tc(a, b)": "tc(a, B)"} {
		ga, _ := parser.ParseAtom(a)
		gb, _ := parser.ParseAtom(b)
		if canonicalGoal(ga) == canonicalGoal(gb) {
			t.Fatalf("%s and %s share the cache key %q", a, b, canonicalGoal(ga))
		}
	}
}

// keyedFacts is a relation of n tuples k(<i mod keys>, <i>): column 0
// holds each of keys values n/keys times, column 1 is unique.
func keyedFacts(n, keys int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "k(g%d, v%d).\n", i%keys, i)
	}
	return sb.String()
}

// allocatedBytes reports what f allocates, on this goroutine alone in a
// quiet test binary.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestUncacheableResultRendersOnlyThePage: a result too large to cache
// used to be stringified whole before one page of it was sliced off —
// 20 000 rows built to return one.
func TestUncacheableResultRendersOnlyThePage(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(srv.Close)
	const n = 2*MaxQueryLimit + 1
	if _, err := srv.LoadSession(context.Background(), "k", LoadRequest{Program: keyedFacts(n, 7)}); err != nil {
		t.Fatal(err)
	}
	one := newQueryDriver(srv, "k", `{"goal":"k(X, Y)","limit":1}`)
	one.do()
	spent := allocatedBytes(func() {
		if status, _ := one.do(); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	})
	// Rendering every row is at least 12 bytes a row; the request itself
	// costs a few KiB.
	if spent > 32<<10 {
		t.Fatalf("one row of an uncacheable %d-row result cost %d bytes", n, spent)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var page QueryResponse
	mustOK(t, ts, "POST", "/v1/sessions/k/query", QueryRequest{Goal: "k(X, Y)", Limit: 2, Cursor: "20000"}, &page)
	want := [][]string{{"g1", "v20000"}}
	if page.Total != n || page.Cached || page.NextCursor != "" || !reflect.DeepEqual(page.Tuples, want) {
		t.Fatalf("last page = %+v, want the one row %v of %d, uncached", page, want, n)
	}
	if entries, _ := srv.session("k").cache.size(); entries != 0 {
		t.Fatalf("a result above MaxQueryLimit was cached (%d entries)", entries)
	}
}

// TestCachedHitAllocations: answering from the cache allocates a fixed
// handful of small objects — the key, the goal text, the reply's head
// and tail, its headers — and nothing that grows with the page.
func TestCachedHitAllocations(t *testing.T) {
	srv := New(Config{})
	t.Cleanup(srv.Close)
	if _, err := srv.LoadSession(context.Background(), "k", LoadRequest{Program: keyedFacts(16000, 2)}); err != nil {
		t.Fatal(err)
	}
	sess := srv.session("k")
	goal, _ := parser.ParseAtom("k(g1, Y)")
	req := httptest.NewRequest("POST", "/v1/sessions/k/query", nil)
	w := &sinkWriter{h: http.Header{}}
	answer := func(q QueryRequest) func() {
		return func() { srv.answer(w, req, sess, goal, q, time.Now()) }
	}
	answer(QueryRequest{})() // the miss
	hits := srv.mQueryPath[pathHit].Load()
	small, large := answer(QueryRequest{Limit: 8}), answer(QueryRequest{})
	for name, f := range map[string]func(){"8-row page": small, "8000-row page": large} {
		if got := testing.AllocsPerRun(200, f); got > 10 {
			t.Errorf("a cached hit (%s) allocates %.0f objects, want at most 10", name, got)
		}
	}
	if got := srv.mQueryPath[pathHit].Load() - hits; got != 2*201 {
		t.Fatalf("%d of %d measured reads were cache hits", got, 2*201)
	}
	large()
	if w.n < 100000 {
		t.Fatalf("the large page is only %d bytes", w.n)
	}
	// Through the whole handler — decode, parse, middleware — the two
	// pages still cost the same: the difference is a few digits.
	driveSmall := newQueryDriver(srv, "k", `{"goal":"k(g1, Y)","limit":8}`)
	driveLarge := newQueryDriver(srv, "k", `{"goal":"k(g1, Y)"}`)
	driveSmall.do()
	driveLarge.do()
	costSmall := allocatedBytes(func() { driveSmall.do() })
	costLarge := allocatedBytes(func() { driveLarge.do() })
	if costLarge > costSmall+256 {
		t.Fatalf("a hit on an 8000-row page allocates %d bytes, on an 8-row page %d: the page is being copied", costLarge, costSmall)
	}
}

// slowQueries parses the slow_query records out of an access log.
func slowQueries(t *testing.T, log string) []slowQueryRecord {
	t.Helper()
	var out []slowQueryRecord
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		var rec slowQueryRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if rec.Type == "slow_query" {
			out = append(out, rec)
		}
	}
	return out
}

// TestBoundReadsNeverScan is the first row of the fast-path contract:
// a read that binds anything costs its answer, not its relation. On a
// 50 000-tuple relation a thousand distinct bound goals — every one a
// cache miss — scan nothing and examine at most answer + 1 candidates
// each, at the price of one index build per column.
func TestBoundReadsNeverScan(t *testing.T) {
	var log syncBuffer
	srv, ts := startTestServer(t, Config{AccessLog: &log, SlowQuery: time.Nanosecond})
	const n, keys = 50000, 500
	if _, err := srv.LoadSession(context.Background(), testSession, LoadRequest{Program: keyedFacts(n, keys)}); err != nil {
		t.Fatal(err)
	}
	var goals []string
	for i := 0; i < 400; i++ {
		goals = append(goals, fmt.Sprintf("k(g%d, Y)", i))         // 100 rows each
		goals = append(goals, fmt.Sprintf("k(X, v%d)", 97*i))      // one row each
		goals = append(goals, fmt.Sprintf("k(g%d, v%d)", i, 97*i)) // ground; present when 97i ≡ i mod 500
	}
	goals = goals[:1000]
	for _, g := range goals {
		var resp QueryResponse
		mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: g}, &resp)
		if resp.Cached {
			t.Fatalf("%s: a first read was served from the cache", g)
		}
	}
	recs := slowQueries(t, log.String())
	if len(recs) != len(goals) {
		t.Fatalf("%d slow-query records for %d reads", len(recs), len(goals))
	}
	for _, rec := range recs {
		if rec.Probes > rec.Total+1 || !rec.Indexed {
			t.Fatalf("%s examined %d candidates for %d answers (indexed=%v)", rec.Goal, rec.Probes, rec.Total, rec.Indexed)
		}
	}
	paths := map[string]int64{}
	for _, fv := range srv.metricsSnapshot().Families["serve.query_path"].Values {
		paths[fv.Labels[0]] = fv.Value
	}
	want := map[string]int64{"hit": 0, "contains": 333, "index": 667, "scan": 0}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("serve.query_path = %v, want %v", paths, want)
	}
	if builds := srv.mIndexBuilds.Load(); builds != 2 {
		t.Fatalf("%d index builds for reads on two columns", builds)
	}
	if cols := srv.session(testSession).snap.Load().db.Relation("k").IndexedColumns(); !reflect.DeepEqual(cols, []int{0, 1}) {
		t.Fatalf("the snapshot reports indexed columns %v, want the two its readers built", cols)
	}

	// An all-free goal is the one shape that still walks the relation,
	// and says so.
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "k(X, Y)", Limit: 1}, nil)
	recs = slowQueries(t, log.String())
	if last := recs[len(recs)-1]; last.Probes != n || last.Indexed || srv.mQueryPath[pathScan].Load() != 1 {
		t.Fatalf("k(X, Y): probes %d indexed %v scans %d, want a counted scan of %d", last.Probes, last.Indexed, srv.mQueryPath[pathScan].Load(), n)
	}

	metrics := scrapeMetrics(t, ts)
	for _, line := range []string{`serve_query_path{path="index"} 667`, `serve_query_path{path="scan"} 1`, `serve_index_builds 2`} {
		if !strings.Contains(metrics, line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if v := metricValue(t, metrics, "serve_cache_bytes"); v == "" || v == "0" {
		t.Errorf("serve_cache_bytes = %q with %d results cached", v, len(goals))
	}
}

// TestWriteSessionKeepsWantedIndexes: the index a read asked for is the
// session's from the next publish on. The first miss builds it on the
// snapshot it hit, the next publish builds it on the live relation, and
// from then on commits maintain it: one commit per twenty reads builds
// nothing, and no read builds or scans.
func TestWriteSessionKeepsWantedIndexes(t *testing.T) {
	srv, ts := startTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: layeredTC(8, 6)}, nil)
	sess := srv.session(testSession)
	read := func(round int) {
		for i := 0; i < 10; i++ {
			node := fmt.Sprintf("n%d_%d", (round+i)%8, i%6)
			for _, goal := range []string{"tc(" + node + ", Y)", "tc(X, " + node + ")"} {
				var resp QueryResponse
				mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: goal}, &resp)
				pub := sess.snap.Load()
				goalAtom, _ := parser.ParseAtom(goal)
				if want, _ := scanMatch(pub.db, goalAtom); resp.Generation == pub.db.Generation() && !reflect.DeepEqual(resp.Tuples, rowsOf(want)) {
					t.Fatalf("round %d: %s = %v, a scan finds %v", round, goal, resp.Tuples, rowsOf(want))
				}
			}
		}
	}
	commit := func(round int) {
		req := ChangesRequest{Adds: []string{fmt.Sprintf("edge(n%d_0, x%d)", round%7, round)}}
		if round%3 == 2 {
			req.Dels = []string{fmt.Sprintf("edge(n%d_0, x%d)", (round-1)%7, round-1)}
		}
		mustOK(t, ts, "POST", changesPath, req, nil)
	}
	read(0) // misses on the loaded snapshot: readers build tc's two columns
	if got := srv.mIndexBuilds.Load(); got != 2 {
		t.Fatalf("reads on two columns of the first snapshot built %d indexes", got)
	}
	commit(0) // first publish after the demand: the live relation gets them
	read(1)
	commit(1)
	settled := srv.mIndexBuilds.Load()
	if settled > 4 {
		t.Fatalf("%d index builds by the second publish, want each column built at most twice", settled)
	}
	for round := 2; round < 12; round++ {
		read(round)
		commit(round)
	}
	if got := srv.mIndexBuilds.Load(); got != settled {
		t.Fatalf("%d index builds after the second publish, want 0", got-settled)
	}
	if scans := srv.mQueryPath[pathScan].Load(); scans != 0 {
		t.Fatalf("%d bound reads scanned", scans)
	}
	if cols := sess.snap.Load().db.Relation("tc").IndexedColumns(); !reflect.DeepEqual(cols, []int{0, 1}) {
		t.Fatalf("published tc carries indexes on %v, want [0 1]", cols)
	}
	// The demand set only ever names columns of relations that exist.
	var unknown QueryResponse
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: "nope(a, Y)"}, &unknown)
	if code := call(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(a, Y, Z)"}, nil); code != http.StatusBadRequest {
		t.Fatalf("wrong arity = %d", code)
	}
	sess.wantMu.Lock()
	wanted := len(sess.wanted)
	sess.wantMu.Unlock()
	if wanted != 2 {
		t.Fatalf("the session wants %d indexes, want tc's two", wanted)
	}
}

// TestConcurrentBoundReadsDuringCommits races everything the read path
// shares: readers missing on both columns of fresh snapshots (building
// their indexes, recording the demand) while the committer publishes
// new ones (building the demanded columns on the live relation). Every
// reply must be the scan oracle's answer over the snapshot it names.
// Run with -race.
func TestConcurrentBoundReadsDuringCommits(t *testing.T) {
	srv, ts := startTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: layeredTC(8, 6)}, nil)
	sess := srv.session(testSession)
	snaps := map[uint64]*storage.Database{}
	record := func() {
		db := sess.snap.Load().db
		snaps[db.Generation()] = db
	}
	record()
	type reply struct {
		goal string
		resp QueryResponse
	}
	const readers = 8
	replies := make(chan []reply, readers)
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		go func(g int) {
			var mine []reply
			defer func() { replies <- mine }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				node := fmt.Sprintf("n%d_%d", (g+i)%8, i%6)
				goal := "tc(" + node + ", Y)"
				if (g+i)%2 == 0 {
					goal = "tc(X, " + node + ")"
				}
				var resp QueryResponse
				if code := call(t, ts, "POST", queryPath, QueryRequest{Goal: goal}, &resp); code != http.StatusOK {
					t.Errorf("%s = %d", goal, code)
					return
				}
				mine = append(mine, reply{goal, resp})
			}
		}(g)
	}
	for round := 0; round < 25; round++ {
		req := ChangesRequest{Adds: []string{fmt.Sprintf("edge(n%d_1, y%d)", round%7, round)}}
		if round%2 == 1 {
			req.Dels = []string{fmt.Sprintf("edge(n%d_1, y%d)", (round-1)%7, round-1)}
		}
		mustOK(t, ts, "POST", changesPath, req, nil)
		record() // the only writer: what is published now is this commit's snapshot
	}
	close(stop)
	checked := 0
	for g := 0; g < readers; g++ {
		for _, r := range <-replies {
			db := snaps[r.resp.Generation]
			if db == nil {
				t.Fatalf("%s answered from generation %d, which was never published", r.goal, r.resp.Generation)
			}
			goal, _ := parser.ParseAtom(r.goal)
			if want, _ := scanMatch(db, goal); !reflect.DeepEqual(r.resp.Tuples, rowsOf(want)) {
				t.Fatalf("%s at generation %d = %v, a scan finds %v", r.goal, r.resp.Generation, r.resp.Tuples, rowsOf(want))
			}
			checked++
		}
	}
	if checked < readers {
		t.Fatalf("only %d replies checked", checked)
	}
	if scans := srv.mQueryPath[pathScan].Load(); scans != 0 {
		t.Fatalf("%d bound reads scanned", scans)
	}
}
