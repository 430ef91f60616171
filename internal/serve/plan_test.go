package serve

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// routesProgram builds the routes workload as server source: chains of
// paved hops between open waypoints (the recursion's backbone), with
// the constraint that a hop into an open node is paved. Spur hops onto
// closed nodes are what make the constraint selective; they arrive via
// the update API in the tests below.
func routesProgram(chains, depth int) string {
	var b strings.Builder
	b.WriteString("reach(X, Y) :- hop(X, Y, R).\n")
	b.WriteString("reach(X, Y) :- reach(X, Z), hop(Z, Y, R), open(Y).\n")
	b.WriteString("hop(Z, Y, R), open(Y) -> R = paved.\n")
	for c := 0; c < chains; c++ {
		fmt.Fprintf(&b, "open(c%d_0).\n", c)
		for j := 0; j < depth; j++ {
			fmt.Fprintf(&b, "hop(c%d_%d, c%d_%d, paved).\n", c, j, c, j+1)
			fmt.Fprintf(&b, "open(c%d_%d).\n", c, j+1)
		}
	}
	return b.String()
}

// spurFacts returns one batch of dead-spur hops: every waypoint of
// every chain gains a gravel hop onto a closed node. Each call with a
// distinct batch index names fresh spur nodes.
func spurFacts(chains, depth, batch int) []string {
	var adds []string
	for c := 0; c < chains; c++ {
		for j := 0; j < depth; j++ {
			adds = append(adds, fmt.Sprintf("hop(c%d_%d, s%d_%d_%d, gravel)", c, j, c, j, batch))
		}
	}
	return adds
}

// TestLoadWithPlan: plan=auto surfaces the decision on the load
// response, the stats endpoint, and the metrics exposition; forcing an
// unavailable variant fails the load and keeps nothing behind.
func TestLoadWithPlan(t *testing.T) {
	ts := newTestServer(t, Config{})

	var load LoadResponse
	mustOK(t, ts, "POST", "/v1/sessions/p", LoadRequest{Program: tcSrc, Plan: "auto"}, &load)
	if load.Plan == nil || load.Plan.Chosen != "orig" {
		t.Fatalf("load.Plan = %+v, want a decision choosing orig", load.Plan)
	}
	// No ICs: the semantic variants must be enumerated as unavailable,
	// not silently dropped — the decision stays auditable.
	if n := len(load.Plan.Candidates); n != 5 {
		t.Fatalf("decision lists %d candidates, want 5", n)
	}

	var st SessionStats
	mustOK(t, ts, "GET", "/v1/sessions/p/stats", nil, &st)
	ps := st.Planner
	if ps == nil || ps.Requested != "auto" || ps.Chosen != "orig" || len(ps.Candidates) != 5 {
		t.Fatalf("stats planner = %+v", ps)
	}

	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), `serve_planner_choice{variant="orig"}`) {
		t.Fatal("metrics exposition lacks serve_planner_choice{variant=\"orig\"}")
	}

	// A pinned plan is honored and reported as forced.
	mustOK(t, ts, "POST", "/v1/sessions/q", LoadRequest{Program: routesProgram(1, 5), Plan: "opt"}, &load)
	if load.Plan == nil || load.Plan.Chosen != "opt" || !strings.Contains(load.Plan.Reason, "forced") {
		t.Fatalf("pinned load.Plan = %+v", load.Plan)
	}
	// The paper's organization example under the pinned rewrite reports
	// itself optimized and answers what the program as written answers.
	var q QueryResponse
	mustOK(t, ts, "POST", "/v1/sessions/o", LoadRequest{Program: orgDifferential.program, Plan: "opt"}, &load)
	mustOK(t, ts, "POST", "/v1/sessions/o/query", QueryRequest{Goal: "triple(A, B, C)"}, &q)
	if !load.Optimized || q.Total != 1 {
		t.Fatalf("org under plan=opt: optimized=%v, triple total %d; want true and the seeded same_level row", load.Optimized, q.Total)
	}

	// Forcing magic without a goal cannot be served; the failed load
	// must not register a session.
	if code := call(t, ts, "POST", "/v1/sessions/r", LoadRequest{Program: tcSrc, Plan: "magic"}, nil); code == http.StatusOK {
		t.Fatal("forcing magic without a goal loaded successfully")
	}
	if code := call(t, ts, "GET", "/v1/sessions/r/stats", nil, nil); code == http.StatusOK {
		t.Fatal("failed load left a session behind")
	}
}

// TestLoadWithGoalPlansMagic: a load that declares its query goal gets
// the magic-sets candidate, and the session answers exactly the goal.
func TestLoadWithGoalPlansMagic(t *testing.T) {
	ts := newTestServer(t, Config{})
	var load LoadResponse
	mustOK(t, ts, "POST", "/v1/sessions/m",
		LoadRequest{Program: routesProgram(8, 40), Plan: "auto", Goal: "reach(c0_0, Y)"}, &load)
	if load.Plan == nil || load.Plan.Chosen != "magic" {
		t.Fatalf("load.Plan = %+v, want magic", load.Plan)
	}
	var q QueryResponse
	mustOK(t, ts, "POST", "/v1/sessions/m/query", QueryRequest{Goal: "reach(c0_0, Y)", Limit: 100}, &q)
	if q.Total != 40 {
		t.Fatalf("goal answers = %d, want 40 (the chain below c0_0)", q.Total)
	}
}

// TestAdaptiveReplan drives the selectivity flip end to end through the
// service: a session loaded on all-paved chains picks orig; committing
// batches of unpaved dead spurs shifts the statistics until the
// re-plan cadence swaps the session onto opt — atomically, with
// answers intact.
func TestAdaptiveReplan(t *testing.T) {
	const chains, depth = 4, 25
	ts := newTestServer(t, Config{ReplanEvery: 2})

	var load LoadResponse
	mustOK(t, ts, "POST", "/v1/sessions/a",
		LoadRequest{Program: routesProgram(chains, depth), Plan: "auto"}, &load)
	if load.Plan == nil || load.Plan.Chosen != "orig" {
		t.Fatalf("initial plan = %+v, want orig", load.Plan)
	}
	var q QueryResponse
	mustOK(t, ts, "POST", "/v1/sessions/a/query", QueryRequest{Goal: "reach(X, Y)", Limit: 1}, &q)
	base := q.Total

	const batches = 8
	for i := 0; i < batches; i++ {
		var up UpdateResponse
		mustOK(t, ts, "POST", "/v1/sessions/a/changes", ChangesRequest{Adds: spurFacts(chains, depth, i)}, &up)
		if up.Applied != chains*depth {
			t.Fatalf("batch %d applied %d, want %d", i, up.Applied, chains*depth)
		}
	}

	var st SessionStats
	mustOK(t, ts, "GET", "/v1/sessions/a/stats", nil, &st)
	ps := st.Planner
	if ps == nil || ps.Chosen != "opt" {
		t.Fatalf("after %d spur batches planner = %+v, want opt chosen", batches, ps)
	}
	if ps.Replans < 1 {
		t.Fatalf("replans = %d, want >= 1", ps.Replans)
	}

	// Each spur hop derives exactly one reach tuple (the base rule);
	// the closed spur nodes extend nothing. The swapped plan must agree.
	mustOK(t, ts, "POST", "/v1/sessions/a/query", QueryRequest{Goal: "reach(X, Y)", Limit: 1}, &q)
	if want := base + batches*chains*depth; q.Total != want {
		t.Fatalf("reach count after replan = %d, want %d", q.Total, want)
	}
}

// TestPlanSurvivesRecovery: the chosen plan is part of the checkpoint
// header, so a restarted server serves the same program without
// re-planning, and the stats surface says so.
func TestPlanSurvivesRecovery(t *testing.T) {
	fs := testutil.NewFaultFS()
	srv := New(durableCfg(fs, false, 100))
	ts := httptest.NewServer(srv.Handler())
	var load LoadResponse
	mustOK(t, ts, "POST", "/v1/sessions/d",
		LoadRequest{Program: routesProgram(2, 10), Plan: "auto"}, &load)
	if load.Plan == nil {
		t.Fatal("no plan decision on durable load")
	}
	chosen := string(load.Plan.Chosen)
	var up UpdateResponse
	mustOK(t, ts, "POST", "/v1/sessions/d/changes", ChangesRequest{Adds: spurFacts(2, 10, 0)}, &up)
	ts.Close()
	srv.Close()

	srv2, _ := recoverOnto(t, fs, false, 100)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var st SessionStats
	mustOK(t, ts2, "GET", "/v1/sessions/d/stats", nil, &st)
	ps := st.Planner
	if ps == nil || ps.Requested != "auto" || ps.Chosen != chosen {
		t.Fatalf("recovered planner = %+v, want requested auto chosen %s", ps, chosen)
	}
	if !strings.Contains(ps.Reason, "restored") || len(ps.Candidates) != 0 {
		t.Fatalf("recovered decision should be marked restored with no candidate table: %+v", ps)
	}
	// And the recovered session still serves correct answers.
	var q QueryResponse
	mustOK(t, ts2, "POST", "/v1/sessions/d/query", QueryRequest{Goal: "reach(c0_0, Y)", Limit: 1}, &q)
	if q.Total != 10+1 { // the chain below c0_0 plus its batch-0 spur
		t.Fatalf("recovered reach(c0_0, Y) = %d, want 11", q.Total)
	}
}

// checkCostModel compares what a planned session's cost model answers
// for every extensional relation — the relations its engine prices from
// the cost model — against a recount of the relation's tuples: the row
// count, each column's distinct count (the index size the estimator
// reads) and the selectivity of every value present. Caller must
// quiesce the write path (the tests only call it between acknowledged
// writes).
func checkCostModel(t *testing.T, sess *session, when string) {
	t.Helper()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	p := sess.prog.Load()
	if !p.planned() {
		t.Fatalf("%s: session is not planned", when)
	}
	cm := eval.StatsCostModel{DB: sess.db}
	checked := 0
	for _, pred := range sess.db.Preds() {
		if p.idb[pred] {
			continue
		}
		rel := sess.db.Relation(pred)
		tuples := rel.Tuples()
		if rows, ok := cm.Rows(pred); !ok || rows != float64(len(tuples)) {
			t.Fatalf("%s: Rows(%s) = %v, %v; a recount finds %d", when, pred, rows, ok, len(tuples))
		}
		for col := 0; col < rel.Arity; col++ {
			counts := map[storage.Value]int{}
			for _, tp := range tuples {
				counts[tp[col]]++
			}
			if d := len(rel.EnsureIndex(col)); d != len(counts) {
				t.Fatalf("%s: %s column %d indexes %d distinct values; a recount finds %d", when, pred, col, d, len(counts))
			}
			for v, n := range counts {
				want := float64(n) / float64(len(tuples))
				if got, ok := cm.Selectivity(pred, col, v.Term()); !ok || got != want {
					t.Fatalf("%s: Selectivity(%s, %d, %s) = %v, %v; a recount finds %v", when, pred, col, v, got, ok, want)
				}
			}
		}
		checked++
	}
	if checked < 2 {
		t.Fatalf("%s: only %d EDB relations checked", when, checked)
	}
}

// TestCostModelIncrementalProperty is the property test at the
// service level: after every committed Z-set batch — random adds and
// deletes, including no-ops and brand-new predicates — a planned
// session's cost model answers what a recount of its relations says;
// and the equality survives checkpoint + crash recovery + WAL replay +
// further commits.
func TestCostModelIncrementalProperty(t *testing.T) {
	fs := testutil.NewFaultFS()
	srv := New(durableCfg(fs, false, 4))
	ts := httptest.NewServer(srv.Handler())
	mustOK(t, ts, "POST", "/v1/sessions/s", LoadRequest{Program: `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		heavy(X) :- edge(X, Y), weight(Y, W), W > 2.
		edge(n0, n1).
		weight(n1, 3).
	`, Plan: "auto"}, nil)

	rng := rand.New(rand.NewSource(99))
	randFact := func() string {
		switch rng.Intn(3) {
		case 0:
			// A predicate the program never mentions: its relation is
			// born from an update, and is priced like any other.
			return fmt.Sprintf("extra(n%d)", rng.Intn(8))
		case 1:
			return fmt.Sprintf("weight(n%d, %d)", rng.Intn(8), rng.Intn(5))
		default:
			return fmt.Sprintf("edge(n%d, n%d)", rng.Intn(8), rng.Intn(8))
		}
	}
	commit := func(ts *httptest.Server, srv *Server, round int) {
		var adds, dels []string
		for i := 0; i < 1+rng.Intn(4); i++ {
			adds = append(adds, randFact())
		}
		for i := 0; i < rng.Intn(3); i++ {
			dels = append(dels, randFact())
		}
		// A fact on both sides is refused outright; drop colliding dels.
		seen := map[string]bool{}
		for _, a := range adds {
			seen[a] = true
		}
		kept := dels[:0]
		for _, d := range dels {
			if !seen[d] {
				kept = append(kept, d)
			}
		}
		mustOK(t, ts, "POST", "/v1/sessions/s/changes", ChangesRequest{Adds: adds, Dels: kept}, nil)
		checkCostModel(t, srv.session("s"), fmt.Sprintf("round %d", round))
	}
	for round := 0; round < 25; round++ {
		commit(ts, srv, round)
	}
	ts.Close()
	srv.Close()

	// Across recovery: the relations are rebuilt from the checkpoint
	// and maintained through WAL replay and fresh commits.
	srv2, _ := recoverOnto(t, fs, false, 4)
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	checkCostModel(t, srv2.session("s"), "after recovery")
	for round := 0; round < 10; round++ {
		commit(ts2, srv2, 100+round)
	}
}
