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
	"sort"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	_, ts := startTestServer(t, cfg)
	return ts
}

// startTestServer also hands back the Server, for tests that install
// hooks or look inside a session.
func startTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// edgeDelta is the net EDB delta holding the one tuple edge(a, b).
func edgeDelta(a, b string) map[string][]storage.Tuple {
	return map[string][]storage.Tuple{"edge": {storage.TupleOf(ast.Sym(a), ast.Sym(b))}}
}

// call posts a JSON request and decodes the JSON reply into out (which
// may be nil). It returns the status code.
func call(t *testing.T, ts *httptest.Server, method, path string, req, out any) int {
	t.Helper()
	var body io.Reader
	if req != nil {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	hreq, err := http.NewRequest(method, ts.URL+path, body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return res.StatusCode
}

func mustOK(t *testing.T, ts *httptest.Server, method, path string, req, out any) {
	t.Helper()
	if code := call(t, ts, method, path, req, out); code != http.StatusOK {
		t.Fatalf("%s %s = %d, want 200", method, path, code)
	}
}

// Most tests drive one session; these are its routes.
const (
	testSession = "default"
	loadPath    = "/v1/sessions/" + testSession
	queryPath   = loadPath + "/query"
	changesPath = loadPath + "/changes"
	statsPath   = loadPath + "/stats"
)

// addFacts and delFacts build the one-sided ChangesRequest that inserts
// or deletes src (one entry may carry several period-separated facts).
func addFacts(src string) ChangesRequest { return ChangesRequest{Adds: []string{src}} }
func delFacts(src string) ChangesRequest { return ChangesRequest{Dels: []string{src}} }

func queryTuples(t *testing.T, ts *httptest.Server, goal string) [][]string {
	t.Helper()
	var resp QueryResponse
	mustOK(t, ts, "POST", queryPath, QueryRequest{Goal: goal}, &resp)
	return resp.Tuples
}

const tcSrc = `
	tc(X, Y) :- edge(X, Y).
	tc(X, Y) :- tc(X, Z), edge(Z, Y).
	edge(a, b).
	edge(b, c).
`

// TestEndToEnd is the full round trip: load, query, insert (new
// derivations appear), delete (they retract), stats.
func TestEndToEnd(t *testing.T) {
	ts := newTestServer(t, Config{})

	var load LoadResponse
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, &load)
	if load.Rules != 2 || load.EDBTuples != 2 {
		t.Fatalf("load = %+v, want 2 rules, 2 EDB tuples", load)
	}
	if load.IDBTuples != 3 { // tc: ab bc ac
		t.Fatalf("load derived %d IDB tuples, want 3", load.IDBTuples)
	}

	if got := queryTuples(t, ts, "tc(a, Y)"); len(got) != 2 {
		t.Fatalf("tc(a, Y) = %v, want 2 answers", got)
	}

	var ins UpdateResponse
	mustOK(t, ts, "POST", changesPath, addFacts("edge(c, d)."), &ins)
	if ins.Applied != 1 || ins.Mode != "incremental" {
		t.Fatalf("insert = %+v, want 1 applied incremental", ins)
	}
	if got := queryTuples(t, ts, "tc(a, Y)"); len(got) != 3 {
		t.Fatalf("after insert, tc(a, Y) = %v, want 3 answers", got)
	}
	// Duplicate insert is a no-op.
	mustOK(t, ts, "POST", changesPath, addFacts("edge(c, d)."), &ins)
	if ins.Applied != 0 || ins.Ignored != 1 || ins.Mode != "noop" {
		t.Fatalf("duplicate insert = %+v", ins)
	}

	var del UpdateResponse
	mustOK(t, ts, "POST", changesPath, delFacts("edge(b, c)."), &del)
	if del.Applied != 1 || del.Mode != "incremental" {
		t.Fatalf("delete = %+v", del)
	}
	if got := queryTuples(t, ts, "tc(a, Y)"); len(got) != 1 {
		t.Fatalf("after delete, tc(a, Y) = %v, want only tc(a, b)", got)
	}
	if got := queryTuples(t, ts, "tc(c, d)"); len(got) != 1 {
		t.Fatalf("tc(c, d) should survive, got %v", got)
	}

	var st SessionStats
	mustOK(t, ts, "GET", statsPath, nil, &st)
	if st.Rules != 2 || st.Changes != 3 || st.Incremental != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Relations["tc"] != 2 || st.Relations["edge"] != 2 {
		t.Fatalf("stats relations = %v", st.Relations)
	}
	if st.Queries < 4 {
		t.Fatalf("stats queries = %d, want >= 4", st.Queries)
	}
}

func TestErrorsAndGuards(t *testing.T) {
	ts := newTestServer(t, Config{})

	// Everything but load requires a loaded session.
	if code := call(t, ts, "POST", queryPath, QueryRequest{Goal: "p(X)"}, nil); code != http.StatusNotFound {
		t.Fatalf("query before load = %d, want 404", code)
	}
	if code := call(t, ts, "POST", changesPath, addFacts("p(a)."), nil); code != http.StatusNotFound {
		t.Fatalf("insert before load = %d, want 404", code)
	}

	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)

	for name, tc := range map[string]struct {
		path string
		req  any
	}{
		"bad program":     {loadPath, LoadRequest{Program: "tc(X :-"}},
		"bad goal":        {queryPath, QueryRequest{Goal: "tc(X,"}},
		"goal arity":      {queryPath, QueryRequest{Goal: "tc(X, Y, Z)"}},
		"rule as fact":    {changesPath, addFacts("p(X) :- q(X).")},
		"ic as fact":      {changesPath, addFacts("p(X) -> q(X).")},
		"idb insert":      {changesPath, addFacts("tc(a, z).")},
		"idb delete":      {changesPath, delFacts("tc(a, b).")},
		"non-ground fact": {changesPath, addFacts("edge(a, X).")},
	} {
		if code := call(t, ts, "POST", tc.path, tc.req, nil); code != http.StatusBadRequest {
			t.Errorf("%s: POST %s = %d, want 400", name, tc.path, code)
		}
	}

	// Unknown predicate queries are empty, not errors.
	if got := queryTuples(t, ts, "nothing(X)"); len(got) != 0 {
		t.Fatalf("unknown pred = %v, want empty", got)
	}
	// A failed load keeps the previous program serving.
	if got := queryTuples(t, ts, "tc(a, Y)"); len(got) != 2 {
		t.Fatalf("after failed load, tc(a, Y) = %v, want 2", got)
	}
}

// TestRecomputeOnNegation: an update reaching a negated predicate is no
// longer a recompute. The sweep maintains it incrementally — the insert
// that closes a cycle retracts isolated/1, the delete that opens it
// brings it back — and the session never rebuilds.
func TestRecomputeOnNegation(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		isolated(X) :- node(X), not tc(X, X).
		node(a). node(b).
		edge(a, b).
	`}, nil)

	if got := queryTuples(t, ts, "isolated(X)"); len(got) != 2 {
		t.Fatalf("isolated = %v, want a and b", got)
	}
	var upd UpdateResponse
	mustOK(t, ts, "POST", changesPath, addFacts("edge(b, a)."), &upd)
	if upd.Mode != "incremental" {
		t.Fatalf("insert reaching negation: mode = %q, want incremental", upd.Mode)
	}
	// a and b are now on a cycle: neither is isolated.
	if got := queryTuples(t, ts, "isolated(X)"); len(got) != 0 {
		t.Fatalf("after cycle, isolated = %v, want none", got)
	}
	if got := queryTuples(t, ts, "tc(X, Y)"); len(got) != 4 {
		t.Fatalf("after cycle, tc = %v, want all four pairs", got)
	}
	mustOK(t, ts, "POST", changesPath, delFacts("edge(b, a)."), &upd)
	if upd.Mode != "incremental" {
		t.Fatalf("delete reaching negation: mode = %q, want incremental", upd.Mode)
	}
	if got := queryTuples(t, ts, "isolated(X)"); len(got) != 2 {
		t.Fatalf("after cycle removed, isolated = %v, want a and b", got)
	}
	if got := queryTuples(t, ts, "tc(X, Y)"); len(got) != 1 {
		t.Fatalf("after cycle removed, tc = %v, want only (a, b)", got)
	}
	var st SessionStats
	mustOK(t, ts, "GET", statsPath, nil, &st)
	if st.Recomputes != 0 || st.Incremental != 2 {
		t.Fatalf("stats recomputes = %d incremental = %d, want 0 and 2", st.Recomputes, st.Incremental)
	}
}

// differentialCase drives random updates through a server and checks,
// after every operation, that each original IDB predicate queried over
// HTTP equals a from-scratch evaluation of the ORIGINAL program on the
// same EDB — the optimized program must be indistinguishable.
type differentialCase struct {
	program string // source loaded into the server
	goals   map[string]string
	// step returns the next write and maintains the local EDB mirror.
	step func(rng *rand.Rand, mirror map[string]map[string]storage.Tuple) ChangesRequest
}

func runDifferential(t *testing.T, c differentialCase, plan string, steps int) {
	t.Helper()
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: c.program, Plan: plan}, nil)

	orig, err := parser.Parse(c.program)
	if err != nil {
		t.Fatal(err)
	}
	var ruleOnly []ast.Rule
	mirror := map[string]map[string]storage.Tuple{}
	for _, r := range orig.Program.Rules {
		if r.IsFact() {
			if mirror[r.Head.Pred] == nil {
				mirror[r.Head.Pred] = map[string]storage.Tuple{}
			}
			tu := storage.TupleOfTerms(r.Head.Args)
			mirror[r.Head.Pred][tu.String()] = tu
		} else {
			ruleOnly = append(ruleOnly, r)
		}
	}
	prog := &ast.Program{Rules: ruleOnly}
	prog.EnsureLabels()

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < steps; step++ {
		change := c.step(rng, mirror)
		mustOK(t, ts, "POST", changesPath, change, nil)

		// From-scratch reference over the mirrored EDB.
		db := storage.NewDatabase()
		for p, ts := range mirror {
			for _, tu := range ts {
				db.Ensure(p, len(tu)).Insert(tu)
			}
		}
		if err := eval.New(prog, db).Run(); err != nil {
			t.Fatal(err)
		}
		for pred, goal := range c.goals {
			got := renderSorted(queryTuples(t, ts, goal))
			var wantTuples [][]string
			if rel := db.Relation(pred); rel != nil {
				for _, tu := range rel.Tuples() {
					row := make([]string, len(tu))
					for i, term := range tu {
						row[i] = term.String()
					}
					wantTuples = append(wantTuples, row)
				}
			}
			want := renderSorted(wantTuples)
			if got != want {
				t.Fatalf("step %d (%+v): %s over HTTP diverged from from-scratch\ngot:  %s\nwant: %s",
					step, change, pred, got, want)
			}
		}
	}
}

func renderSorted(rows [][]string) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		b, _ := json.Marshal(r)
		out[i] = string(b)
	}
	sort.Strings(out)
	b, _ := json.Marshal(out)
	return string(b)
}

// tcDifferential mutates a random edge relation under a three-stratum
// program.
var tcDifferential = differentialCase{
	program: `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		reach(X) :- tc(root, X).
		pair(X, Y) :- reach(X), reach(Y), edge(X, Y).
		edge(root, n0).
	`,
	goals: map[string]string{"tc": "tc(X, Y)", "reach": "reach(X)", "pair": "pair(X, Y)"},
	step: func(rng *rand.Rand, mirror map[string]map[string]storage.Tuple) ChangesRequest {
		edges := mirror["edge"]
		tu := storage.TupleOf(ast.Sym(fmt.Sprintf("n%d", rng.Intn(9))), ast.Sym(fmt.Sprintf("n%d", rng.Intn(9))))
		if rng.Intn(3) > 0 || len(edges) <= 1 {
			edges[tu.String()] = tu
			return addFacts(fmt.Sprintf("edge(%s, %s).", tu[0], tu[1]))
		}
		keys := make([]string, 0, len(edges))
		for k := range edges {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		k := keys[rng.Intn(len(keys))]
		tu = edges[k]
		delete(edges, k)
		return delFacts(fmt.Sprintf("edge(%s, %s).", tu[0], tu[1]))
	},
}

// orgDifferential exercises the paper's organization example under the
// IC "boss(E, B, executive) -> experienced(B)". Semantic optimization
// is only equivalence-preserving on consistent databases, so every
// executive boss fact is inserted together with the experienced fact
// it implies, and experienced facts are never deleted.
var orgDifferential = differentialCase{
	program: `
		triple(E1, E2, E3) :- same_level(E1, E2, E3).
		triple(E1, E2, E3) :- boss(U, E3, R), experienced(U), triple(U, E1, E2).
		same_level(u0, u1, u2).
	` + "boss(E, B, R), R = executive -> experienced(B).\n",
	goals: map[string]string{"triple": "triple(A, B, C)"},
	step: func(rng *rand.Rand, mirror map[string]map[string]storage.Tuple) ChangesRequest {
		u := func() ast.Term { return ast.Sym(fmt.Sprintf("u%d", rng.Intn(7))) }
		add := func(pred string, tu storage.Tuple) {
			if mirror[pred] == nil {
				mirror[pred] = map[string]storage.Tuple{}
			}
			mirror[pred][tu.String()] = tu
		}
		switch rng.Intn(4) {
		case 0: // same_level insert
			tu := storage.TupleOf(u(), u(), u())
			add("same_level", tu)
			return addFacts(fmt.Sprintf("same_level(%s, %s, %s).", tu[0], tu[1], tu[2]))
		case 1: // executive boss: keep the IC satisfied
			tu := storage.TupleOf(u(), u(), ast.Sym("executive"))
			add("boss", tu)
			exp := storage.Tuple{tu[1]}
			add("experienced", exp)
			return addFacts(fmt.Sprintf("boss(%s, %s, executive). experienced(%s).", tu[0], tu[1], tu[1]))
		case 2: // manager boss: no IC obligation
			tu := storage.TupleOf(u(), u(), ast.Sym("manager"))
			add("boss", tu)
			return addFacts(fmt.Sprintf("boss(%s, %s, manager).", tu[0], tu[1]))
		default: // delete a boss or same_level fact (never experienced)
			for _, pred := range []string{"boss", "same_level"} {
				facts := mirror[pred]
				if len(facts) == 0 {
					continue
				}
				keys := make([]string, 0, len(facts))
				for k := range facts {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				k := keys[rng.Intn(len(keys))]
				tu := facts[k]
				delete(facts, k)
				return delFacts(fmt.Sprintf("%s%s.", pred, tu))
			}
			// Nothing to delete: insert instead.
			tu := storage.TupleOf(u(), u(), u())
			add("same_level", tu)
			return addFacts(fmt.Sprintf("same_level(%s, %s, %s).", tu[0], tu[1], tu[2]))
		}
	},
}

func TestDifferentialOverHTTP(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    differentialCase
		plan string
	}{
		{"tc/seq", tcDifferential, ""},
		{"tc/semopt", tcDifferential, "auto"}, // no IC: the semantic candidates come up empty
		{"org/semopt/seq", orgDifferential, "opt"},
		{"org/plain", orgDifferential, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			runDifferential(t, tc.c, tc.plan, 40)
		})
	}
}

// TestConcurrentReadersDuringUpdates hammers /query and /stats from
// several goroutines while a writer appends chain edges. Every read
// must observe a consistent snapshot: on a chain, the transitive
// closure always has k(k+1)/2 tuples for some k. Run with -race.
func TestConcurrentReadersDuringUpdates(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		edge(n0, n1).
	`}, nil)

	const writes = 30
	triangle := map[int]bool{}
	for k := 1; k <= writes+1; k++ {
		triangle[k*(k+1)/2] = true
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var resp QueryResponse
				code := call(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(X, Y)"}, &resp)
				if code == http.StatusServiceUnavailable {
					continue // admission gate; fine
				}
				if code != http.StatusOK {
					errs <- fmt.Errorf("query = %d", code)
					return
				}
				if !triangle[resp.Count] {
					errs <- fmt.Errorf("tc count %d is not a consistent chain closure", resp.Count)
					return
				}
				var st SessionStats
				if code := call(t, ts, "GET", statsPath, nil, &st); code != http.StatusOK {
					errs <- fmt.Errorf("stats = %d", code)
					return
				}
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		var upd UpdateResponse
		mustOK(t, ts, "POST", changesPath,
			addFacts(fmt.Sprintf("edge(n%d, n%d).", i, i+1)), &upd)
		if upd.Mode != "incremental" {
			t.Fatalf("write %d: mode = %q", i, upd.Mode)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := queryTuples(t, ts, "tc(n0, Y)"); len(got) != writes+1 {
		t.Fatalf("final tc(n0, Y) = %d answers, want %d", len(got), writes+1)
	}
}

// TestAdmissionGate fills the single query slot with a request whose
// body never arrives, then checks the next query is refused with 503.
func TestAdmissionGate(t *testing.T) {
	srv, ts := startTestServer(t, Config{MaxConcurrentQueries: 1})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)

	pr, pw := io.Pipe()
	// A failing check must still end the slow request, or the server's
	// cleanup would wait for it forever.
	defer pw.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest("POST", ts.URL+queryPath, pr)
		req.ContentLength = -1 // chunked: server must read to see the body
		res, err := ts.Client().Do(req)
		if err == nil {
			res.Body.Close()
		}
	}()

	// Once the slow request holds the gate slot, the next query is a 503.
	waitFor(t, "the slow request to hold the gate", func() bool { return len(srv.gate) == 1 })
	if code := call(t, ts, "POST", queryPath, QueryRequest{Goal: "tc(a, Y)"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("query while the gate slot was held = %d, want 503", code)
	}

	// Release the slot; queries flow again.
	io.WriteString(pw, `{"goal": "tc(a, Y)"}`)
	pw.Close()
	<-done
	if got := queryTuples(t, ts, "tc(a, Y)"); len(got) != 2 {
		t.Fatalf("after release, tc(a, Y) = %v", got)
	}

	var st ServerStatsResponse
	mustOK(t, ts, "GET", "/v1/stats", nil, &st)
	if st.Rejected == 0 {
		t.Fatal("stats should count rejected queries")
	}
}

// TestUpdateArityValidationIsAtomic: a request mixing valid facts with
// an arity mismatch must be refused without applying anything — the
// whole payload is validated before the first tuple lands.
func TestUpdateArityValidationIsAtomic(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)

	// Inconsistent arity within one request for a brand-new predicate.
	if code := call(t, ts, "POST", changesPath, addFacts("q(a). q(a, b)."), nil); code != http.StatusBadRequest {
		t.Fatalf("mixed-arity insert = %d, want 400", code)
	}
	if got := queryTuples(t, ts, "q(X)"); len(got) != 0 {
		t.Fatalf("q(X) = %v, want nothing applied", got)
	}

	// Arity mismatch against an existing relation, behind a valid fact.
	if code := call(t, ts, "POST", changesPath, addFacts("edge(x, y). edge(a, b, c)."), nil); code != http.StatusBadRequest {
		t.Fatalf("bad-arity insert = %d, want 400", code)
	}
	if got := queryTuples(t, ts, "edge(x, Y)"); len(got) != 0 {
		t.Fatalf("edge(x, Y) = %v, want the valid prefix unapplied", got)
	}
	if got := queryTuples(t, ts, "tc(a, Y)"); len(got) != 2 {
		t.Fatalf("tc(a, Y) = %v, want the closure untouched", got)
	}

	// Refused requests leave the session clean: the next update still
	// runs incrementally.
	var upd UpdateResponse
	mustOK(t, ts, "POST", changesPath, addFacts("edge(c, d)."), &upd)
	if upd.Mode != "incremental" {
		t.Fatalf("mode after refused requests = %q, want incremental", upd.Mode)
	}
}

// TestDuplicateFactsInOneRequest: repeated tuples inside one payload
// count once as applied and once per extra occurrence as ignored, for
// deletes just like inserts.
func TestDuplicateFactsInOneRequest(t *testing.T) {
	ts := newTestServer(t, Config{})
	mustOK(t, ts, "POST", loadPath, LoadRequest{Program: tcSrc}, nil)

	var ins UpdateResponse
	mustOK(t, ts, "POST", changesPath, addFacts("edge(c, d). edge(c, d)."), &ins)
	if ins.Applied != 1 || ins.Ignored != 1 || ins.Mode != "incremental" {
		t.Fatalf("duplicate insert = %+v, want 1 applied / 1 ignored", ins)
	}
	var del UpdateResponse
	mustOK(t, ts, "POST", changesPath, delFacts("edge(c, d). edge(c, d)."), &del)
	if del.Applied != 1 || del.Ignored != 1 || del.Mode != "incremental" {
		t.Fatalf("duplicate delete = %+v, want 1 applied / 1 ignored", del)
	}
	if got := queryTuples(t, ts, "tc(a, Y)"); len(got) != 2 {
		t.Fatalf("tc(a, Y) = %v, want the original closure restored", got)
	}
}

// TestCancelledUpdateRollsBack: a client-cancelled update must leave
// the authoritative database at the pre-request fixpoint — EDB delta
// reverted, IDB rebuilt — so later incremental updates stay sound.
func TestCancelledUpdateRollsBack(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, err := s.LoadSession(context.Background(), testSession, LoadRequest{Program: tcSrc}); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	sess := s.session(testSession)
	sess.mu.Lock()
	defer sess.mu.Unlock()

	if _, _, err := sess.applyDelta(cancelled, edgeDelta("c", "d"), nil, false); err == nil {
		t.Fatal("cancelled insert should fail")
	}
	if sess.dirty {
		t.Fatal("failed insert should roll back to a clean session")
	}
	if sess.db.Relation("edge").Contains(storage.TupleOf(ast.Sym("c"), ast.Sym("d"))) {
		t.Fatal("edge(c, d) should be rolled back")
	}
	if n := sess.db.Count("tc"); n != 3 {
		t.Fatalf("tc has %d tuples after insert rollback, want 3", n)
	}

	if _, _, err := sess.applyDelta(cancelled, nil, edgeDelta("b", "c"), false); err == nil {
		t.Fatal("cancelled delete should fail")
	}
	if sess.dirty {
		t.Fatal("failed delete should roll back to a clean session")
	}
	if !sess.db.Relation("edge").Contains(storage.TupleOf(ast.Sym("b"), ast.Sym("c"))) {
		t.Fatal("edge(b, c) should be restored")
	}
	if n := sess.db.Count("tc"); n != 3 {
		t.Fatalf("tc has %d tuples after delete rollback, want 3", n)
	}

	// The rolled-back session still serves incremental updates.
	mode, _, err := sess.applyDelta(context.Background(), edgeDelta("c", "d"), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if mode != "incremental" {
		t.Fatalf("mode after rollback = %q, want incremental", mode)
	}
	if n := sess.db.Count("tc"); n != 6 { // closure of the chain a b c d
		t.Fatalf("tc has %d tuples, want 6", n)
	}
}

// TestDirtySessionRepairsOnNextUpdate: when even rollback failed (the
// dirty flag is set), the next update — including a no-op — must
// rebuild from the EDB instead of trusting incremental maintenance.
func TestDirtySessionRepairsOnNextUpdate(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, err := s.LoadSession(context.Background(), testSession, LoadRequest{Program: tcSrc}); err != nil {
		t.Fatal(err)
	}
	sess := s.session(testSession)
	sess.mu.Lock()
	defer sess.mu.Unlock()

	// Simulate an update whose rollback failed: EDB mutated behind the
	// IDB's back, dirty set.
	sess.db.Ensure("edge", 2).Insert(storage.TupleOf(ast.Sym("c"), ast.Sym("d")))
	sess.dirty = true

	mode, _, err := sess.applyDelta(context.Background(), edgeDelta("d", "e"), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if mode != "recompute" {
		t.Fatalf("dirty insert mode = %q, want recompute", mode)
	}
	if sess.dirty {
		t.Fatal("repair should clear the dirty flag")
	}
	if n := sess.db.Count("tc"); n != 10 { // closure of the chain a b c d e
		t.Fatalf("tc has %d tuples after repair, want 10", n)
	}

	// The delete path repairs too, even when the payload is a no-op —
	// through the committer this time, which is what counts Applied.
	sess.dirty = true
	req := mkReq(t, sess, false, "edge(z, z).")
	s.commitGroup(sess, []*commitReq{req}, req.enq)
	res := <-req.done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.resp.Mode != "recompute" || res.resp.Applied != 0 {
		t.Fatalf("dirty no-op delete = %+v, want recompute with 0 applied", res.resp)
	}
	if sess.dirty {
		t.Fatal("no-op repair should clear the dirty flag")
	}
}
