package eval

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

func mustProgram(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func chainDB(n int) *storage.Database {
	db := storage.NewDatabase()
	for i := 0; i < n; i++ {
		db.Add("edge", ast.Sym(fmt.Sprintf("n%d", i)), ast.Sym(fmt.Sprintf("n%d", i+1)))
	}
	return db
}

const tcSrc = `
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- tc(X, Z), edge(Z, Y).
`

func TestTransitiveClosureChain(t *testing.T) {
	prog := mustProgram(t, tcSrc)
	db := chainDB(10)
	e := New(prog, db)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// A chain of 11 nodes has 55 closure pairs.
	if got := db.Count("tc"); got != 55 {
		t.Errorf("tc count = %d, want 55", got)
	}
	res, err := e.Query(ast.NewAtom("tc", ast.Sym("n0"), ast.Var("Y")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Errorf("reachable from n0 = %d, want 10", len(res))
	}
}

func TestNaiveMatchesSemiNaive(t *testing.T) {
	prog := mustProgram(t, tcSrc)
	dbs := []*storage.Database{chainDB(8), storage.NewDatabase()}
	// A database with a cycle.
	cyc := storage.NewDatabase()
	for i := 0; i < 5; i++ {
		cyc.Add("edge", ast.Sym(fmt.Sprintf("c%d", i)), ast.Sym(fmt.Sprintf("c%d", (i+1)%5)))
	}
	dbs = append(dbs, cyc)
	for i, db := range dbs {
		d1, d2 := db.Clone(), db.Clone()
		e1 := New(prog, d1)
		if err := e1.Run(); err != nil {
			t.Fatal(err)
		}
		e2 := New(prog, d2)
		e2.UseNaive()
		if err := e2.Run(); err != nil {
			t.Fatal(err)
		}
		if !d1.Equal(d2) {
			t.Errorf("db %d: naive and semi-naive disagree", i)
		}
	}
}

func TestSemiNaiveDoesLessWork(t *testing.T) {
	prog := mustProgram(t, tcSrc)
	d1, d2 := chainDB(60), chainDB(60)
	e1 := New(prog, d1)
	if err := e1.Run(); err != nil {
		t.Fatal(err)
	}
	e2 := New(prog, d2)
	e2.UseNaive()
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if e1.Stats().Derived >= e2.Stats().Derived {
		t.Errorf("semi-naive derived %d, naive %d: expected strictly fewer",
			e1.Stats().Derived, e2.Stats().Derived)
	}
}

func TestComparisonSubgoals(t *testing.T) {
	prog := mustProgram(t, `
big(X, Y) :- pair(X, Y), Y > 10.
eqsel(X) :- pair(X, Y), Y = 5.
ne(X) :- pair(X, Y), X != Y.
`)
	db := storage.NewDatabase()
	db.Add("pair", ast.Int(1), ast.Int(5))
	db.Add("pair", ast.Int(2), ast.Int(50))
	db.Add("pair", ast.Int(3), ast.Int(3))
	e := New(prog, db)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if db.Count("big") != 1 {
		t.Errorf("big = %d", db.Count("big"))
	}
	if db.Count("eqsel") != 1 {
		t.Errorf("eqsel = %d", db.Count("eqsel"))
	}
	if db.Count("ne") != 2 {
		t.Errorf("ne = %d", db.Count("ne"))
	}
}

func TestEqualityBindsVariable(t *testing.T) {
	// X2 = a appears before X2 is otherwise bound: the planner must
	// treat it as a binding step (this shape is produced by
	// rectification of heads with constants).
	prog := mustProgram(t, `p(X1, X2) :- q(X1), X2 = a.`)
	db := storage.NewDatabase()
	db.Add("q", ast.Int(1))
	e := New(prog, db)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	res, _ := e.Query(ast.NewAtom("p", ast.Var("A"), ast.Var("B")))
	if len(res) != 1 || res[0][1] != storage.InternSym("a") {
		t.Errorf("res = %v", res)
	}
}

func TestProgramFactsLoaded(t *testing.T) {
	prog := mustProgram(t, `
edge(a, b).
edge(b, c).
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- tc(X, Z), edge(Z, Y).
`)
	db := storage.NewDatabase()
	e := New(prog, db)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if db.Count("tc") != 3 {
		t.Errorf("tc = %d, want 3", db.Count("tc"))
	}
}

func TestMultipleIDBStrata(t *testing.T) {
	prog := mustProgram(t, `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).
sib(X, Y) :- par(X, P), par(Y, P), X != Y.
cousinish(X, Y) :- anc(X, A), sib(A, B), anc(Y, B).
`)
	db := storage.NewDatabase()
	// Two siblings s1, s2 under root; s1 has child c1; s2 has child c2.
	db.Add("par", ast.Sym("s1"), ast.Sym("root"))
	db.Add("par", ast.Sym("s2"), ast.Sym("root"))
	db.Add("par", ast.Sym("c1"), ast.Sym("s1"))
	db.Add("par", ast.Sym("c2"), ast.Sym("s2"))
	e := New(prog, db)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	res, _ := e.Query(ast.NewAtom("cousinish", ast.Sym("c1"), ast.Sym("c2")))
	if len(res) != 1 {
		t.Errorf("c1/c2 cousins: got %d results", len(res))
	}
}

func TestMutualRecursionEvaluates(t *testing.T) {
	// Input programs of the paper's class have no mutual recursion, but
	// the §4 isolation transformation introduces mutually recursive
	// auxiliaries, so the engine evaluates whole strongly connected
	// components.
	prog := mustProgram(t, `
even(X) :- zero(X).
even(Y) :- odd(X), succ(X, Y).
odd(Y) :- even(X), succ(X, Y).
`)
	db := storage.NewDatabase()
	db.Add("zero", ast.Int(0))
	for i := 0; i < 10; i++ {
		db.Add("succ", ast.Int(i), ast.Int(i+1))
	}
	e := New(prog, db)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if db.Count("even") != 6 || db.Count("odd") != 5 {
		t.Errorf("even = %d, odd = %d; want 6, 5", db.Count("even"), db.Count("odd"))
	}
	// Naive agrees.
	db2 := storage.NewDatabase()
	db2.Add("zero", ast.Int(0))
	for i := 0; i < 10; i++ {
		db2.Add("succ", ast.Int(i), ast.Int(i+1))
	}
	e2 := New(prog, db2)
	e2.UseNaive()
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
	if !db.Equal(db2) {
		t.Error("naive and semi-naive disagree on mutual recursion")
	}
}

func TestUnsafeRuleRejected(t *testing.T) {
	prog := mustProgram(t, `p(X) :- q(X), Y > 3.`)
	db := storage.NewDatabase()
	db.Add("q", ast.Int(1))
	e := New(prog, db)
	if err := e.Run(); err == nil {
		t.Error("rule with unbindable comparison variable must be rejected")
	}
}

// Regression: a variable repeated within one body atom (e.g. e(X, X))
// must not drive the index probe when the same scan binds it — the slot
// is still nil when the probe would read it, so the lookup silently
// matched nothing and every such tuple was dropped. Covers the
// unbound-first-atom shape, a later safe constant column, and a
// recursive rule, in all three evaluation modes.
func TestRepeatedVariableInAtom(t *testing.T) {
	const src = `
self(X) :- e(X, X).
next(Y) :- self(X), edge(X, Y).
tri(X) :- f(X, X, b).
reach(X) :- start(X).
reach(Y) :- reach(X), edge(X, Y), e(Y, Y).
`
	mkDB := func() *storage.Database {
		db := storage.NewDatabase()
		db.Add("e", ast.Sym("a"), ast.Sym("a"))
		db.Add("e", ast.Sym("a"), ast.Sym("b"))
		db.Add("e", ast.Sym("b"), ast.Sym("b"))
		db.Add("e", ast.Sym("c"), ast.Sym("a"))
		db.Add("edge", ast.Sym("a"), ast.Sym("b"))
		db.Add("edge", ast.Sym("b"), ast.Sym("c"))
		db.Add("f", ast.Sym("a"), ast.Sym("a"), ast.Sym("b"))
		db.Add("f", ast.Sym("a"), ast.Sym("c"), ast.Sym("b"))
		db.Add("f", ast.Sym("d"), ast.Sym("d"), ast.Sym("b"))
		db.Add("f", ast.Sym("d"), ast.Sym("d"), ast.Sym("x"))
		db.Add("start", ast.Sym("a"))
		return db
	}
	want := map[string][]string{
		"self":  {"a", "b"},
		"next":  {"b", "c"},
		"tri":   {"a", "d"},
		"reach": {"a", "b"},
	}
	modes := []struct {
		name string
		cfg  func(*Engine)
	}{
		{"semi-naive", func(e *Engine) {}},
		{"naive", func(e *Engine) { e.UseNaive() }},
	}
	for _, m := range modes {
		prog := mustProgram(t, src)
		db := mkDB()
		e := New(prog, db)
		m.cfg(e)
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		for pred, syms := range want {
			if got := db.Count(pred); got != len(syms) {
				t.Errorf("%s: %s count = %d, want %d", m.name, pred, got, len(syms))
			}
			rel := db.Relation(pred)
			for _, s := range syms {
				if rel == nil || !rel.Contains(storage.TupleOf(ast.Sym(s))) {
					t.Errorf("%s: missing %s(%s)", m.name, pred, s)
				}
			}
		}
	}
}

func TestQueryWithRepeatedVariable(t *testing.T) {
	prog := mustProgram(t, `loopy(X, Y) :- edge(X, Y).`)
	db := storage.NewDatabase()
	db.Add("edge", ast.Sym("a"), ast.Sym("a"))
	db.Add("edge", ast.Sym("a"), ast.Sym("b"))
	e := New(prog, db)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(ast.NewAtom("loopy", ast.Var("X"), ast.Var("X")))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Errorf("self loops = %d, want 1", len(res))
	}
}

func TestQueryMissingRelation(t *testing.T) {
	e := New(&ast.Program{}, storage.NewDatabase())
	res, err := e.Query(ast.NewAtom("nope", ast.Var("X")))
	if err != nil || res != nil {
		t.Errorf("missing relation: res=%v err=%v", res, err)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		op   string
		a, b ast.Term
		want bool
	}{
		{"=", ast.Int(3), ast.Int(3), true},
		{"=", ast.Int(3), ast.Sym("3"), false},
		{"!=", ast.Int(3), ast.Sym("3"), true},
		{"<", ast.Int(2), ast.Int(3), true},
		{"<", ast.Sym("a"), ast.Sym("b"), true},
		{"<=", ast.Int(3), ast.Int(3), true},
		{">", ast.Int(3), ast.Int(2), true},
		{">=", ast.Int(2), ast.Int(3), false},
		// Cross-kind ordering is total: Int < Sym.
		{"<", ast.Int(999), ast.Sym("a"), true},
	}
	for _, c := range cases {
		got, err := Compare(c.op, c.a, c.b)
		if err != nil {
			t.Fatalf("%v %s %v: %v", c.a, c.op, c.b, err)
		}
		if got != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
	if _, err := Compare("<", ast.Var("X"), ast.Int(1)); err == nil {
		t.Error("unbound comparison must error")
	}
	if _, err := Compare("??", ast.Int(1), ast.Int(1)); err == nil {
		t.Error("unknown operator must error")
	}
}

func TestStatsAccumulate(t *testing.T) {
	prog := mustProgram(t, tcSrc)
	db := chainDB(10)
	e := New(prog, db)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Inserted != 55 {
		t.Errorf("Inserted = %d, want 55", s.Inserted)
	}
	if s.Derived < s.Inserted {
		t.Errorf("Derived %d < Inserted %d", s.Derived, s.Inserted)
	}
	if s.Iterations == 0 || s.Probes == 0 || s.RuleFirings == 0 {
		t.Errorf("zero counters: %+v", s)
	}
	var total Stats
	total.Add(s)
	total.Add(s)
	if total.Inserted != 2*s.Inserted {
		t.Error("Stats.Add broken")
	}
}

func TestSeededRecursion(t *testing.T) {
	// Seeds already present in the IDB relation participate in round 0.
	prog := mustProgram(t, `tc(X, Y) :- tc(X, Z), edge(Z, Y).`)
	db := storage.NewDatabase()
	db.Add("tc", ast.Sym("a"), ast.Sym("b"))
	db.Add("edge", ast.Sym("b"), ast.Sym("c"))
	e := New(prog, db)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	res, _ := e.Query(ast.NewAtom("tc", ast.Sym("a"), ast.Sym("c")))
	if len(res) != 1 {
		t.Error("seeded tuple must drive the recursion")
	}
}
