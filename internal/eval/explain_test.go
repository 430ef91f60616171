package eval

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/storage"
)

// rankedEngine evaluates prog over db recording the ranks Explain walks.
func rankedEngine(t *testing.T, prog *ast.Program, db *storage.Database) *Engine {
	t.Helper()
	e := New(prog, db)
	e.SetRankSink(NewZState().Record)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExplainChain(t *testing.T) {
	prog := mustProgram(t, tcSrc)
	db := chainDB(5)
	e := rankedEngine(t, prog, db)
	d, err := e.Explain(ast.NewAtom("tc", ast.Sym("n0"), ast.Sym("n3")))
	if err != nil {
		t.Fatal(err)
	}
	// Left-linear derivation: 3 tc nodes + 3 edge leaves = 6 nodes.
	if d.Size() != 6 {
		t.Errorf("derivation size = %d, want 6:\n%s", d.Size(), d)
	}
	s := d.String()
	if !strings.Contains(s, "[r1]") || !strings.Contains(s, "[fact]") {
		t.Errorf("rendering = %q", s)
	}
	// Every leaf is an edge fact present in the database.
	var walk func(x *Derivation)
	walk = func(x *Derivation) {
		if len(x.Children) == 0 && x.Rule == "" {
			if x.Atom.Pred != "edge" || !db.Relation("edge").Contains(storage.TupleOfTerms(x.Atom.Args)) {
				t.Errorf("bad leaf %s", x.Atom)
			}
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(d)
}

func TestExplainCycle(t *testing.T) {
	// Cyclic data: tc(c0, c0) must still get an acyclic derivation.
	prog := mustProgram(t, tcSrc)
	db := storage.NewDatabase()
	db.Add("edge", ast.Sym("c0"), ast.Sym("c1"))
	db.Add("edge", ast.Sym("c1"), ast.Sym("c0"))
	e := rankedEngine(t, prog, db)
	d, err := e.Explain(ast.NewAtom("tc", ast.Sym("c0"), ast.Sym("c0")))
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() < 3 {
		t.Errorf("derivation too small:\n%s", d)
	}
}

func TestExplainErrors(t *testing.T) {
	prog := mustProgram(t, tcSrc)
	db := chainDB(3)
	e := rankedEngine(t, prog, db)
	if _, err := e.Explain(ast.NewAtom("tc", ast.Var("X"), ast.Sym("n1"))); err == nil {
		t.Error("non-ground goal must fail")
	}
	if _, err := e.Explain(ast.NewAtom("tc", ast.Sym("n2"), ast.Sym("n0"))); err == nil {
		t.Error("underivable tuple must fail")
	}
	if _, err := e.Explain(ast.NewAtom("nosuch", ast.Sym("x"))); err == nil {
		t.Error("unknown predicate must fail")
	}
}

func TestExplainEDBFact(t *testing.T) {
	prog := mustProgram(t, tcSrc)
	db := chainDB(2)
	e := rankedEngine(t, prog, db)
	d, err := e.Explain(ast.NewAtom("edge", ast.Sym("n0"), ast.Sym("n1")))
	if err != nil {
		t.Fatal(err)
	}
	if d.Rule != "" || len(d.Children) != 0 {
		t.Errorf("EDB fact must be a leaf: %s", d)
	}
}

func TestExplainIDBFact(t *testing.T) {
	prog := mustProgram(t, `
special(gold).
shiny(X) :- special(X).
`)
	db := storage.NewDatabase()
	e := rankedEngine(t, prog, db)
	d, err := e.Explain(ast.NewAtom("shiny", ast.Sym("gold")))
	if err != nil {
		t.Fatal(err)
	}
	// special(gold) is defined only by a fact, so it explains as a leaf.
	if len(d.Children) != 1 || d.Children[0].Rule != "" || len(d.Children[0].Children) != 0 {
		t.Errorf("derivation = %s", d)
	}
}

func TestExplainMultiRule(t *testing.T) {
	// An atom derivable by two rules gets one consistent explanation.
	prog := mustProgram(t, `
p(X) :- a(X).
p(X) :- b(X).
`)
	db := storage.NewDatabase()
	db.Add("b", ast.Sym("v"))
	e := rankedEngine(t, prog, db)
	d, err := e.Explain(ast.NewAtom("p", ast.Sym("v")))
	if err != nil {
		t.Fatal(err)
	}
	if d.Rule != "r1" {
		t.Errorf("rule = %s, want r1 (the b rule)", d.Rule)
	}
}
