package eval_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro"
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// certChecker checks proof trees against a program and a ranked
// database, independently of how Explain found them.
type certChecker struct {
	prog    *ast.Program
	db      *storage.Database
	derived map[string]bool            // predicates some rule derives
	reach   map[string]map[string]bool // p -> every predicate p depends on, transitively
}

func newCertChecker(prog *ast.Program, db *storage.Database) *certChecker {
	c := &certChecker{prog: prog, db: db, derived: map[string]bool{}, reach: map[string]map[string]bool{}}
	for _, r := range prog.Rules {
		if !r.IsFact() {
			c.derived[r.Head.Pred] = true
		}
	}
	dep := prog.DependencyGraph()
	for p := range dep {
		seen := map[string]bool{}
		var visit func(q string)
		visit = func(q string) {
			for s := range dep[q] {
				if !seen[s] {
					seen[s] = true
					visit(s)
				}
			}
		}
		visit(p)
		c.reach[p] = seen
	}
	return c
}

// lookup reports whether the ground atom a is a tuple of the database,
// and its rank.
func (c *certChecker) lookup(a ast.Atom) (bool, uint32) {
	rel := c.db.Relation(a.Pred)
	t, ok := storage.LookupTuple(a.Args)
	if !ok || rel == nil || rel.Arity != len(t) {
		return false, 0
	}
	pos, rank := rel.Rank(t)
	return pos >= 0, rank
}

// check verifies d: every node is a tuple of the database; every leaf
// is an EDB tuple or an unranked seed; every other node is a ground
// instance of a rule of its label whose body holds (positive atoms are
// the children in order, negated atoms are absent, comparisons are
// true) and whose children in the node's own component rank strictly
// below it.
func (c *certChecker) check(d *eval.Derivation) error {
	present, rank := c.lookup(d.Atom)
	if !present {
		return fmt.Errorf("%s is not in the database", d.Atom)
	}
	if !c.derived[d.Atom.Pred] || rank == 0 {
		if len(d.Children) > 0 {
			return fmt.Errorf("EDB or seed tuple %s has children", d.Atom)
		}
		return nil
	}
	err := fmt.Errorf("%s [%s]: no rule has that label", d.Atom, d.Rule)
	for _, r := range c.prog.Rules {
		if r.IsFact() || r.Label != d.Rule || r.Head.Pred != d.Atom.Pred {
			continue
		}
		if err = c.instance(r, d, rank); err == nil {
			for _, ch := range d.Children {
				if err := c.check(ch); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return err
}

func (c *certChecker) instance(r ast.Rule, d *eval.Derivation, rank uint32) error {
	env := ast.NewSubst()
	if !ast.MatchAtom(env, r.Head, d.Atom) {
		return fmt.Errorf("%s does not match the head of %s", d.Atom, r)
	}
	kids := d.Children
	for _, l := range r.Body {
		if l.Neg || l.Atom.IsEvaluable() {
			continue
		}
		if len(kids) == 0 {
			return fmt.Errorf("%s: too few children for %s", d.Atom, r)
		}
		ch := kids[0]
		kids = kids[1:]
		if !ast.MatchAtom(env, l.Atom, ch.Atom) {
			return fmt.Errorf("%s: child %s does not match %s of %s", d.Atom, ch.Atom, l.Atom, r)
		}
		if c.reach[d.Atom.Pred][ch.Atom.Pred] && c.reach[ch.Atom.Pred][d.Atom.Pred] {
			if _, cr := c.lookup(ch.Atom); cr >= rank {
				return fmt.Errorf("%s (rank %d): same-component child %s ranks %d", d.Atom, rank, ch.Atom, cr)
			}
		}
	}
	if len(kids) > 0 {
		return fmt.Errorf("%s: too many children for %s", d.Atom, r)
	}
	// Equalities may bind what no positive atom does (rectified heads).
	for bound := true; bound; {
		bound = false
		for _, l := range r.Body {
			if a := env.ApplyAtom(l.Atom); !l.Neg && a.Pred == ast.OpEq && !a.IsGround() {
				for i, arg := range a.Args {
					if v, ok := arg.(ast.Var); ok && ast.IsGround(a.Args[1-i]) {
						env[v], bound = a.Args[1-i], true
					}
				}
			}
		}
	}
	for _, l := range r.Body {
		a := env.ApplyAtom(l.Atom)
		if !a.IsGround() {
			return fmt.Errorf("%s: %s is not ground under %s", d.Atom, a, r)
		}
		switch {
		case a.IsEvaluable():
			ok, err := eval.Compare(a.Pred, a.Args[0], a.Args[1])
			if err != nil || ok == l.Neg {
				return fmt.Errorf("%s: comparison %s fails (%v)", d.Atom, ast.Literal{Neg: l.Neg, Atom: a}, err)
			}
		case l.Neg:
			if present, _ := c.lookup(a); present {
				return fmt.Errorf("%s: negated %s is present", d.Atom, a)
			}
		}
	}
	return nil
}

// checkExplanations explains every tuple of every derived predicate of
// prog in db and checks each proof tree.
func checkExplanations(t *testing.T, prog *ast.Program, db *storage.Database, explain func(ast.Atom) (*eval.Derivation, error)) {
	t.Helper()
	c := newCertChecker(prog, db)
	var preds []string
	for p := range c.derived {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		rel := db.Relation(p)
		if rel == nil {
			continue
		}
		for _, tu := range rel.Tuples() {
			goal := ast.Atom{Pred: p, Args: tu.Terms()}
			d, err := explain(goal)
			if err != nil {
				t.Fatalf("explain %s: %v\nprogram:\n%s", goal, err, prog)
			}
			if err := c.check(d); err != nil {
				t.Fatalf("derivation of %s: %v\n%s\nprogram:\n%s", goal, err, d, prog)
			}
		}
	}
}

// mustRun evaluates prog over db, which ranks what it derives.
func mustRun(t testing.TB, prog *ast.Program, db *storage.Database) {
	t.Helper()
	if err := eval.New(prog, db).Run(); err != nil {
		t.Fatal(err)
	}
}

// TestExplainPastManyCyclicWitnesses: tc(a, d) has 40 groundings
// through d -> cᵢ -> d, each found before its one acyclic grounding
// through b. A search that stops after a fixed number of witnesses
// never reaches it; the walk takes the grounding the ranks certify.
func TestExplainPastManyCyclicWitnesses(t *testing.T) {
	prog := ztProg(t, tcRules)
	db := storage.NewDatabase()
	for i := 0; i < 40; i++ {
		c := fmt.Sprintf("c%d", i)
		db.Add("edge", ast.Sym("d"), ast.Sym(c))
		db.Add("edge", ast.Sym(c), ast.Sym("d"))
	}
	db.Add("edge", ast.Sym("a"), ast.Sym("b"))
	db.Add("edge", ast.Sym("b"), ast.Sym("d"))
	mustRun(t, prog, db)
	d, err := eval.New(prog, db).Explain(ast.NewAtom("tc", ast.Sym("a"), ast.Sym("d")))
	if err != nil {
		t.Fatal(err)
	}
	if err := newCertChecker(prog, db).check(d); err != nil {
		t.Fatalf("%v\n%s", err, d)
	}
}

// randomGraph is a database of m distinct random edges over n nodes.
func randomGraph(n, m int, seed int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase()
	edges := db.Ensure("edge", 2)
	node := func() ast.Term { return ast.Sym(fmt.Sprintf("n%d", rng.Intn(n))) }
	for edges.Len() < m {
		edges.Insert(storage.TupleOf(node(), node()))
	}
	return db
}

const tcRules = `
	tc(X, Y) :- edge(X, Y).
	tc(X, Y) :- tc(X, Z), edge(Z, Y).
`

// TestExplainDenseRandomGraph explains a sample of the near-complete
// closure of a random graph, where derivations are short but every
// tuple has thousands of cyclic groundings: the walk needs no budget.
func TestExplainDenseRandomGraph(t *testing.T) {
	prog := ztProg(t, tcRules)
	db := randomGraph(300, 900, 1)
	mustRun(t, prog, db)
	rel := db.Relation("tc")
	e := eval.New(prog, db)
	var ds []*eval.Derivation
	for pos := 0; pos < rel.Len(); pos += rel.Len() / 200 {
		goal := ast.Atom{Pred: "tc", Args: rel.At(pos).Terms()}
		d, err := e.Explain(goal)
		if err != nil {
			t.Fatalf("explain %s: %v", goal, err)
		}
		ds = append(ds, d)
	}
	c := newCertChecker(prog, db)
	for _, d := range ds {
		if err := c.check(d); err != nil {
			t.Fatalf("%v\n%s", err, d)
		}
	}
}

// BenchmarkExplain explains tuples of the ranked closure
// TestExplainDenseRandomGraph samples (300 nodes, 900 edges, 79,808 tc
// tuples), one Explain per op, cycling through 256 goals spread over
// the relation.
func BenchmarkExplain(b *testing.B) {
	prog := ztProg(b, tcRules)
	db := randomGraph(300, 900, 1)
	mustRun(b, prog, db)
	rel := db.Relation("tc")
	goals := make([]ast.Atom, 256)
	for i := range goals {
		goals[i] = ast.Atom{Pred: "tc", Args: rel.At(i * rel.Len() / len(goals)).Terms()}
	}
	e := eval.New(prog, db)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := e.Explain(goals[i%len(goals)])
		if err != nil {
			b.Fatal(err)
		}
		benchDerivation = d
	}
}

var benchDerivation *eval.Derivation

// TestExplainCertifiedAfterZSetBatches: the ranks the sweep maintains
// stay a certificate Explain can walk, batch after batch, with and
// without stratified negation.
func TestExplainCertifiedAfterZSetBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for round := 0; round < 12; round++ {
		prog, arities := testutil.RandProgram(rng, testutil.RandProgramConfig{
			Arity: 2, EDBPreds: 2, RecRules: 1 + rng.Intn(2), ExitRules: 1, Negation: round%2 == 1,
		})
		db := testutil.RandDB(rng, arities, 5, 12)
		mustRun(t, prog, db)
		explain := eval.New(prog, db).Explain
		checkExplanations(t, prog, db, explain)
		preds := make([]string, 0, len(arities))
		for p := range arities {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		for b := 0; b < 8; b++ {
			changes := map[string]*storage.ZSet{}
			for i := 0; i < 1+rng.Intn(4); i++ {
				p := preds[rng.Intn(len(preds))]
				var adds, dels []storage.Tuple
				if rel := db.Relation(p); rel != nil && rel.Len() > 0 && rng.Intn(2) == 0 {
					dels = append(dels, append(storage.Tuple(nil), rel.At(rng.Intn(rel.Len()))...))
				} else {
					adds = append(adds, ztRandTuple(rng, arities[p], 5))
				}
				if changes[p] != nil {
					continue
				}
				changes[p] = storage.ZSetOfChanges(adds, dels)
			}
			if _, err := eval.New(prog, db).ApplyZSetContext(context.Background(), nil, changes); err != nil {
				t.Fatalf("round %d batch %d: %v\n%s", round, b, err, prog)
			}
			checkExplanations(t, prog, db, explain)
		}
	}
}

// TestExplainThroughPlans: a repro.System ranks every evaluation over
// its database, so after Run and a re-plan to any available variant,
// Explain walks the active program's certificate for every derived
// tuple. The genealogy's constraint enables iso and opt, the closed
// parent relation's makes the recursion bounded, and the goal enables
// magic sets.
func TestExplainThroughPlans(t *testing.T) {
	genealogy := `
anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Za1, Z, Za), par(Z2, Za2, Z1, Za1) -> .
par(dan, 21, carla, 47). par(carla, 47, bob, 72). par(bob, 72, alice, 95).
par(eve, 20, fay, 44). par(fay, 44, gil, 70). par(gil, 70, hal, 99).
`
	closed := `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).
par(X, Z), par(Z, Y) -> par(X, Y).
par(a, b). par(a, c). par(a, d). par(b, c). par(b, d). par(c, d).
`
	planned := map[string]bool{}
	for _, sc := range []struct{ src, goal, fact string }{
		{genealogy, "anc(dan, 21, Y, Ya)", "par(dan, 21, carla, 47)"},
		{closed, "anc(b, Y)", "par(a, b)"},
	} {
		for _, v := range []string{"orig", "iso", "opt", "magic", "bounded"} {
			sys, err := repro.Load(sc.src)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Plan(repro.PlanOptions{Variant: v, Goal: sc.goal}); err != nil {
				continue // not available for this program
			}
			planned[v] = true
			// The first Explain evaluates the new plan: it replaces the
			// tuples the original program derived.
			if _, err := sys.Explain(sc.fact); err != nil {
				t.Fatal(err)
			}
			explain := func(g ast.Atom) (*eval.Derivation, error) { return sys.Explain(g.String()) }
			checkExplanations(t, sys.ActiveProgram(), sys.DB, explain)
		}
	}
	if len(planned) != 5 {
		t.Errorf("planned only %v", planned)
	}
}
