// Package workload provides the benchmark scenarios of the paper's
// worked examples — the organizational database of Example 4.1, the
// academic database of Examples 3.2/4.2, and the genealogy of Example
// 4.3 — together with synthetic EDB generators that produce databases
// *satisfying the scenario's integrity constraints by construction*
// (semantic optimization is only sound on consistent databases, so the
// generators build consistency in rather than repairing afterwards).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

// Scenario bundles a program, its integrity constraints, and a
// representative query.
type Scenario struct {
	Name    string
	Program *ast.Program
	ICs     []ast.IC
	Query   ast.Atom
	// SmallPreds names predicates treated as small relations for atom
	// introduction (§4(2)).
	SmallPreds map[string]bool
}

func mustParse(src string) (*ast.Program, []ast.IC) {
	res, err := parser.Parse(src)
	if err != nil {
		panic("workload: " + err.Error())
	}
	return res.Program, res.ICs
}

func mustAtom(src string) ast.Atom {
	a, err := parser.ParseAtom(src)
	if err != nil {
		panic("workload: " + err.Error())
	}
	return a
}

// Organization is Example 4.1: triples of employees separated by at
// most one level, computed through chains of experienced bosses, with
// the constraint that executive-ranked bosses are experienced.
func Organization() Scenario {
	prog, ics := mustParse(`
triple(E1, E2, E3) :- same_level(E1, E2, E3).
triple(E1, E2, E3) :- boss(U, E3, R), experienced(U), triple(U, E1, E2).
boss(E, B, R), R = executive -> experienced(B).
`)
	return Scenario{
		Name:    "organization",
		Program: prog,
		ICs:     ics,
		Query:   mustAtom("triple(E1, E2, E3)"),
	}
}

// OrgDB builds an organizational database: a forest of employee
// hierarchies `levels` deep with the given branching; execFrac of the
// boss relationships carry the executive rank. The Example 4.1
// constraint holds by construction: every executive boss (and, to make
// the recursion productive, every boss) is experienced.
func OrgDB(rng *rand.Rand, roots, levels, branching int, execFrac float64) *storage.Database {
	db := storage.NewDatabase()
	id := 0
	newEmp := func() ast.Sym {
		id++
		return ast.Sym(fmt.Sprintf("e%d", id))
	}
	ranks := []ast.Sym{"manager", "lead", "director"}
	var perLevel [][]ast.Sym
	for r := 0; r < roots; r++ {
		boss := newEmp()
		db.Add("experienced", boss)
		level := []ast.Sym{boss}
		for l := 0; l < levels; l++ {
			if len(perLevel) <= l {
				perLevel = append(perLevel, nil)
			}
			perLevel[l] = append(perLevel[l], level...)
			var next []ast.Sym
			for _, b := range level {
				for c := 0; c < branching; c++ {
					emp := newEmp()
					rank := ranks[rng.Intn(len(ranks))]
					if rng.Float64() < execFrac {
						rank = "executive"
					}
					db.Add("boss", emp, b, rank)
					// Bosses of experienced people keep the recursion
					// alive; the IC additionally forces executives.
					db.Add("experienced", emp)
					next = append(next, emp)
				}
			}
			level = next
		}
	}
	// same_level triples drawn from each populated level.
	for _, emps := range perLevel {
		for i := 0; i+2 < len(emps) && i < 3*branching; i++ {
			db.Add("same_level", emps[i], emps[i+1], emps[i+2])
		}
	}
	return db
}

// Academic is Examples 3.2 and 4.2: qualification to evaluate a thesis
// through chains of collaborators, with expertise transitive over
// collaboration and high payments implying doctoral students.
func Academic() Scenario {
	prog, ics := mustParse(`
eval(P, S, T) :- super(P, S, T).
eval(P, S, T) :- works_with(P, P0), eval(P0, S, T), expert(P, F), field(T, F).
eval_support(P, S, T, M) :- eval(P, S, T), pays(M, G, S, T).
works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).
pays(M, G, S, T), M > 10000 -> doctoral(S).
`)
	return Scenario{
		Name:       "academic",
		Program:    prog,
		ICs:        ics,
		Query:      mustAtom("eval(P, S, T)"),
		SmallPreds: map[string]bool{"doctoral": true},
	}
}

// AcademicDB builds an academic database: profs collaborate along
// chains (works_with), expertise is seeded at chain heads and closed
// under the transitivity constraint, students write theses in random
// fields supervised by chain-tail professors, and payments above
// 10000 imply doctoral students by construction. highPayFrac controls
// the share of high payments.
func AcademicDB(rng *rand.Rand, chains, chainLen, students, fields int, highPayFrac float64) *storage.Database {
	db := storage.NewDatabase()
	fieldSyms := make([]ast.Sym, fields)
	for i := range fieldSyms {
		fieldSyms[i] = ast.Sym(fmt.Sprintf("f%d", i))
	}
	profID := 0
	newProf := func() ast.Sym {
		profID++
		return ast.Sym(fmt.Sprintf("p%d", profID))
	}
	// expertise[prof] is the set of fields; closed under works_with
	// transitivity as edges are added (works_with(P2,P1): P2 inherits
	// P1's expertise).
	type edge struct{ p2, p1 ast.Sym }
	var tails []ast.Sym
	expertise := make(map[ast.Sym]map[ast.Sym]bool)
	addExpert := func(p ast.Sym, f ast.Sym) {
		if expertise[p] == nil {
			expertise[p] = make(map[ast.Sym]bool)
		}
		expertise[p][f] = true
	}
	var edges []edge
	for c := 0; c < chains; c++ {
		// Chain p_k works_with p_{k-1} ... works_with p_0 (the tail).
		tail := newProf()
		tails = append(tails, tail)
		addExpert(tail, fieldSyms[rng.Intn(fields)])
		prev := tail
		for l := 1; l < chainLen; l++ {
			cur := newProf()
			edges = append(edges, edge{p2: cur, p1: prev})
			addExpert(cur, fieldSyms[rng.Intn(fields)])
			prev = cur
		}
	}
	// Close expertise under the constraint (iterate to fixpoint; chains
	// are acyclic so length bounds the rounds).
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			for f := range expertise[e.p1] {
				if !expertise[e.p2][f] {
					addExpert(e.p2, f)
					changed = true
				}
			}
		}
	}
	for _, e := range edges {
		db.Add("works_with", e.p2, e.p1)
	}
	// Professors in creation order, fields in index order: map order
	// would intern the field symbols differently on every run.
	for id := 1; id <= profID; id++ {
		p := ast.Sym(fmt.Sprintf("p%d", id))
		for _, f := range fieldSyms {
			if expertise[p][f] {
				db.Add("expert", p, f)
			}
		}
	}
	// Students, theses, supervision, payments.
	for s := 0; s < students; s++ {
		stud := ast.Sym(fmt.Sprintf("s%d", s))
		thesis := ast.Sym(fmt.Sprintf("t%d", s))
		f := fieldSyms[rng.Intn(fields)]
		db.Add("field", thesis, f)
		sup := tails[rng.Intn(len(tails))]
		db.Add("super", sup, stud, thesis)
		amount := ast.Int(2000 + rng.Intn(8000))
		if rng.Float64() < highPayFrac {
			amount = ast.Int(11000 + rng.Intn(20000))
			db.Add("doctoral", stud)
		} else if rng.Intn(4) == 0 {
			db.Add("doctoral", stud)
		}
		db.Add("pays", amount, ast.Sym(fmt.Sprintf("g%d", rng.Intn(5))), stud, thesis)
	}
	return db
}

// Genealogy is Example 4.3: ancestors with ages, under the constraint
// that nobody aged 50 or less has three generations of descendants.
func Genealogy() Scenario {
	prog, ics := mustParse(`
anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Za1, Z, Za), par(Z2, Za2, Z1, Za1) -> .
`)
	return Scenario{
		Name:    "genealogy",
		Program: prog,
		ICs:     ics,
		Query:   mustAtom("anc(X, Xa, Y, Ya)"),
	}
}

// GenealogyDB builds `families` parent chains of the given depth.
// par(Child, ChildAge, Parent, ParentAge); ages grow by 12 per
// generation from a 20-year-old leaf, so anyone with three generations
// below is at least 56 and the Example 4.3 constraint holds by
// construction.
func GenealogyDB(rng *rand.Rand, families, depth int) *storage.Database {
	db := storage.NewDatabase()
	for fam := 0; fam < families; fam++ {
		name := func(gen int) ast.Sym {
			return ast.Sym(fmt.Sprintf("g%d_%d", fam, gen))
		}
		// Ages fixed per person: generation 0 is the youngest.
		ages := make([]ast.Int, depth+1)
		for gen := range ages {
			ages[gen] = ast.Int(20 + 12*gen + rng.Intn(5))
		}
		for gen := 0; gen+1 <= depth; gen++ {
			db.Add("par", name(gen), ages[gen], name(gen+1), ages[gen+1])
		}
	}
	return db
}

// ChainDB builds a simple edge chain n0 -> n1 -> … -> n_n, used by the
// magic-sets experiments.
func ChainDB(n int) *storage.Database {
	db := storage.NewDatabase()
	for i := 0; i < n; i++ {
		db.Add("edge", ast.Sym(fmt.Sprintf("n%d", i)), ast.Sym(fmt.Sprintf("n%d", i+1)))
	}
	return db
}

// RandomGraphDB builds a random edge relation over n nodes with the
// given number of edges.
func RandomGraphDB(rng *rand.Rand, nodes, edges int) *storage.Database {
	db := storage.NewDatabase()
	for i := 0; i < edges; i++ {
		a := ast.Sym(fmt.Sprintf("n%d", rng.Intn(nodes)))
		b := ast.Sym(fmt.Sprintf("n%d", rng.Intn(nodes)))
		db.Add("edge", a, b)
	}
	return db
}

// Honors is Example 5.1's knowledge base for intelligent query
// answering, with a small extensional population.
func Honors() (Scenario, *storage.Database) {
	prog, ics := mustParse(`
honors(Stud) :- transcript(Stud, Major, Cred, Gpa), Cred >= 30, Gpa >= 4.
honors(Stud) :- transcript(Stud, Major, Cred, Gpa), Gpa >= 4, exceptional(Stud).
exceptional(Stud) :- publication(Stud, P), appears(P, Jl), reputed(Jl).
honors(Stud) :- graduated(Stud, College), topten(College).
`)
	db := storage.NewDatabase()
	db.Add("transcript", ast.Sym("ann"), ast.Sym("cs"), ast.Int(36), ast.Int(4))
	db.Add("transcript", ast.Sym("bob"), ast.Sym("math"), ast.Int(24), ast.Int(4))
	db.Add("transcript", ast.Sym("cas"), ast.Sym("cs"), ast.Int(30), ast.Int(3))
	db.Add("publication", ast.Sym("bob"), ast.Sym("paper1"))
	db.Add("appears", ast.Sym("paper1"), ast.Sym("tods"))
	db.Add("reputed", ast.Sym("tods"))
	db.Add("graduated", ast.Sym("dee"), ast.Sym("mit"))
	db.Add("topten", ast.Sym("mit"))
	return Scenario{Name: "honors", Program: prog, ICs: ics, Query: mustAtom("honors(S)")}, db
}

// Routes is the planner's selectivity scenario: reachability over
// gated hops. The recursion only continues through open waypoints, and
// the constraint records that every hop into an open waypoint is paved
// — so the evaluable residue `R = paved` can be introduced (§4(2))
// into the recursive rule, where it screens frames *before* the open()
// membership probe. Whether that pays depends entirely on the data:
// with no dead spurs the filter passes everything and `orig` is the
// right plan; with many unpaved dead-end spurs it skips most open()
// probes and `opt` wins. This is the cost-model regression scenario —
// the same program flips between plans on selectivity alone.
func Routes() Scenario {
	prog, ics := mustParse(`
reach(X, Y) :- hop(X, Y, R).
reach(X, Y) :- reach(X, Z), hop(Z, Y, R), open(Y).
hop(Z, Y, R), open(Y) -> R = paved.
`)
	return Scenario{
		Name:    "routes",
		Program: prog,
		ICs:     ics,
		Query:   mustAtom("reach(X, Y)"),
	}
}

// RoutesDB builds `chains` paved waypoint chains of the given depth,
// plus `spurs` dead-end hops per waypoint onto closed nodes with
// non-paved surfaces. The constraint holds by construction: only chain
// hops land on open waypoints, and they are all paved. spurs controls
// the selectivity of the `R = paved` residue: 0 makes it vacuous (all
// hops paved), larger values make it prune almost everything.
func RoutesDB(rng *rand.Rand, chains, depth, spurs int) *storage.Database {
	db := storage.NewDatabase()
	surfaces := []ast.Sym{"gravel", "dirt"}
	for c := 0; c < chains; c++ {
		node := func(j int) ast.Sym { return ast.Sym(fmt.Sprintf("c%d_%d", c, j)) }
		for j := 0; j < depth; j++ {
			db.Add("hop", node(j), node(j+1), ast.Sym("paved"))
			db.Add("open", node(j+1))
			for s := 0; s < spurs; s++ {
				dead := ast.Sym(fmt.Sprintf("d%d_%d_%d", c, j, s))
				db.Add("hop", node(j), dead, surfaces[rng.Intn(len(surfaces))])
			}
		}
	}
	return db
}

// PlannerCase is one regime of the planner-vs-oracle experiment (E13):
// a program, its constraints, a database, and optionally a bound goal
// (which unlocks the magic-sets candidate).
type PlannerCase struct {
	Name    string
	Program *ast.Program
	ICs     []ast.IC
	DB      *storage.Database
	Goal    *ast.Atom
}

// PlannerCases builds the selectivity regimes the planner must
// navigate, at the quick or the full sizes, all drawn from one rng
// seeded with seed: the organization DB where the constraint is
// vacuous and orig must win, the routes scenario that flips between
// orig and opt on data selectivity alone, a goal-bound routes query
// where magic sets win, and a transitively closed parent relation
// whose recursion is provably bounded.
func PlannerCases(seed int64, quick bool) []PlannerCase {
	size := func(full, q int) int {
		if quick {
			return q
		}
		return full
	}
	rng := rand.New(rand.NewSource(seed))
	var cases []PlannerCase
	org := Organization()
	for _, exec := range []float64{0.1, 0.9} {
		cases = append(cases, PlannerCase{
			Name:    fmt.Sprintf("org/exec=%v", exec),
			Program: org.Program, ICs: org.ICs,
			DB: OrgDB(rng, 2, size(8, 6), 2, exec),
		})
	}
	routes := Routes()
	chains, depth := size(4, 3), size(30, 16)
	cases = append(cases,
		PlannerCase{
			Name:    "routes/vacuous",
			Program: routes.Program, ICs: routes.ICs,
			DB: RoutesDB(rng, chains, depth, 0),
		},
		PlannerCase{
			Name:    "routes/selective",
			Program: routes.Program, ICs: routes.ICs,
			DB: RoutesDB(rng, chains, depth, 8),
		})
	goal := ast.NewAtom("reach", ast.Sym("c0_0"), ast.Var("Y"))
	cases = append(cases, PlannerCase{
		Name:    "routes/goal-bound",
		Program: routes.Program, ICs: routes.ICs,
		DB:   RoutesDB(rng, size(8, 6), size(40, 24), 0),
		Goal: &goal,
	})
	prog, ics := mustParse(`
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).
par(X, Z), par(Z, Y) -> par(X, Y).
`)
	closed := storage.NewDatabase()
	people := size(14, 8)
	for i := 0; i < people; i++ {
		for j := i + 1; j < people; j++ {
			closed.Add("par", ast.Sym(fmt.Sprintf("p%d", i)), ast.Sym(fmt.Sprintf("p%d", j)))
		}
	}
	return append(cases, PlannerCase{
		Name:    "bounded/closed-par",
		Program: prog, ICs: ics,
		DB: closed,
	})
}
