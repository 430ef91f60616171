package planner

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/workload"
)

// The plan-space differential harness: for random in-class programs
// with random chain ICs over random constraint-repaired databases, and
// for the workload scenarios, every enumerated candidate — evaluated by
// every engine configuration (binary and Generic Join paths, and
// JoinAuto steered by the shared cost model) — must produce
// tuple-identical answers and insert as many tuples under every
// configuration; and on the random programs the variant auto picks
// must never measure worse than the best candidate by more than the
// documented estimator error bound (ErrorBound/ErrorFloor).

// engineConfig is one evaluation mode a candidate is checked under.
type engineConfig struct {
	name   string
	join   eval.JoinMode
	costed bool // install the shared StatsCostModel
}

var engineConfigs = []engineConfig{
	{name: "binary", join: eval.JoinBinary},
	{name: "gj", join: eval.JoinGJ},
	{name: "auto+cost", join: eval.JoinAuto, costed: true},
}

// goalTuples collects pred's tuples restricted to the goal pattern
// (nil goal keeps everything): constants must match, repeated
// variables must agree.
func goalTuples(db *storage.Database, pred string, goal *ast.Atom) map[string]bool {
	out := map[string]bool{}
	rel := db.Relation(pred)
	if rel == nil {
		return out
	}
	for _, tp := range rel.Tuples() {
		if goal != nil && !matchesGoal(tp, *goal) {
			continue
		}
		out[tp.String()] = true
	}
	return out
}

func matchesGoal(tp storage.Tuple, goal ast.Atom) bool {
	if len(goal.Args) != len(tp) {
		return false
	}
	seen := map[ast.Var]storage.Value{}
	for i, a := range goal.Args {
		if v, ok := a.(ast.Var); ok {
			if prev, dup := seen[v]; dup && prev != tp[i] {
				return false
			}
			seen[v] = tp[i]
			continue
		}
		w, ok := storage.LookupTerm(a)
		if !ok || w != tp[i] {
			return false
		}
	}
	return true
}

func diffSets(want, got map[string]bool) string {
	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	return fmt.Sprintf("missing=%v extra=%v", missing, extra)
}

func TestPlanSpaceDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1337))
	const rounds = 14
	checked, goalRounds := 0, 0
	for round := 0; round < rounds; round++ {
		prog, arities := testutil.RandProgram(rng, testutil.RandProgramConfig{
			Arity:     2 + rng.Intn(2),
			EDBPreds:  2 + rng.Intn(2),
			RecRules:  1 + rng.Intn(2),
			ExitRules: 1 + rng.Intn(2),
		})
		var ics []ast.IC
		for i := 0; i < 1+rng.Intn(2); i++ {
			ics = append(ics, testutil.RandChainIC(rng, arities, fmt.Sprintf("ic%d", i)))
		}
		db := testutil.RandDB(rng, arities, 5, 8)
		if !testutil.Repair(db, ics, 400) {
			continue
		}

		// Every other round supplies a bound goal so the magic-sets
		// candidate joins the space. The constant may or may not occur
		// in the data; empty answer sets must agree too.
		opts := Options{ICs: ics}
		if round%2 == 1 {
			args := make([]ast.Term, arities["base"])
			args[0] = ast.Sym(fmt.Sprintf("c%d", rng.Intn(5)))
			for i := 1; i < len(args); i++ {
				args[i] = ast.Var(fmt.Sprintf("G%d", i))
			}
			g := ast.Atom{Pred: "p", Args: args}
			opts.Goal = &g
			goalRounds++
		}

		d, err := Plan(prog, db, opts)
		if err != nil {
			t.Fatalf("round %d: %v\n%s", round, err, prog)
		}
		label := fmt.Sprintf("round %d (ICs %v)", round, ics)
		measured := checkCandidates(t, label, d, db, "p", opts.Goal)
		checked += len(measured) * len(engineConfigs)

		// The estimator's contract: auto's pick measures within
		// ErrorBound x the best candidate, plus ErrorFloor slack.
		best := measured[d.Chosen]
		for _, m := range measured {
			if m < best {
				best = m
			}
		}
		if got := measured[d.Chosen]; got > ErrorBound*best+ErrorFloor {
			t.Fatalf("round %d: auto chose %s at %.0f probes; best candidate measured %.0f (bound %.0fx+%.0f)\n%s",
				round, d.Chosen, got, best, ErrorBound, ErrorFloor, prog)
		}
	}
	if checked == 0 || goalRounds == 0 {
		t.Fatalf("harness vacuous: %d combos checked, %d goal rounds", checked, goalRounds)
	}
	t.Logf("checked %d candidate x engine combinations (%d goal rounds)", checked, goalRounds)
}

// TestPlanSpaceDifferentialScenarios runs the same check on the
// paper's worked examples and the planner's selectivity scenario, the
// programs experiments E1, E2, E3 and E13 measure, at small sizes.
func TestPlanSpaceDifferentialScenarios(t *testing.T) {
	for _, sc := range differentialScenarios(t) {
		opts := Options{ICs: sc.s.ICs, SmallPreds: sc.s.SmallPreds, Goal: sc.goal}
		d, err := Plan(sc.s.Program, sc.db, opts)
		if err != nil {
			t.Fatalf("%s: %v", sc.s.Name, err)
		}
		measured := checkCandidates(t, sc.s.Name, d, sc.db, sc.s.Query.Pred, sc.goal)
		if measured[Opt] == 0 {
			t.Errorf("%s: no opt candidate; the scenario no longer exercises the rewrite", sc.s.Name)
		}
		t.Logf("%s: %d candidates x %d engines agree", sc.s.Name, len(measured), len(engineConfigs))
	}
}

// scenarioCase is one workload scenario over a generated database,
// with an optional bound goal that unlocks the magic candidate.
type scenarioCase struct {
	s    workload.Scenario
	db   *storage.Database
	goal *ast.Atom
}

// differentialScenarios builds the scenario list of
// TestPlanSpaceDifferentialScenarios; the estimate golden prices the
// same list.
func differentialScenarios(t *testing.T) []scenarioCase {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	goal := func(src string) *ast.Atom {
		g, err := parser.ParseAtom(src)
		if err != nil {
			t.Fatal(err)
		}
		return &g
	}
	return []scenarioCase{
		{workload.Organization(), workload.OrgDB(rng, 2, 4, 2, 0.1), nil},
		{workload.Organization(), workload.OrgDB(rng, 2, 4, 2, 0.9), nil},
		{workload.Academic(), workload.AcademicDB(rng, 3, 4, 12, 3, 0.5), nil},
		{workload.Genealogy(), workload.GenealogyDB(rng, 3, 6), goal("anc(g0_0, A, Y, B)")},
		{workload.Routes(), workload.RoutesDB(rng, 2, 5, 0), nil},
		{workload.Routes(), workload.RoutesDB(rng, 2, 5, 3), goal("reach(c0_0, Y)")},
	}
}

// checkCandidates evaluates every available candidate of d over a clone
// of db under every engine configuration. Each must derive exactly the
// original program's pred tuples (restricted to goal for magic, which
// computes only the goal's answers), and every configuration of one
// candidate must insert the same number of tuples. It returns each
// candidate's measured binary probe count.
func checkCandidates(t *testing.T, label string, d *Decision, db *storage.Database, pred string, goal *ast.Atom) map[Variant]float64 {
	t.Helper()
	// Reference answers from the untransformed program under the
	// plainest engine.
	refDB := runWith(t, label, d.Candidate(Orig).Program, db, engineConfigs[0])
	measured := map[Variant]float64{}
	for _, c := range d.Candidates {
		if c.Program == nil {
			continue
		}
		var scope *ast.Atom
		if c.Variant == Magic {
			scope = goal
		}
		want := goalTuples(refDB, pred, scope)
		var inserted int64
		for _, ec := range engineConfigs {
			run := db.Clone()
			eng := eval.New(c.Program, run)
			eng.SetJoinMode(ec.join)
			if ec.costed {
				eng.SetCostModel(eval.StatsCostModel{DB: run})
			}
			if err := eng.Run(); err != nil {
				t.Fatalf("%s %s/%s: %v\n%s", label, c.Variant, ec.name, err, c.Program)
			}
			got := goalTuples(run, pred, scope)
			if len(want) != len(got) || diffSets(want, got) != "missing=[] extra=[]" {
				t.Fatalf("%s: %s/%s differs from orig: %s\nprogram:\n%s",
					label, c.Variant, ec.name, diffSets(want, got), c.Program)
			}
			st := eng.Stats()
			if ec.name == "binary" {
				measured[c.Variant] = float64(st.Probes + st.IndexProbes)
				inserted = st.Inserted
			} else if st.Inserted != inserted {
				t.Fatalf("%s: %s/%s inserted %d tuples, binary inserted %d",
					label, c.Variant, ec.name, st.Inserted, inserted)
			}
		}
	}
	return measured
}

func runWith(t *testing.T, label string, prog *ast.Program, db *storage.Database, ec engineConfig) *storage.Database {
	t.Helper()
	run := db.Clone()
	eng := eval.New(prog, run)
	eng.SetJoinMode(ec.join)
	if err := eng.Run(); err != nil {
		t.Fatalf("%s reference run: %v", label, err)
	}
	return run
}
