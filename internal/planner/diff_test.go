package planner

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// The plan-space differential harness: for random in-class programs
// with random chain ICs over random constraint-repaired databases,
// every enumerated candidate — evaluated by every engine configuration
// (binary and Generic Join paths, and JoinAuto steered by the shared
// cost model) — must produce tuple-identical answers; and the variant
// auto picks must never measure worse than the best candidate by more
// than the documented estimator error bound (ErrorBound/ErrorFloor).

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

		// Reference answers from the untransformed program under the
		// plainest engine.
		refDB := runWith(t, round, d.Candidate(Orig).Program, db, engineConfigs[0])
		measured := map[Variant]float64{}
		for _, c := range d.Candidates {
			if c.Program == nil {
				continue
			}
			// Magic computes only the goal's answers, so both sides of
			// its comparison are restricted to the goal pattern.
			var scope *ast.Atom
			if c.Variant == Magic {
				scope = opts.Goal
			}
			want := goalTuples(refDB, "p", scope)
			for _, ec := range engineConfigs {
				run := db.Clone()
				eng := eval.New(c.Program, run)
				eng.SetJoinMode(ec.join)
				if ec.costed {
					eng.SetCostModel(eval.StatsCostModel{DB: run})
				}
				if err := eng.Run(); err != nil {
					t.Fatalf("round %d %s/%s: %v\n%s", round, c.Variant, ec.name, err, c.Program)
				}
				got := goalTuples(run, "p", scope)
				if len(want) != len(got) || diffSets(want, got) != "missing=[] extra=[]" {
					t.Fatalf("round %d: %s/%s differs from orig: %s\nprogram:\n%s\nICs: %v",
						round, c.Variant, ec.name, diffSets(want, got), c.Program, ics)
				}
				if ec.name == "binary" {
					st := eng.Stats()
					measured[c.Variant] = float64(st.Probes + st.IndexProbes)
				}
				checked++
			}
		}

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

func runWith(t *testing.T, round int, prog *ast.Program, db *storage.Database, ec engineConfig) *storage.Database {
	t.Helper()
	run := db.Clone()
	eng := eval.New(prog, run)
	eng.SetJoinMode(ec.join)
	if err := eng.Run(); err != nil {
		t.Fatalf("round %d reference run: %v", round, err)
	}
	return run
}
