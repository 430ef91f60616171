package planner

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/estimate_cost.golden from the current estimator")

const estimateGolden = "testdata/estimate_cost.golden"

// goldenCase is one program over one database, priced by Plan.
type goldenCase struct {
	name string
	prog *ast.Program
	opts Options
	db   *storage.Database
}

// renderEstimates plans every case and renders, per candidate, the
// estimate (Cost and every predicate's Card as Float64bits, with the
// value alongside for reading) and what the auto+cost engine
// configuration of the differential harness does with the program.
func renderEstimates(t *testing.T) string {
	t.Helper()
	var cases []goldenCase
	for _, size := range []struct {
		tag   string
		quick bool
	}{{"e13-quick", true}, {"e13", false}} {
		for _, pc := range workload.PlannerCases(42, size.quick) {
			cases = append(cases, goldenCase{
				name: size.tag + "/" + pc.Name,
				prog: pc.Program, db: pc.DB,
				opts: Options{ICs: pc.ICs, Goal: pc.Goal},
			})
		}
	}
	for i, sc := range differentialScenarios(t) {
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("scenario%d/%s", i, sc.s.Name),
			prog: sc.s.Program, db: sc.db,
			opts: Options{ICs: sc.s.ICs, SmallPreds: sc.s.SmallPreds, Goal: sc.goal},
		})
	}
	bits := func(f float64) string { return fmt.Sprintf("%016x %g", math.Float64bits(f), f) }
	var sb strings.Builder
	for _, gc := range cases {
		d, err := Plan(gc.prog, gc.db, gc.opts)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		fmt.Fprintf(&sb, "case %s\nchosen %s\n", gc.name, d.Chosen)
		for _, c := range d.Candidates {
			if c.Program == nil {
				fmt.Fprintf(&sb, "  %s unavailable\n", c.Variant)
				continue
			}
			est := EstimateCost(c.Program, gc.db, gc.prog.EDBPreds())
			fmt.Fprintf(&sb, "  %s cost %s\n", c.Variant, bits(est.Cost))
			preds := make([]string, 0, len(est.Cards))
			for p := range est.Cards {
				preds = append(preds, p)
			}
			sort.Strings(preds)
			for _, p := range preds {
				fmt.Fprintf(&sb, "    card %s %s\n", p, bits(est.Cards[p]))
			}
			run := gc.db.Clone()
			eng := eval.New(c.Program, run)
			eng.SetJoinMode(eval.JoinAuto)
			eng.SetCostModel(eval.StatsCostModel{DB: run})
			if err := eng.Run(); err != nil {
				t.Fatalf("%s/%s: %v", gc.name, c.Variant, err)
			}
			st := eng.Stats()
			fmt.Fprintf(&sb, "    auto+cost probes=%d index_probes=%d gj_planned=%d binary_planned=%d\n",
				st.Probes, st.IndexProbes, st.GJPlanned, st.BinaryPlanned)
		}
	}
	return sb.String()
}

// TestEstimateCostGolden pins the cost model's numbers bit for bit on
// every E13 case (quick and full sizes) and every differential
// scenario: each candidate's estimated Cost and Cards, the chosen
// variant, and the join work and join-path choices the auto+cost
// engine configuration makes. A change to how statistics are kept
// must leave this file untouched; regenerate it with -update only
// when the estimator is meant to change.
//
// Generic Join's probe counts follow the order of interned Values,
// which depends on every constant the process interned earlier, so
// the test renders in a fresh process of its own.
func TestEstimateCostGolden(t *testing.T) {
	if os.Getenv("ESTIMATE_GOLDEN_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestEstimateCostGolden$", fmt.Sprintf("-update=%v", *updateGolden))
		cmd.Env = append(os.Environ(), "ESTIMATE_GOLDEN_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return
	}
	got := renderEstimates(t)
	path := filepath.FromSlash(estimateGolden)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with go test -run TestEstimateCostGolden -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got  %q\n want %q", estimateGolden, i+1, g, w)
			}
		}
	}
}
