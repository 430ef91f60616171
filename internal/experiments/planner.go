package experiments

import (
	"fmt"

	"repro/internal/planner"
	"repro/internal/workload"
)

// withPlan returns cfg with the plan-provenance stamp set, so a
// measured run's BenchRecord names the planner variant its program
// corresponds to.
func withPlan(cfg Config, plan string) Config {
	cfg.Plan = plan
	return cfg
}

// E13PlannerSelection — cost-based recursive plan selection: the
// planner's estimate-driven pick vs an oracle that measures every
// candidate. "vs oracle" is the measured probe ratio of the chosen
// plan to the best one; 1.00x means auto found the optimum.
func E13PlannerSelection(cfg Config) Table {
	t := Table{
		ID:    "E13",
		Title: "Cost-based plan selection vs measured oracle",
		Claim: "exact EDB statistics (the column indexes) pick the measured-best rewrite in every regime; no single variant does",
		Columns: []string{"scenario", "edb", "chosen", "est cost", "chosen probes",
			"oracle", "oracle probes", "vs oracle"},
	}
	cases := workload.PlannerCases(cfg.seed(), cfg.Quick)
	pinned := planner.Auto
	if cfg.Plan != "" {
		v, err := planner.ParseVariant(cfg.Plan)
		if err != nil {
			t.Notes = append(t.Notes, err.Error())
			return t
		}
		pinned = v
	}
	oracleWins := 0
	for _, c := range cases {
		popts := planner.Options{ICs: c.ICs, Goal: c.Goal}
		if pinned != planner.Auto {
			popts.Force = pinned
		}
		d, err := planner.Plan(c.Program, c.DB, popts)
		if err != nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %s", c.Name, err))
			continue
		}
		// The oracle: measure every available candidate and take the
		// lowest probe count. Probes are deterministic, unlike wall time.
		type measured struct {
			variant planner.Variant
			probes  int64
		}
		var runs []measured
		var chosen measured
		for _, cand := range d.Candidates {
			if cand.Program == nil {
				continue
			}
			_, st, err := runMeasured(withPlan(cfg, string(cand.Variant)), "E13",
				c.Name+"/"+string(cand.Variant), cand.Program, c.DB)
			if err != nil {
				t.Notes = append(t.Notes, fmt.Sprintf("%s/%s: %s", c.Name, cand.Variant, err))
				continue
			}
			m := measured{cand.Variant, st.Probes + st.IndexProbes}
			runs = append(runs, m)
			if cand.Variant == d.Chosen {
				chosen = m
			}
		}
		if len(runs) == 0 {
			continue
		}
		oracle := runs[0]
		for _, m := range runs[1:] {
			if m.probes < oracle.probes {
				oracle = m
			}
		}
		if chosen.variant == oracle.variant {
			oracleWins++
		}
		vs := "-"
		if oracle.probes > 0 {
			vs = fmt.Sprintf("%.2fx", float64(chosen.probes)/float64(oracle.probes))
		}
		est := "-"
		if cand := d.Candidate(d.Chosen); cand != nil {
			est = fmt.Sprintf("%.0f", cand.Cost)
		}
		t.Rows = append(t.Rows, []string{
			c.Name, fmt.Sprint(c.DB.TotalTuples()), string(d.Chosen), est,
			fmt.Sprint(chosen.probes), string(oracle.variant), fmt.Sprint(oracle.probes), vs,
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("planner matched the oracle on %d/%d scenarios", oracleWins, len(t.Rows)))
	return t
}
