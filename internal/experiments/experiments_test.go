package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// The suite in quick mode must run, produce rows, and contain no error
// notes.
func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	ids := map[string]bool{}
	for _, e := range Suite {
		tab := e.Run(Config{Quick: true})
		if tab.ID != e.ID {
			t.Errorf("suite entry %s produced table %s", e.ID, tab.ID)
		}
		ids[tab.ID] = true
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows (notes: %v)", tab.ID, tab.Notes)
		}
		for _, n := range tab.Notes {
			if strings.Contains(strings.ToLower(n), "failed") {
				t.Errorf("%s: %s", tab.ID, n)
			}
		}
		s := tab.String()
		if !strings.Contains(s, tab.ID) || !strings.Contains(s, "claim:") {
			t.Errorf("%s: malformed rendering", tab.ID)
		}
		// Every row has the full column count.
		for _, r := range tab.Rows {
			if len(r) != len(tab.Columns) {
				t.Errorf("%s: row width %d vs %d columns", tab.ID, len(r), len(tab.Columns))
			}
		}
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E12", "E13"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
}

func TestTableString(t *testing.T) {
	tab := Table{
		ID: "EX", Title: "t", Claim: "c",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"n"},
	}
	s := tab.String()
	for _, want := range []string{"EX — t", "claim: c", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in %q", want, s)
		}
	}
}

// E13 pins the planner-vs-oracle acceptance bar end to end: in every
// selectivity regime auto's pick must measure within 10% of the best
// hand-picked variant, the regimes with a clear winner must be decided
// exactly, and every measured record must carry plan provenance.
func TestPlannerSelectionQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	rec := &Recorder{}
	tab := E13PlannerSelection(Config{Quick: true, Rec: rec})
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 (notes: %v)", len(tab.Rows), tab.Notes)
	}
	wantChosen := map[string]string{
		"org/exec=0.1":       "orig",
		"org/exec=0.9":       "orig",
		"routes/selective":   "opt",
		"routes/goal-bound":  "magic",
		"bounded/closed-par": "bounded",
	}
	for _, r := range tab.Rows {
		scenario, chosen, vs := r[0], r[2], r[7]
		if want, ok := wantChosen[scenario]; ok && chosen != want {
			t.Errorf("%s: chose %s, want %s", scenario, chosen, want)
		}
		ratio, err := strconv.ParseFloat(strings.TrimSuffix(vs, "x"), 64)
		if err != nil {
			t.Fatalf("%s: unparseable vs-oracle %q", scenario, vs)
		}
		if ratio > 1.10 {
			t.Errorf("%s: chosen plan measured %.2fx the oracle (>10%% off)", scenario, ratio)
		}
	}
	if len(rec.Records) == 0 {
		t.Fatal("no records collected")
	}
	for _, r := range rec.Records {
		if r.Experiment != "E13" {
			t.Errorf("record experiment = %q", r.Experiment)
		}
		if r.Plan == "" {
			t.Errorf("record %s: no plan provenance", r.Label)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("record %s: ns_per_op = %d", r.Label, r.NsPerOp)
		}
		// Each record carries a metrics snapshot: a bench.eval_ns
		// histogram with one observation per measurement rep, plus the
		// engine work counters of the best rep.
		if r.Metrics == nil {
			t.Fatalf("record %s: no metrics snapshot", r.Label)
		}
		if h, ok := r.Metrics.Histograms["bench.eval_ns"]; !ok || h.Count != 3 {
			t.Errorf("record %s: bench.eval_ns = %+v, want count 3", r.Label, r.Metrics.Histograms["bench.eval_ns"])
		}
		if r.Metrics.Counters["bench.iterations"] <= 0 {
			t.Errorf("record %s: bench.iterations = %d, want > 0", r.Label, r.Metrics.Counters["bench.iterations"])
		}
	}
	var sb strings.Builder
	if err := rec.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"gomaxprocs"`) || !strings.Contains(sb.String(), `"ns_per_op"`) {
		t.Errorf("JSON document malformed:\n%s", sb.String())
	}
}

// E12 compares the Z-set sweep against a from-scratch recompute of
// each post-batch EDB: databases must agree (no DIFFER note) and the
// sweep must derive at most half of what the recomputes derive.
func TestMixedMaintenanceQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	rec := &Recorder{}
	tab := E12MixedMaintenance(Config{Quick: true, Rec: rec})
	if len(tab.Notes) != 0 {
		t.Fatalf("unexpected notes: %v", tab.Notes)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(tab.Rows))
	}
	if len(rec.Records) != 2 {
		t.Fatalf("records = %d, want 2 (zset + recompute)", len(rec.Records))
	}
	var zset, recompute int64
	for _, r := range rec.Records {
		if r.Experiment != "E12" {
			t.Errorf("record experiment = %q", r.Experiment)
		}
		switch {
		case strings.HasSuffix(r.Label, "/zset"):
			zset = r.Stats.Derived
		case strings.HasSuffix(r.Label, "/recompute"):
			recompute = r.Stats.Derived
		default:
			t.Errorf("unexpected record label %q", r.Label)
		}
		// Per-stratum timings summed over the batches: the tc stratum,
		// with at least one round per batch.
		if len(r.Strata) != 1 || r.Strata[0].Rounds < 4 || r.Strata[0].Ns <= 0 {
			t.Errorf("record %s: strata = %+v, want one tc stratum summed over 4 batches", r.Label, r.Strata)
		}
	}
	if zset <= 0 || recompute <= 0 {
		t.Fatalf("derived counters not recorded: zset=%d recompute=%d", zset, recompute)
	}
	if zset*2 > recompute {
		t.Errorf("z-set derived %d, recompute %d; want at most half", zset, recompute)
	}
}
