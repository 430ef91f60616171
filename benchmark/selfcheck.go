package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// exactLayerCounts are the per-layer metrics that are counts of work,
// not timings: with one seed they must come out identical in every
// run.
var exactLayerCounts = []string{
	"eval.fixpoint_probes", "eval.fixpoint_derived", "eval.fixpoint_rounds",
	"eval.gj_firings", "eval.sweep_refused_frac", "eval.sweep_delta_tuples",
	"durable.wal_bytes_per_fact", "planner.candidates_priced", "semopt.residues_found",
}

// exactRunCounts are the result counts that must repeat exactly.
var exactRunCounts = []string{"measured_ops", "last_seq", "ops_attempted", "ops_failed", "stale_reads"}

// selfcheck runs the untraced suite as two interleaved sets (A1 B1 A2
// B2 ...) of the same binary with the same seed, plus one traced suite
// per set, and compares the sets: for every (workload, end-to-end
// metric) pair the two medians must agree within the metric's bound,
// the spread of all the runs of the pair must stay within it too
// (setup_s excepted, as in the acceptance check: it is a one-shot
// timing with the widest bound), and every exact count must be
// identical. That is the check a later performance claim's baseline has
// to survive, run here against itself; a pair outside its bound fails
// it.
func (b *bench) selfcheck() int {
	runs := b.opts.runs
	if runs < 2 {
		runs = 2
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	service := [2]map[key]metric{{}, {}}
	runCounts, layerCounts := map[key]float64{}, map[key]float64{}
	var mismatches []string
	failedOps := 0
	start := time.Now()
	load := loadAverage()

	for i := 0; i < runs; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				fmt.Fprintf(os.Stderr, "selfcheck: set %c run %d/%d %s\n", 'A'+set, i+1, runs, w.name)
				res, err := b.run(w.name, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
					return 2
				}
				failedOps += res.failed
				for _, f := range res.failures {
					fmt.Fprintf(os.Stderr, "selfcheck: %s FAILED: %s\n", w.name, f)
				}
				for name, m := range res.metrics {
					k := key{w.name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
				for _, c := range exactRunCounts {
					k := key{w.name, c}
					v := float64(res.counts[c])
					if prev, ok := runCounts[k]; ok && prev != v {
						mismatches = append(mismatches, fmt.Sprintf("%s/%s: %v vs %v", w.name, c, prev, v))
					}
					runCounts[k] = v
				}
				if i == 0 {
					tr, err := b.run(w.name, true)
					if err != nil {
						fmt.Fprintf(os.Stderr, "benchmark: %s (traced): %v\n", w.name, err)
						return 2
					}
					failedOps += tr.failed
					for _, f := range tr.failures {
						fmt.Fprintf(os.Stderr, "selfcheck: %s (traced) FAILED: %s\n", w.name, f)
					}
					for _, name := range serviceMetrics {
						service[set][key{w.name, name}] = tr.metrics[name]
					}
					for _, c := range exactLayerCounts {
						k := key{w.name, c}
						v := tr.metrics[c].Value
						if prev, ok := layerCounts[k]; ok && prev != v {
							mismatches = append(mismatches, fmt.Sprintf("%s/%s: %v vs %v", w.name, c, prev, v))
						}
						layerCounts[k] = v
					}
				}
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "# Self-check: two interleaved sets of %d runs of the same binary\n\n", runs)
	fmt.Fprintf(&sb, "Produced by `go run . -selfcheck -runs %d -seed %d -seconds %d` in `benchmark/`.\n", runs, b.opts.seed, b.opts.seconds)
	fmt.Fprintf(&sb, "%s, %d CPUs, GOMAXPROCS %d, load average at start %s, git %s, took %s.\n\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), load, gitRevision(b.root), time.Since(start).Round(time.Second))
	sb.WriteString("Runs alternate A1 B1 A2 B2 …; each run executes the four workloads in order.\n")
	sb.WriteString("`diff` is |median B − median A| ÷ median A: a same-code difference beyond the bound is a benchmark bug, not a\n")
	fmt.Fprintf(&sb, "result. `spread` is the interquartile range of all %d runs of the pair ÷ their median (Python's\n", 2*runs)
	sb.WriteString("`statistics.quantiles(…, n=4)`). A pair passes when both are within the bound; the spread of `setup_s` is shown\n")
	sb.WriteString("but not judged.\n\n")
	sb.WriteString("| workload | metric | unit | median A | median B | diff | spread | bound | verdict |\n")
	sb.WriteString("|---|---|---|---:|---:|---:|---:|---:|---|\n")
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			k := key{w.name, m.name}
			a, bb := sets[0][k], sets[1][k]
			ma, mb := median(a), median(bb)
			diff := 0.0
			if ma != 0 {
				diff = abs(mb-ma) / ma
			}
			sp := spread(append(append([]float64(nil), a...), bb...))
			verdict := "ok"
			switch {
			case diff > m.bound:
				verdict = "**OUTSIDE**"
				bad++
			case sp > m.bound && m.name != "setup_s":
				verdict = "**NOISY**"
				bad++
			}
			fmt.Fprintf(&sb, "| %s | %s | %s | %.5g | %.5g | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.name, m.name, m.unit, ma, mb, 100*diff, 100*sp, 100*m.bound, verdict)
		}
	}
	sb.WriteString("\n## Service timings of the two traced suites\n\n")
	sb.WriteString("Reported among the per-layer metrics, where the workload has them; one traced run per set, no bound.\n\n")
	sb.WriteString("| workload | metric | unit | set A | set B | samples |\n|---|---|---|---:|---:|---:|\n")
	for _, w := range workloads {
		for _, name := range serviceMetrics {
			a, bb := service[0][key{w.name, name}], service[1][key{w.name, name}]
			if a.Samples == 0 && bb.Samples == 0 {
				continue
			}
			fmt.Fprintf(&sb, "| %s | %s | %s | %.5g | %.5g | %d |\n", w.name, name, a.Unit, a.Value, bb.Value, a.Samples)
		}
	}
	sb.WriteString("\n## Exact counts\n\n")
	if len(mismatches) == 0 {
		sb.WriteString("Every exact count was identical in every run:\n\n")
	} else {
		fmt.Fprintf(&sb, "**%d exact counts differed between runs:**\n\n", len(mismatches))
		for _, m := range mismatches {
			fmt.Fprintf(&sb, "- %s\n", m)
		}
		sb.WriteString("\nThe others:\n\n")
	}
	sb.WriteString("| workload | count | value |\n|---|---|---:|\n")
	for _, w := range workloads {
		for _, c := range exactRunCounts {
			fmt.Fprintf(&sb, "| %s | %s | %.0f |\n", w.name, c, runCounts[key{w.name, c}])
		}
		for _, c := range exactLayerCounts {
			fmt.Fprintf(&sb, "| %s | %s | %.6g |\n", w.name, c, layerCounts[key{w.name, c}])
		}
	}
	fmt.Fprintf(&sb, "\n%d of %d pairs outside their bound, %d exact-count mismatches, %d failed ops.\n",
		bad, len(workloads)*len(endToEnd), len(mismatches), failedOps)

	fmt.Print(sb.String())
	if b.opts.checkOut != "" {
		if err := os.WriteFile(b.opts.checkOut, []byte(sb.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	if bad > 0 || len(mismatches) > 0 || failedOps > 0 {
		return 1
	}
	return 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
