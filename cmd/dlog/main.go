// Command dlog is a Datalog evaluator: it loads a program (rules,
// facts, and optionally integrity constraints) from files, evaluates it
// bottom-up, and answers queries.
//
// Usage:
//
//	dlog -query 'anc(ann, Y)' program.dl [facts.dl ...]
//	dlog -all program.dl            # print every IDB relation
//	dlog -plan opt -query '...' program.dl
//	dlog -i program.dl              # interactive REPL
//
// With -plan, the cost-based planner chooses among the original program
// and the paper's rewrites of it under the integrity constraints found
// in the input (-plan opt pins the semantically optimized one) before
// evaluation, and prints its decision table to stderr. The REPL accepts
// goals ("anc(ann, Y)"), new facts ("par(x, y)."), and the commands
// :explain ATOM, :dump, :stats, :quit.
//
// Observability: -stats prints work counters and per-stratum round
// counts; -profile adds per-rule and per-span breakdowns; -trace FILE
// writes a Chrome trace-event file loadable in Perfetto; -events FILE
// writes a JSONL event log; -pprof ADDR serves net/http/pprof;
// -explain-dot renders a proof tree as Graphviz DOT on stdout.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro"
	"repro/internal/obs"
)

func main() {
	query := flag.String("query", "", "goal to answer, e.g. 'anc(ann, Y)'")
	all := flag.Bool("all", false, "print every computed IDB relation")
	plan := flag.String("plan", "", "cost-based plan selection: auto, orig, iso, opt, magic, bounded")
	explain := flag.String("explain", "", "print a proof tree for a ground atom, e.g. 'anc(ann, dee)'")
	explainDot := flag.String("explain-dot", "", "print a proof tree as Graphviz DOT for a ground atom")
	small := flag.String("small", "", "comma-separated small predicates for atom introduction")
	stats := flag.Bool("stats", false, "print evaluation work counters to stderr")
	interactive := flag.Bool("i", false, "interactive query loop on stdin")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: dlog [-query GOAL | -all] [-plan VARIANT] file.dl ...")
		os.Exit(2)
	}

	var src strings.Builder
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		src.Write(data)
		src.WriteByte('\n')
	}
	sys, err := repro.Load(src.String())
	if err != nil {
		fatal(err)
	}
	tracer, err := obsFlags.Tracer()
	if err != nil {
		fatal(err)
	}
	sys.Tracer = tracer
	smallPreds := map[string]bool{}
	for _, p := range strings.Split(*small, ",") {
		if p != "" {
			smallPreds[p] = true
		}
	}
	if *plan != "" {
		// The query goal, when ground in some argument, unlocks the
		// magic-sets candidate; the decision table goes to stderr.
		d, err := sys.Plan(repro.PlanOptions{Variant: *plan, Goal: *query, SmallPreds: smallPreds})
		if err != nil {
			fatal(err)
		}
		printPlan(os.Stderr, d)
	}

	if *interactive {
		repl(sys)
		finish(sys, obsFlags, tracer, *stats)
		return
	}

	// Evaluate upfront only when no later path will: Explain and
	// QueryAtom each run the engine themselves, and running once keeps
	// the -stats/-profile output describing the evaluation that did the
	// work rather than a no-op re-run over the computed fixpoint.
	if *query == "" && *explain == "" && *explainDot == "" {
		if _, err := sys.Run(); err != nil {
			fatal(err)
		}
	}
	if *explain != "" {
		d, err := sys.Explain(*explain)
		if err != nil {
			fatal(err)
		}
		fmt.Print(d)
	}
	if *explainDot != "" {
		d, err := sys.Explain(*explainDot)
		if err != nil {
			fatal(err)
		}
		fmt.Print(d.DOT())
	}
	switch {
	case *query != "":
		goal, err := repro.ParseAtom(*query)
		if err != nil {
			fatal(err)
		}
		res, err := sys.QueryAtom(goal)
		if err != nil {
			fatal(err)
		}
		for _, t := range res {
			fmt.Printf("%s%s\n", goal.Pred, t)
		}
		fmt.Fprintf(os.Stderr, "%d answers\n", len(res))
	case *all:
		idb := sys.Program.IDBPreds()
		for _, pred := range sys.DB.Preds() {
			if !idb[pred] {
				continue
			}
			for _, t := range sys.DB.Relation(pred).Sorted() {
				fmt.Printf("%s%s\n", pred, t)
			}
		}
	default:
		if *explain == "" && *explainDot == "" {
			fmt.Fprintf(os.Stderr, "evaluated %d tuples; use -query or -all to inspect\n", sys.DB.TotalTuples())
		}
	}
	finish(sys, obsFlags, tracer, *stats)
}

// finish prints the stats/profile reports and writes the trace outputs.
func finish(sys *repro.System, obsFlags *obs.CLIFlags, tracer *obs.Tracer, stats bool) {
	if stats {
		printStats(os.Stderr, sys)
	}
	if obsFlags.Profile {
		printRunProfile(os.Stderr, sys.LastRunInfo())
	}
	if err := obsFlags.Finish(os.Stderr, tracer); err != nil {
		fatal(err)
	}
}

// printPlan writes the planner's decision table: one row per candidate
// with its estimated cost, then the chosen variant and why.
func printPlan(w io.Writer, d *repro.PlanDecision) {
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "plan\tcost\tnote")
	for _, c := range d.Candidates {
		cost := "-"
		if c.Err == "" {
			cost = fmt.Sprintf("%.0f", c.Cost)
			if c.Measured {
				cost += " (measured)"
			}
		}
		note := c.Note
		if c.Err != "" {
			note = "unavailable: " + c.Err
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", c.Variant, cost, note)
	}
	tw.Flush()
	fmt.Fprintf(w, "chosen: %s (%s)\n", d.Chosen, d.Reason)
}

// printStats writes the work counters of the last evaluation plus
// per-stratum round counts. gj_planned and gj_firings show which rules
// the engine routed through Generic Join and how often they fired.
func printStats(w io.Writer, sys *repro.System) {
	st := sys.Stats()
	fmt.Fprintf(w, "iterations=%d firings=%d probes=%d index_probes=%d full_scans=%d matched=%d derived=%d deduped=%d inserted=%d gj_planned=%d gj_firings=%d\n",
		st.Iterations, st.RuleFirings, st.Probes, st.IndexProbes, st.FullScans,
		st.Matched, st.Derived, st.Deduped, st.Inserted, st.GJPlanned, st.GJFirings)
	for i, s := range sys.LastRunInfo().Strata {
		fmt.Fprintf(w, "stratum %d [%s]: rounds=%d time=%s\n",
			i, strings.Join(s.Preds, ","), s.Rounds, s.Time)
	}
}

// printRunProfile writes the per-stratum and per-rule breakdown of the
// last evaluation. Rule timings are populated when tracing is on; the
// counters are exact either way.
func printRunProfile(w io.Writer, info repro.RunInfo) {
	fmt.Fprintln(w, "eval profile: strata")
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  #\tpreds\trounds\ttime")
	for i, s := range info.Strata {
		fmt.Fprintf(tw, "  %d\t%s\t%d\t%s\n", i, strings.Join(s.Preds, ","), s.Rounds, s.Time)
	}
	tw.Flush()
	if len(info.Rules) == 0 {
		return
	}
	fmt.Fprintln(w, "eval profile: rules (by time, then derived)")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  rule\thead\tfirings\tscanned\tindex\tscans\tmatched\tderived\tdeduped\tinserted\ttime")
	for _, r := range info.Rules {
		st := r.Stats
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			r.Label, r.Pred, st.RuleFirings, st.Probes, st.IndexProbes, st.FullScans,
			st.Matched, st.Derived, st.Deduped, st.Inserted, r.Time)
	}
	tw.Flush()
}

// repl reads goals, facts and commands from stdin until EOF or :quit.
func repl(sys *repro.System) {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprintln(os.Stderr, "dlog: enter a goal like anc(ann, Y); a fact like par(x, y).; or :explain ATOM, :dump, :stats, :quit")
	for {
		fmt.Fprint(os.Stderr, "?- ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == ":quit" || line == ":q":
			return
		case line == ":dump":
			fmt.Print(sys.DumpDB())
		case line == ":stats":
			printStats(os.Stdout, sys)
		case strings.HasPrefix(line, ":explain "):
			d, err := sys.Explain(strings.TrimSpace(strings.TrimPrefix(line, ":explain")))
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				continue
			}
			fmt.Print(d)
		case strings.HasSuffix(line, "."):
			if err := sys.LoadFacts(line); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				continue
			}
			fmt.Fprintln(os.Stderr, "ok")
		default:
			goal, err := repro.ParseAtom(line)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				continue
			}
			res, err := sys.QueryAtom(goal)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				continue
			}
			for _, t := range res {
				fmt.Printf("%s%s\n", goal.Pred, t)
			}
			fmt.Fprintf(os.Stderr, "%d answers\n", len(res))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlog:", err)
	os.Exit(1)
}
