// Command semopt runs the paper's semantic-optimization pipeline on a
// program + integrity constraints and prints what it found and what it
// rewrote: the detected expansion sequences and residues (§3), the
// verified optimization opportunities, and the transformed program
// (§4).
//
// Usage:
//
//	semopt program.dl
//	semopt -pred eval -small doctoral -show-isolation program.dl
//	semopt -verify program.dl         # evaluate every planner candidate
//	semopt -verify -goal 'anc(ann, Y)' program.dl
//
// With -verify, cost-based plan selection runs over the loaded facts
// and every available candidate — the original program, the paper's
// isolated and optimized rewrites, magic sets (when -goal supplies a
// bound goal), and the bounded plan — is evaluated to fixpoint and
// compared against the original's answers.
// Per-candidate timings and work counters go to stderr, with the
// chosen plan starred — an end-to-end check that every transformation
// preserved answers on this database, and a view of what each one
// costs.
//
// Observability: -profile prints a per-phase breakdown of the pipeline
// (rectify, SD-graph build, candidate generation, subsumption,
// chase, isolation, pushing) to stderr; -trace FILE writes a Chrome
// trace-event file; -events FILE a JSONL log; -pprof ADDR serves
// net/http/pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/residue"
	"repro/internal/sdgraph"
	"repro/internal/semopt"
	"repro/internal/storage"
	"repro/internal/transform"
	"repro/internal/unfold"
)

func main() {
	pred := flag.String("pred", "", "only analyze this predicate")
	small := flag.String("small", "", "comma-separated small predicates for atom introduction")
	maxDepth := flag.Int("maxdepth", 6, "expansion sequence length bound")
	showIso := flag.String("show-isolation", "", "print the isolation of SEQ (space-separated rule labels) for -pred and exit")
	showGraph := flag.Bool("show-graph", false, "print the SD-graph for -pred and exit")
	dot := flag.Bool("dot", false, "with -show-graph: emit Graphviz dot instead of text")
	verify := flag.Bool("verify", false, "evaluate every planner candidate over the loaded facts, compare answers, and time each")
	goal := flag.String("goal", "", "bound goal for -verify, e.g. 'anc(ann, Y)': makes the magic-sets candidate available")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: semopt [flags] file.dl ...")
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
	rect, err := ast.Rectify(sys.Program)
	if err != nil {
		fatal(err)
	}

	if *showGraph {
		if *pred == "" {
			fatal(fmt.Errorf("-show-graph requires -pred"))
		}
		g, err := sdgraph.Build(rect, *pred, *maxDepth)
		if err != nil {
			fatal(err)
		}
		if *dot {
			fmt.Print(g.DOT())
		} else {
			fmt.Print(g)
		}
		return
	}
	if *showIso != "" {
		if *pred == "" {
			fatal(fmt.Errorf("-show-isolation requires -pred"))
		}
		seq := unfold.Sequence(strings.Fields(*showIso))
		chain, err := transform.Isolate(rect, seq)
		if err != nil {
			fatal(err)
		}
		fmt.Println("% Algorithm 4.1 (alpha/beta/gamma) isolation:")
		printLabeled(chain)
		flat, err := transform.IsolateFlat(rect, seq)
		if err != nil {
			fatal(err)
		}
		fmt.Println("% flat isolation:")
		printLabeled(flat.Prog)
		return
	}

	smallPreds := map[string]bool{}
	for _, p := range strings.Split(*small, ",") {
		if p != "" {
			smallPreds[p] = true
		}
	}
	var preds []string
	if *pred != "" {
		preds = []string{*pred}
	}
	tracer, err := obsFlags.Tracer()
	if err != nil {
		fatal(err)
	}
	res, err := semopt.Optimize(sys.Program, sys.ICs, semopt.Options{
		Residue: residue.Options{MaxDepth: *maxDepth, IntroducePreds: smallPreds},
		Preds:   preds,
		Tracer:  tracer,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println("% input (rectified):")
	fmt.Print(res.Rectified)
	fmt.Println("\n% integrity constraints:")
	for _, ic := range sys.ICs {
		fmt.Println("%", ic)
	}
	fmt.Println("\n% opportunities:")
	if len(res.Opportunities) == 0 {
		fmt.Println("%   (none)")
	}
	for _, o := range res.Opportunities {
		fmt.Println("%  ", o)
	}
	for _, rep := range res.Reports {
		fmt.Println("%", strings.ReplaceAll(rep.String(), "\n", "\n% "))
	}
	for _, n := range res.Notes {
		fmt.Println("% note:", n)
	}
	fmt.Printf("%% compile time: %s\n\n", res.CompileTime)
	fmt.Println("% optimized program:")
	fmt.Print(res.Optimized)

	if *verify {
		if err := verifyCandidates(sys, smallPreds, *goal, tracer); err != nil {
			fatal(err)
		}
	}
	if err := obsFlags.Finish(os.Stderr, tracer); err != nil {
		fatal(err)
	}
}

// verifyCandidates runs cost-based plan selection over the loaded
// facts, evaluates every available candidate (original, isolated,
// optimized, magic with -goal, bounded), compares each against the
// original's answers on every predicate visible in the original
// program, and reports per-candidate timings and work counters to
// stderr. The magic candidate computes only the goal's answers, so it
// is compared on the goal predicate restricted to the goal's bound
// arguments.
func verifyCandidates(sys *repro.System, small map[string]bool, goalSrc string, tracer *obs.Tracer) error {
	popts := planner.Options{ICs: sys.ICs, SmallPreds: small}
	var goal *ast.Atom
	if goalSrc != "" {
		g, err := repro.ParseAtom(goalSrc)
		if err != nil {
			return fmt.Errorf("verify: bad -goal: %w", err)
		}
		goal = &g
		popts.Goal = goal
	}
	d, err := planner.Plan(sys.Program, sys.DB, popts)
	if err != nil {
		return fmt.Errorf("verify: plan: %w", err)
	}
	fmt.Fprintf(os.Stderr, "verify: chosen plan %s (%s)\n", d.Chosen, d.Reason)

	run := func(prog *ast.Program) (*repro.DB, time.Duration, eval.Stats, error) {
		db := sys.DB.Clone()
		e := eval.New(prog, db)
		e.SetTracer(tracer)
		start := time.Now()
		err := e.Run()
		return db, time.Since(start), e.Stats(), err
	}
	orig := d.Candidate(planner.Orig)
	base, dBase, stBase, err := run(orig.Program)
	if err != nil {
		return fmt.Errorf("verify: orig: %w", err)
	}
	report := func(v planner.Variant, dur time.Duration, st eval.Stats) {
		marker := " "
		if v == d.Chosen {
			marker = "*"
		}
		fmt.Fprintf(os.Stderr, "verify: %s %-7s %12s (iterations=%d probes=%d index_probes=%d derived=%d inserted=%d)\n",
			marker, v, dur, st.Iterations, st.Probes, st.IndexProbes, st.Derived, st.Inserted)
	}
	report(planner.Orig, dBase, stBase)

	idb := orig.Program.IDBPreds()
	mismatches := 0
	for _, c := range d.Candidates {
		if c.Variant == planner.Orig {
			continue
		}
		if c.Program == nil {
			fmt.Fprintf(os.Stderr, "verify:   %-7s unavailable: %s\n", c.Variant, c.Err)
			continue
		}
		db, dur, st, err := run(c.Program)
		if err != nil {
			return fmt.Errorf("verify: %s: %w", c.Variant, err)
		}
		report(c.Variant, dur, st)
		if c.Variant == planner.Magic {
			mismatches += compareGoal(base, db, *goal)
		} else {
			mismatches += comparePreds(base, db, string(c.Variant), idb)
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("verify: %d disagreement(s) between the original and a candidate", mismatches)
	}
	fmt.Fprintln(os.Stderr, "verify: all candidates agree with the original on every visible predicate")
	return nil
}

// comparePreds checks that db agrees with base on every pred in idb,
// printing each mismatch, and returns how many predicates disagree.
func comparePreds(base, db *repro.DB, label string, idb map[string]bool) int {
	mismatches := 0
	for pred := range idb {
		ro, rn := base.Relation(pred), db.Relation(pred)
		no, nn := 0, 0
		if ro != nil {
			no = ro.Len()
		}
		if rn != nil {
			nn = rn.Len()
		}
		if no != nn {
			mismatches++
			fmt.Fprintf(os.Stderr, "verify: MISMATCH %s: %d tuples original, %d %s\n", pred, no, nn, label)
			continue
		}
		if ro == nil {
			continue
		}
		for pos := 0; pos < ro.Len(); pos++ {
			t := ro.At(pos)
			if !rn.Contains(t) {
				mismatches++
				fmt.Fprintf(os.Stderr, "verify: MISMATCH %s: tuple %s missing from %s\n", pred, t, label)
				break
			}
		}
	}
	return mismatches
}

// compareGoal checks that db agrees with base on the goal predicate's
// tuples matching the goal — the only answers a magic-rewritten program
// is required to compute.
func compareGoal(base, db *repro.DB, goal ast.Atom) int {
	rb, rm := base.Relation(goal.Pred), db.Relation(goal.Pred)
	g := storage.LowerGoal(goal.Args)
	matches := func(t storage.Tuple) bool { return g.Known && len(t) == len(goal.Args) && g.Match(t) }
	mismatches := 0
	var nb, nm int
	if rb != nil {
		for pos := 0; pos < rb.Len(); pos++ {
			t := rb.At(pos)
			if !matches(t) {
				continue
			}
			nb++
			if rm == nil || !rm.Contains(t) {
				if mismatches == 0 {
					fmt.Fprintf(os.Stderr, "verify: MISMATCH %s: goal answer %s missing from magic\n", goal.Pred, t)
				}
				mismatches++
			}
		}
	}
	if rm != nil {
		for pos := 0; pos < rm.Len(); pos++ {
			t := rm.At(pos)
			if matches(t) {
				nm++
			}
		}
	}
	if nm != nb {
		fmt.Fprintf(os.Stderr, "verify: MISMATCH %s: %d goal answers original, %d magic\n", goal.Pred, nb, nm)
		return mismatches + 1
	}
	return mismatches
}

// printLabeled prints one rule per line, prefixed with its label.
func printLabeled(p *ast.Program) {
	for _, r := range p.Rules {
		fmt.Printf("%-12s %s\n", r.Label+":", r)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "semopt:", err)
	os.Exit(1)
}
