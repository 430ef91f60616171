// Command bench runs the experiment suite E1–E13 (DESIGN.md §5) and
// prints each table. It regenerates the numbers recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	bench                        # full suite
//	bench -quick                 # reduced sweeps
//	bench -only E4               # run a single experiment (and only it)
//	bench -markdown              # markdown tables (for EXPERIMENTS.md)
//	bench -json BENCH_eval.json  # also write machine-readable records
//
// The -json document carries provenance (Go version, git revision,
// GOMAXPROCS) and per-stratum phase timings per record.
// Observability: -profile prints an aggregated span profile to stderr;
// -trace FILE writes a Chrome trace-event file covering every measured
// evaluation; -events FILE a JSONL log; -pprof ADDR serves
// net/http/pprof for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sweeps")
	only := flag.String("only", "", "run a single experiment, e.g. E4")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	seed := flag.Int64("seed", 42, "workload seed")
	jsonOut := flag.String("json", "", "write machine-readable bench records to this file")
	plan := flag.String("plan", "", "plan selection for E13 and record provenance: auto, orig, iso, opt, magic, bounded")
	obsFlags := obs.RegisterFlags(flag.CommandLine)
	flag.Parse()

	tracer, err := obsFlags.Tracer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Tracer: tracer, Plan: *plan}
	if *jsonOut != "" {
		cfg.Rec = &experiments.Recorder{}
	}
	for _, e := range experiments.Suite {
		if *only != "" && !strings.EqualFold(e.ID, *only) {
			continue
		}
		t := e.Run(cfg)
		if *markdown {
			printMarkdown(t)
		} else {
			fmt.Println(t)
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := cfg.Rec.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if err := obsFlags.Finish(os.Stderr, tracer); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func printMarkdown(t experiments.Table) {
	fmt.Printf("### %s — %s\n\n", t.ID, t.Title)
	fmt.Printf("*Claim:* %s\n\n", t.Claim)
	fmt.Println("| " + strings.Join(t.Columns, " | ") + " |")
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Println("| " + strings.Join(sep, " | ") + " |")
	for _, r := range t.Rows {
		fmt.Println("| " + strings.Join(r, " | ") + " |")
	}
	for _, n := range t.Notes {
		fmt.Printf("\n*Note:* %s\n", n)
	}
	fmt.Println()
}
