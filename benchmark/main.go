// Command benchmark is the repository's service benchmark: it builds
// cmd/dlogd, drives a real dlogd process through four fixed,
// seed-generated workloads over one closed-loop HTTP connection, checks
// every answer against a model, and prints every metric by name.
//
// See README.md in this directory for the one command per use.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

// options are the command line.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	root      string
	record    string
	selfcheck bool
	runs      int
	checkOut  string
}

func realMain() int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload (cold_load, read_point, write_sweep, write_negation) and print its result object as the last line; empty runs all four")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same script")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "nominal length of the measured phase; scales the fixed op counts, never a timer")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: layer replay, /metrics scrape and reply stats; prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.root, "root", "", "repository root (default: the working directory or its parent, whichever holds cmd/dlogd)")
	fs.StringVar(&o.record, "record", "", "run every workload untraced and traced and write the trajectory point (all metrics with provenance) to `FILE`")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite as two interleaved sets of -runs runs and compare their medians against the bounds")
	fs.IntVar(&o.runs, "runs", 5, "runs per set for -selfcheck")
	fs.StringVar(&o.checkOut, "selfcheck-out", "", "also write the -selfcheck report (markdown) to `FILE`")
	printManifest := fs.Bool("print-manifest", false, "print BENCHMARK.json as generated from the driver's own tables, and exit")
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	if *printManifest {
		os.Stdout.Write(manifestJSON()) //nolint:errcheck // stdout
		return 0
	}

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if o.seconds < 1 {
		return fail(fmt.Errorf("-seconds must be at least 1"))
	}
	if o.workload != "" && !knownWorkload(o.workload) {
		return fail(fmt.Errorf("unknown workload %q", o.workload))
	}
	rootDir, err := findRoot(o.root)
	if err != nil {
		return fail(err)
	}
	loadAtStart := loadAverage()
	build := filepath.Join(rootDir, ".bench_build")
	bin, err := buildDlogd(rootDir, filepath.Join(build, "bin"))
	if err != nil {
		return fail(err)
	}
	runDir, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(runDir)

	// A signal must not leave a dlogd behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.RemoveAll(runDir)
		os.Exit(130)
	}()

	b := &bench{opts: o, root: rootDir, dlogd: bin, runDir: runDir}
	switch {
	case o.selfcheck:
		return b.selfcheck()
	case o.record != "":
		return b.record(loadAtStart)
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = workloadNames()
	}
	code := 0
	for _, name := range names {
		res, err := b.run(name, o.trace != 0)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", name, err))
		}
		printResult(res)
		if res.failed > 0 {
			code = 1
		}
	}
	return code
}

// bench holds what every run of this invocation shares.
type bench struct {
	opts   options
	root   string
	dlogd  string
	runDir string
	serial int
}

// run executes one workload once, untraced or traced.
func (b *bench) run(name string, traced bool) (*result, error) {
	b.serial++
	env := runEnv{dlogd: b.dlogd, dir: filepath.Join(b.runDir, fmt.Sprintf("%s-%d", name, b.serial)), log: os.Stderr}
	defer os.RemoveAll(env.dir)
	if traced {
		return runTraced(env, name, b.opts.seed, b.opts.seconds, filepath.Join(b.root, "benchmark", "out"))
	}
	sc, err := genScript(name, b.opts.seed, b.opts.seconds)
	if err != nil {
		return nil, err
	}
	return runWorkload(env, sc)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.name == name {
			return true
		}
	}
	return false
}

func findRoot(flagRoot string) (string, error) {
	cands := []string{flagRoot}
	if flagRoot == "" {
		cands = []string{".", ".."}
	}
	for _, c := range cands {
		if _, err := os.Stat(filepath.Join(c, "cmd", "dlogd", "main.go")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("cannot find the repository root (no cmd/dlogd under %v); pass -root", cands)
}

// printResult prints every metric by name with its unit, any failures,
// and — as the last line — the result object the benchmark contract
// asks for.
func printResult(res *result) {
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("%s/%s = %.6g %s (n=%d)\n", res.workload, n, m.Value, m.Unit, m.Samples)
	}
	// An untraced run on a write workload measures these two on the way;
	// they are reported by the traced run, so here they are only shown.
	for _, n := range []string{"feed_p50_ms", "fresh_read_p50_ms"} {
		if m, ok := res.service[n]; ok {
			fmt.Printf("%s/%s = %.6g %s (n=%d, for information)\n", res.workload, n, m.Value, m.Unit, m.Samples)
		}
	}
	fmt.Printf("%s/ops_attempted = %d count\n%s/ops_failed = %d count\n%s/stale_reads = %d count\n",
		res.workload, res.attempted, res.workload, res.failed, res.workload, res.staleReads)
	for _, f := range res.failures {
		fmt.Printf("%s FAILED: %s\n", res.workload, strings.TrimSpace(f))
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]wire, len(res.metrics))
	for n, m := range res.metrics {
		ms[n] = wire{m.Value, m.Unit}
	}
	out := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, ms}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings
	}
	fmt.Println(string(line))
}

// --- trajectory point ---------------------------------------------------------

// trajectory is the shape of BENCH_service.json.
type trajectory struct {
	Schema      int                       `json:"schema"`
	Note        string                    `json:"note"`
	RecordedAt  string                    `json:"recorded_at"`
	Seed        int64                     `json:"seed"`
	Seconds     int                       `json:"seconds"`
	GoVersion   string                    `json:"go_version"`
	GitRevision string                    `json:"git_revision"`
	NProc       int                       `json:"nproc"`
	GOMAXPROCS  int                       `json:"gomaxprocs"`
	LoadAverage string                    `json:"load_average_at_start"`
	Workloads   map[string]workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	Why       string            `json:"why"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Counts    map[string]int64  `json:"counts"`
}

// record runs every workload untraced and traced and writes the
// trajectory point.
func (b *bench) record(loadAtStart string) int {
	tr := trajectory{
		Schema:      1,
		Note:        "first trajectory point of the dlogd service benchmark; no gain is claimed. Latencies are this sandbox's, not a device's.",
		RecordedAt:  time.Now().UTC().Format(time.RFC3339),
		Seed:        b.opts.seed,
		Seconds:     b.opts.seconds,
		GoVersion:   runtime.Version(),
		GitRevision: gitRevision(b.root),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		LoadAverage: loadAtStart,
		Workloads:   map[string]workloadRecord{},
	}
	code := 0
	for _, w := range workloads {
		plain, err := b.run(w.name, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 2
		}
		printResult(plain)
		traced, err := b.run(w.name, true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s (traced): %v\n", w.name, err)
			return 2
		}
		printResult(traced)
		if plain.failed+traced.failed > 0 {
			code = 1
		}
		tr.Workloads[w.name] = workloadRecord{
			Why:       w.why,
			Correct:   plain.failed+traced.failed == 0,
			Attempted: plain.attempted + traced.attempted,
			Failed:    plain.failed + traced.failed,
			EndToEnd:  plain.metrics,
			PerLayer:  traced.metrics,
			Counts:    plain.counts,
		}
	}
	out, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		panic(err) // plain numbers and strings
	}
	if err := os.WriteFile(b.opts.record, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "trajectory point written to %s\n", b.opts.record)
	return code
}

func gitRevision(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown" // not a git checkout (the benchmark driver's is not)
	}
	rev := strings.TrimSpace(string(out))
	status := exec.Command("git", "status", "--porcelain")
	status.Dir = root
	if out, err := status.Output(); err == nil && len(bytes.TrimSpace(out)) > 0 {
		rev += "+uncommitted"
	}
	return rev
}

func loadAverage() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}
