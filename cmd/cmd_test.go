// Package cmd_test builds the three command-line tools once and drives
// them end to end through real invocations, checking output shapes and
// exit codes.
package cmd_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "repro-cmds")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"dlog", "semopt", "bench", "paper"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "repro/cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			panic(tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, tool string, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	return stdout.String(), stderr.String(), err
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const ancestry = `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).
par(ann, bea).
par(bea, cal).
par(cal, dee).
`

const genealogy = `
anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Za1, Z, Za), par(Z2, Za2, Z1, Za1) -> .
par(dan, 21, carla, 47).
par(carla, 47, bob, 72).
par(bob, 72, alice, 95).
`

func TestDlogQuery(t *testing.T) {
	f := writeFile(t, "anc.dl", ancestry)
	stdout, stderr, err := run(t, "dlog", "-query", "anc(ann, Y)", f)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	for _, want := range []string{"anc(ann, bea)", "anc(ann, cal)", "anc(ann, dee)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("missing %q in %q", want, stdout)
		}
	}
	if !strings.Contains(stderr, "3 answers") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestDlogAllAndStats(t *testing.T) {
	f := writeFile(t, "anc.dl", ancestry)
	stdout, stderr, err := run(t, "dlog", "-all", "-stats", f)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if c := strings.Count(stdout, "anc("); c != 6 {
		t.Errorf("anc tuples = %d, want 6:\n%s", c, stdout)
	}
	if strings.Contains(stdout, "par(") {
		t.Error("-all must print IDB relations only")
	}
	if !strings.Contains(stderr, "iterations=") {
		t.Errorf("stats missing: %q", stderr)
	}
}

// TestDlogStatsJoinPath: -stats names the join path that ran. The
// triangle body is cyclic, so the engine plans it through Generic Join.
func TestDlogStatsJoinPath(t *testing.T) {
	f := writeFile(t, "tri.dl", `
tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).
e(a, b). e(b, c). e(c, a). e(a, c).
`)
	stdout, stderr, err := run(t, "dlog", "-stats", "-query", "tri(X, Y, Z)", f)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if c := strings.Count(stdout, "tri("); c != 3 {
		t.Errorf("answers = %d, want 3:\n%s", c, stdout)
	}
	if !strings.Contains(stderr, "gj_planned=1 gj_firings=1") {
		t.Errorf("stats do not show the Generic Join path: %q", stderr)
	}
}

func TestDlogExplain(t *testing.T) {
	f := writeFile(t, "anc.dl", ancestry)
	stdout, stderr, err := run(t, "dlog", "-explain", "anc(ann, dee)", f)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "[fact]") || !strings.Contains(stdout, "anc(ann, dee)") {
		t.Errorf("explain output = %q", stdout)
	}
}

// TestDlogOptimize pins the semantically optimized plan with -plan opt:
// the answers are the original program's and the decision table names
// the pinned plan.
func TestDlogOptimize(t *testing.T) {
	f := writeFile(t, "gen.dl", genealogy)
	stdout, stderr, err := run(t, "dlog", "-plan", "opt", "-query", "anc(dan, A, B, C)", f)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if c := strings.Count(stdout, "anc(dan"); c != 3 {
		t.Errorf("answers = %d, want 3:\n%s\n%s", c, stdout, stderr)
	}
	if !strings.Contains(stderr, "chosen: opt") {
		t.Errorf("decision table missing the pinned plan: %q", stderr)
	}
}

// TestRemovedFlags: the join override, dlog's second plan selector and
// the pprof alias are not flags of any tool.
func TestRemovedFlags(t *testing.T) {
	for _, tool := range []string{"dlog", "semopt", "bench"} {
		for _, flag := range []string{"-join", "-optimize", "-expose-pprof"} {
			_, stderr, err := run(t, tool, flag)
			if err == nil || !strings.Contains(stderr, "flag provided but not defined") {
				t.Errorf("%s %s: err = %v, stderr = %q", tool, flag, err, stderr)
			}
		}
	}
}

func TestDlogErrors(t *testing.T) {
	if _, _, err := run(t, "dlog"); err == nil {
		t.Error("no arguments must fail")
	}
	f := writeFile(t, "bad.dl", "p(X :- q(X).")
	if _, _, err := run(t, "dlog", "-all", f); err == nil {
		t.Error("parse error must fail")
	}
	if _, _, err := run(t, "dlog", "-all", "/nonexistent/file.dl"); err == nil {
		t.Error("missing file must fail")
	}
}

func TestSemoptPipeline(t *testing.T) {
	f := writeFile(t, "gen.dl", genealogy)
	stdout, stderr, err := run(t, "semopt", f)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	for _, want := range []string{
		"% opportunities:",
		"subtree pruning",
		"% optimized program:",
		"X4 > 50",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("missing %q in semopt output:\n%s", want, stdout)
		}
	}
}

func TestSemoptShowGraph(t *testing.T) {
	f := writeFile(t, "gen.dl", genealogy)
	stdout, _, err := run(t, "semopt", "-pred", "anc", "-show-graph", f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "SD-graph for anc") {
		t.Errorf("graph output = %q", stdout)
	}
	dotOut, _, err := run(t, "semopt", "-pred", "anc", "-show-graph", "-dot", f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dotOut, "digraph sd_anc") {
		t.Errorf("dot output = %q", dotOut)
	}
	// -show-graph without -pred fails.
	if _, _, err := run(t, "semopt", "-show-graph", f); err == nil {
		t.Error("-show-graph without -pred must fail")
	}
}

func TestSemoptShowIsolation(t *testing.T) {
	f := writeFile(t, "gen.dl", genealogy)
	stdout, _, err := run(t, "semopt", "-pred", "anc", "-show-isolation", "r1 r1", f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout, "Algorithm 4.1") || !strings.Contains(stdout, "flat isolation") {
		t.Errorf("isolation output = %q", stdout)
	}
	if !strings.Contains(stdout, "alpha1") {
		t.Errorf("missing alpha rules:\n%s", stdout)
	}
}

func TestPaperReplay(t *testing.T) {
	stdout, stderr, err := run(t, "paper")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	for _, want := range []string{
		"Example 2.1",
		"computed classical residue: Y2 = X2, Y3 = X3 -> d(X5, V7).",
		"sequence r0 r0 r0   maximally subsumed: true",
		"computed: sequence r1 r1   residue: true -> expert(X1, F_1).",
		"atom elimination on sequence r1 r1 r1 r1 when R_11 = executive",
		"atom introduction on sequence r2 when X4 > 10000: add doctoral(X2)",
		"subtree pruning on sequence r1 r1 r1 when X4 <= 50",
		"every object satisfying the context is an answer",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("paper replay missing %q", want)
		}
	}
}

func TestBenchQuickSingle(t *testing.T) {
	stdout, stderr, err := run(t, "bench", "-quick", "-only", "E7")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "E7 — Intelligent query answering") {
		t.Errorf("bench output = %q", stdout)
	}
	if strings.Contains(stdout, "E4") {
		t.Error("-only must filter other experiments")
	}
	md, _, err := run(t, "bench", "-quick", "-only", "E7", "-markdown")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "### E7") || !strings.Contains(md, "| --- |") {
		t.Errorf("markdown output = %q", md)
	}
}

func TestSemoptVerify(t *testing.T) {
	f := writeFile(t, "gen.dl", genealogy)
	_, stderr, err := run(t, "semopt", "-verify", f)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	// The candidate table: the planner's pick, one timed line per
	// evaluated candidate (the pick starred), and the agreement verdict.
	if !strings.Contains(stderr, "verify: chosen plan ") {
		t.Errorf("verify plan choice missing: %q", stderr)
	}
	timed := regexp.MustCompile(`(?m)^verify: ([* ]) (orig|iso|opt) +\S+s \(iterations=\d+ probes=\d+ index_probes=\d+ derived=\d+ inserted=\d+\)$`)
	rows := timed.FindAllStringSubmatch(stderr, -1)
	starred := 0
	for _, r := range rows {
		if r[1] == "*" {
			starred++
		}
	}
	if len(rows) != 3 || starred != 1 {
		t.Errorf("verify candidate table: %d timed rows, %d starred, want 3 and 1: %q", len(rows), starred, stderr)
	}
	if !strings.Contains(stderr, "verify: all candidates agree with the original on every visible predicate") {
		t.Errorf("verify verdict missing: %q", stderr)
	}
}

func TestBenchJSONRecords(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	traceOut := filepath.Join(dir, "trace.json")
	_, stderr, err := run(t, "bench", "-quick", "-only", "E12", "-json", out, "-trace", traceOut)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		GoVersion   string `json:"go_version"`
		GitRevision string `json:"git_revision"`
		GoMaxProcs  int    `json:"gomaxprocs"`
		GeneratedAt string `json:"generated_at"`
		Records     []struct {
			Experiment string `json:"experiment"`
			Label      string `json:"label"`
			NsPerOp    int64  `json:"ns_per_op"`
			Strata     []struct {
				Preds  []string `json:"preds"`
				Rounds int64    `json:"rounds"`
				Ns     int64    `json:"ns"`
			} `json:"strata"`
		} `json:"records"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, data)
	}
	if doc.GoMaxProcs < 1 || len(doc.Records) == 0 {
		t.Fatalf("empty bench document: %s", data)
	}
	// Provenance: Go version always, git revision when built from a
	// checkout (the TestMain go build runs inside the repository).
	if !strings.HasPrefix(doc.GoVersion, "go") {
		t.Errorf("go_version = %q", doc.GoVersion)
	}
	if doc.GeneratedAt == "" {
		t.Error("generated_at missing")
	}
	// -only selects before running: the document holds E12's two
	// records (sweep and recompute) and nothing from any other
	// experiment.
	if len(doc.Records) != 2 {
		t.Errorf("records = %d, want E12's 2", len(doc.Records))
	}
	for i, r := range doc.Records {
		if r.Experiment != "E12" {
			t.Errorf("record %s/%s: -only E12 ran another experiment", r.Experiment, r.Label)
		}
		if want := []string{"/zset", "/recompute"}[i%2]; !strings.HasSuffix(r.Label, want) {
			t.Errorf("record %d label %q, want suffix %s", i, r.Label, want)
		}
		if r.NsPerOp <= 0 {
			t.Errorf("record %s/%s: ns_per_op = %d", r.Experiment, r.Label, r.NsPerOp)
		}
		if len(r.Strata) == 0 {
			t.Errorf("record %s/%s: no per-stratum timings", r.Experiment, r.Label)
			continue
		}
		var rounds int64
		for _, s := range r.Strata {
			rounds += s.Rounds
			if len(s.Preds) == 0 {
				t.Errorf("record %s/%s: stratum with no predicates", r.Experiment, r.Label)
			}
		}
		if rounds == 0 {
			t.Errorf("record %s/%s: zero rounds across strata", r.Experiment, r.Label)
		}
	}
	// The -trace file must be a non-empty JSON array.
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(raw, &evs); err != nil || len(evs) == 0 {
		t.Fatalf("bench trace invalid (err=%v, events=%d)", err, len(evs))
	}
}

func TestDlogProfileTraceEvents(t *testing.T) {
	f := writeFile(t, "anc.dl", ancestry)
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.json")
	eventsOut := filepath.Join(dir, "events.jsonl")
	stdout, stderr, err := run(t, "dlog",
		"-profile", "-trace", traceOut, "-events", eventsOut,
		"-query", "anc(ann, Y)", f)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "anc(ann, dee)") {
		t.Errorf("answers missing: %q", stdout)
	}
	for _, want := range []string{
		"eval profile: strata",
		"eval profile: rules",
		"category", // aggregated span table header
		"eval.rule",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("profile output missing %q:\n%s", want, stderr)
		}
	}
	// The trace file is a Chrome trace-event JSON array of complete
	// ("X") events with microsecond timestamps.
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		PID  int     `json:"pid"`
	}
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, data)
	}
	if len(evs) == 0 {
		t.Fatal("trace has no events")
	}
	sawRule := false
	for _, e := range evs {
		if e.Ph != "X" || e.PID != 1 {
			t.Fatalf("bad trace event: %+v", e)
		}
		if e.Cat == "eval.rule" {
			sawRule = true
		}
	}
	if !sawRule {
		t.Error("trace carries no eval.rule spans")
	}
	// The events file is one JSON object per line.
	raw, err := os.ReadFile(eventsOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("events file is empty")
	}
	for _, line := range lines {
		var obj struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if obj.Name == "" || obj.Cat == "" {
			t.Errorf("incomplete event: %q", line)
		}
	}
}

func TestDlogExplainDot(t *testing.T) {
	f := writeFile(t, "anc.dl", ancestry)
	stdout, stderr, err := run(t, "dlog", "-explain-dot", "anc(ann, dee)", f)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	for _, want := range []string{
		"digraph proof_anc",
		"rankdir=LR",
		"[fact]",
		"par(ann, bea)",
		"->",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("DOT output missing %q:\n%s", want, stdout)
		}
	}
}

func TestDlogStatsAfterExplain(t *testing.T) {
	f := writeFile(t, "anc.dl", ancestry)
	_, stderr, err := run(t, "dlog", "-explain", "anc(ann, dee)", "-stats", f)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "iterations=") || !strings.Contains(stderr, "deduped=") {
		t.Errorf("stats missing after -explain: %q", stderr)
	}
	if !strings.Contains(stderr, "stratum 0 [anc]: rounds=") {
		t.Errorf("per-stratum round counts missing: %q", stderr)
	}
}

func TestSemoptProfile(t *testing.T) {
	f := writeFile(t, "gen.dl", genealogy)
	_, stderr, err := run(t, "semopt", "-profile", f)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	for _, want := range []string{
		"category",
		"rectify",
		"analyze anc",
		"sdgraph",
		"chase",
		"transform",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("semopt profile missing %q:\n%s", want, stderr)
		}
	}
}

func TestDlogREPL(t *testing.T) {
	f := writeFile(t, "anc.dl", ancestry)
	cmd := exec.Command(filepath.Join(binDir, "dlog"), "-i", f)
	cmd.Stdin = strings.NewReader("anc(ann, Y)\npar(dee, eli).\nanc(ann, eli)\n:explain anc(ann, eli)\n:dump\n:stats\nbad syntax here\n:quit\n")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"anc(ann, dee)",  // initial query
		"anc(ann, eli)",  // after adding the fact
		"[fact]",         // explanation
		"par(dee, eli).", // dump includes the new fact
	} {
		if !strings.Contains(out, want) {
			t.Errorf("REPL output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(stderr.String(), "error:") {
		t.Error("bad input must report an error")
	}
	if !strings.Contains(out, "iterations=") {
		t.Error(":stats must print counters")
	}
}
