package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
)

// testSeconds keeps generated scripts small: counts scale with it.
const testSeconds = 2

func TestScriptIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := genScript(w.name, 7, testSeconds)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genScript(w.name, 7, testSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.bytes(), b.bytes()) {
			t.Errorf("%s: same seed gave different scripts", w.name)
		}
		c, err := genScript(w.name, 8, testSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.bytes(), c.bytes()) {
			t.Errorf("%s: different seeds gave the same script", w.name)
		}
		if a.warm <= 0 || a.warm >= len(a.ops) {
			t.Errorf("%s: warm-up %d of %d ops", w.name, a.warm, len(a.ops))
		}
		primaries := 0
		for _, o := range a.ops[a.warm:] {
			if o.primary {
				primaries++
			}
		}
		if primaries == 0 {
			t.Errorf("%s: no measured primary ops", w.name)
		}
	}
}

func TestCountsScaleWithSeconds(t *testing.T) {
	short, err := genScript("read_point", 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	long, err := genScript("read_point", 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(long.ops), 2*len(short.ops); got < want-2 || got > want+2 {
		t.Errorf("doubling -seconds gave %d ops, want about %d", got, want)
	}
}

// Every fact a writer sends must be effective (an add of an absent
// edge, a del of a present one) and no fact may sit on both sides of
// one request; then applied == len(adds)+len(dels), commit sequence
// numbers are deterministic, and the WAL tail at kill time is fixed by
// the script.
func TestWritersSendOnlyEffectiveDisjointFacts(t *testing.T) {
	for _, p := range []writeParams{sweepParams, negationParams} {
		sc := genWrite(p, 3, defaultSeconds)
		present := map[string]bool{}
		res, err := parser.Parse(sc.setup[0].load.Program)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Program.Rules {
			if r.IsFact() && r.Head.Pred == "edge" {
				present[r.Head.String()] = true
			}
		}
		commits := 0
		for i, o := range sc.ops {
			if o.kind != opChange {
				continue
			}
			commits++
			if len(o.adds)+len(o.dels) != p.factsPerOp || o.want != p.factsPerOp {
				t.Fatalf("%s op %d: %d adds %d dels want %d", p.name, i, len(o.adds), len(o.dels), o.want)
			}
			inReq := map[string]bool{}
			for _, f := range o.adds {
				if present[f] {
					t.Fatalf("%s op %d adds %s, which is present", p.name, i, f)
				}
				if inReq[f] {
					t.Fatalf("%s op %d names %s twice", p.name, i, f)
				}
				inReq[f] = true
			}
			for _, f := range o.dels {
				if !present[f] {
					t.Fatalf("%s op %d deletes %s, which is absent", p.name, i, f)
				}
				if inReq[f] {
					t.Fatalf("%s op %d names %s on both sides", p.name, i, f)
				}
				inReq[f] = true
			}
			for _, f := range o.adds {
				present[f] = true
			}
			for _, f := range o.dels {
				delete(present, f)
			}
		}
		// The load checkpoints, so commit k is WAL batch k and a
		// checkpoint follows every ckptEvery-th commit.
		if got := commits % p.ckptEvery; got != p.tail || sc.tailBatches != p.tail {
			t.Errorf("%s: %d commits leave a tail of %d batches, script says %d, want %d",
				p.name, commits, got, sc.tailBatches, p.tail)
		}
		if commits < p.ckptEvery {
			t.Errorf("%s: %d commits never reach a checkpoint", p.name, commits)
		}
	}
}

// The model of the tc workloads is a breadth-first search that shares
// no code with the engine. Check it against from-scratch evaluation of
// the original program on the script's final EDB, and each fresh read
// against evaluation of the EDB at that point.
func TestReachabilityModelAgreesWithEvaluation(t *testing.T) {
	for _, p := range []writeParams{sweepParams, negationParams} {
		sc := genWrite(p, 5, 1)
		res, err := parser.Parse(sc.setup[0].load.Program)
		if err != nil {
			t.Fatal(err)
		}
		db := storage.NewDatabase()
		var rules []ast.Rule
		for _, r := range res.Program.Rules {
			if r.IsFact() {
				db.AddFact(r.Head)
			} else {
				rules = append(rules, r)
			}
		}
		prog := &ast.Program{Rules: rules}
		evaluate := func() *eval.Engine {
			eng := eval.New(prog, db.Clone())
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			return eng
		}
		check := func(eng *eval.Engine, o op) {
			goal, err := parser.ParseAtom(o.goal)
			if err != nil {
				t.Fatal(err)
			}
			tuples, err := eng.Query(goal)
			if err != nil {
				t.Fatal(err)
			}
			if len(tuples) != o.want {
				t.Fatalf("%s %s: engine says %d rows, model %d", p.name, o.goal, len(tuples), o.want)
			}
			if o.hasDigest {
				var sum uint64
				for _, tu := range tuples {
					row := make([]string, len(tu))
					for i, v := range tu {
						row[i] = v.String()
					}
					sum += rowHash(row)
				}
				if sum != o.digest {
					t.Fatalf("%s %s: digest differs from the engine's", p.name, o.goal)
				}
			}
		}
		if eng := evaluate(); eng.DB().TotalTuples()-db.TotalTuples() != sc.setup[0].want {
			t.Fatalf("%s: load expects %d idb tuples, engine derives %d", p.name, sc.setup[0].want, eng.DB().TotalTuples()-db.TotalTuples())
		}
		fresh := 0
		for i, o := range sc.ops {
			switch {
			case o.kind == opChange:
				if fresh < 5 && i+1 < len(sc.ops) && sc.ops[i+1].fresh {
					// What the fresh read would see on the pre-commit snapshot.
					stale := sc.ops[i+1]
					stale.want = stale.staleWant
					check(evaluate(), stale)
				}
				for _, f := range o.adds {
					a, err := parser.ParseAtom(f)
					if err != nil {
						t.Fatal(err)
					}
					db.AddFact(a)
				}
				for _, f := range o.dels {
					a, err := parser.ParseAtom(f)
					if err != nil {
						t.Fatal(err)
					}
					db.RemoveTuple(a.Pred, storage.TupleOfTerms(a.Args))
				}
			case o.fresh && fresh < 5:
				fresh++
				check(evaluate(), o)
			}
		}
		eng := evaluate()
		for _, v := range sc.verify {
			check(eng, v)
		}
	}
}

func TestReadPointTableAgreesWithEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluates a quarter-million-tuple closure")
	}
	sc := genReadPoint(2, 1)
	res, err := parser.Parse(sc.setup[0].load.Program)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase()
	var rules []ast.Rule
	for _, r := range res.Program.Rules {
		if r.IsFact() {
			db.AddFact(r.Head)
		} else {
			rules = append(rules, r)
		}
	}
	edb := db.TotalTuples()
	eng := eval.New(&ast.Program{Rules: rules}, db)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := db.TotalTuples() - edb; got != sc.setup[0].want || got < 250000 {
		t.Fatalf("closure holds %d tuples, script says %d, want at least 250000", got, sc.setup[0].want)
	}
	for i, o := range sc.ops {
		if i%97 != 0 {
			continue
		}
		goal, err := parser.ParseAtom(o.goal)
		if err != nil {
			t.Fatal(err)
		}
		tuples, err := eng.Query(goal)
		if err != nil {
			t.Fatal(err)
		}
		if len(tuples) != o.want {
			t.Fatalf("%s: engine says %d rows, table %d", o.goal, len(tuples), o.want)
		}
	}
}

// cold_load's op is a whole cycle: seven loads and then seven drops of
// the same sessions, chained by cont, so the measured phase holds a
// whole number of fourteen-request ops and ends on a closed one.
func TestColdLoadOpIsOneCycle(t *testing.T) {
	sc, err := genColdLoad(1, testSeconds)
	if err != nil {
		t.Fatal(err)
	}
	measured := sc.ops[sc.warm:]
	if len(measured) == 0 || len(measured)%14 != 0 || sc.warm%14 != 0 {
		t.Fatalf("warm-up %d and measured %d requests are not whole cycles", sc.warm, len(measured))
	}
	for i, o := range measured {
		k := i % 14
		wantKind := opLoad
		if k >= 7 {
			wantKind = opDrop
		}
		if o.kind != wantKind || !o.primary || o.cont != (k != 13) {
			t.Fatalf("request %d of a cycle: kind %s primary %v cont %v", k, o.kind, o.primary, o.cont)
		}
		if k >= 7 && o.session != measured[i-7].session {
			t.Fatalf("request %d drops %s, the cycle loaded %s", k, o.session, measured[i-7].session)
		}
	}
	if len(sc.resident) != 7 || len(sc.verify) != 7 {
		t.Errorf("%d resident loads and %d verification queries, want seven each", len(sc.resident), len(sc.verify))
	}
}

func TestPercentileMedianQuartiles(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 10}, 1, 10},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100] has children a [10,40] and b [50,70]; a has a child
	// c [20,30]. A shadow span stands alone.
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "c", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "b", Start: 50, End: 70},
		{ID: 5, Name: "probe", Start: 200, End: 260, Shadow: true},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 50, "a": 20, "c": 10, "b": 20, "probe": 60}
	for name, w := range want {
		if got := self[name]; len(got) != 1 || got[0] != w {
			t.Errorf("self time of %s = %v, want %v", name, got, w)
		}
	}
	sum := summarize(spans)
	var share float64
	for _, l := range sum {
		if l.Shadow != (l.Name == "probe") {
			t.Errorf("%s: shadow = %v", l.Name, l.Shadow)
		}
		share += l.Share
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("path shares sum to %v, want 1", share)
	}

	tr := newTracer()
	tr.do("outer", func() {
		tr.do("inner", func() {})
		tr.child("reported", 0)
	})
	tr.shadow("beside", func() {})
	if len(tr.spans) != 4 || tr.spans[1].Parent != 1 || tr.spans[2].Parent != 1 || tr.spans[3].Parent != 0 || !tr.spans[3].Shadow {
		t.Errorf("tracer nesting wrong: %+v", tr.spans)
	}
}

func TestProcAndExpositionParsers(t *testing.T) {
	stat := []byte("4242 (dlogd (odd) name) S 1 4242 4242 0 -1 4194560 1000 0 0 0 150 50 0 0 20 0 9 0 12345 1000000 500 18446744073709551615\n")
	cpu, err := parseProcStatCPU(stat)
	if err != nil || cpu != 2.0 {
		t.Errorf("parseProcStatCPU = %v, %v; want 2.0 (150+50 ticks)", cpu, err)
	}
	if _, err := parseProcStatCPU([]byte("garbage")); err == nil {
		t.Error("parseProcStatCPU accepted garbage")
	}
	hwm, err := parseVmHWM([]byte("Name:\tdlogd\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10000 kB\n"))
	if err != nil || hwm != 20 {
		t.Errorf("parseVmHWM = %v, %v; want 20", hwm, err)
	}
	m := parseExposition("# TYPE serve_query_ns histogram\nserve_query_ns_bucket{le=\"1023\"} 3\nserve_query_ns_sum 1500\nserve_query_ns_count 3\nserve_cache_hits 7\n")
	if m["serve_query_ns_sum"] != 1500 || m["serve_query_ns_count"] != 3 || m["serve_cache_hits"] != 7 || len(m) != 3 {
		t.Errorf("parseExposition = %v", m)
	}
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json at the repository root must be exactly what the
// driver's own tables generate, and every name in it must be one the
// driver emits.
func TestManifestMatchesTheDriver(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(manifestJSON(), &want); err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("BENCHMARK.json differs from `go run . -print-manifest`:\n got %s\nwant %s", gb, wb)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}

	m := manifest()
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != 4 {
		t.Errorf("%d workloads, want exactly four", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if !unitRe.MatchString(e.Unit) {
			t.Errorf("unit %q of %s", e.Unit, e.Name)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("bound %v of %s outside (0, 0.25]", e.Bound, e.Name)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("better %q of %s", e.Better, e.Name)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, l := range m.PerLayer {
		name(l.Name)
		if !unitRe.MatchString(l.Unit) {
			t.Errorf("unit %q of %s", l.Unit, l.Name)
		}
	}
	if m.RunSeconds != defaultSeconds || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}

	// Emitted by the driver: feed the metric assembly synthetic
	// measurements and look for every name.
	res := &result{metrics: map[string]metric{}, counts: map[string]int64{}}
	ph := &phase{cpu: 0.4, wall: time.Second}
	for i := 0; i < 100; i++ {
		ph.opLat = append(ph.opLat, 1+float64(i%7))
	}
	res.setEndToEnd([]float64{0.2, 0.1, 0.4}, 1.5, ph, 20)
	for _, e := range m.EndToEnd {
		if v, ok := res.metrics[e.Name]; !ok || v.Value <= 0 || v.Unit != e.Unit {
			t.Errorf("end-to-end metric %s: driver emitted %+v (present %v)", e.Name, v, ok)
		}
	}
	for name, want := range map[string]float64{"setup_s": 1.7, "ops_per_s": 100, "op_p50_ms": 4, "op_p95_ms": 7, "cpu_ms_per_op": 4, "rss_peak_mb": 20} {
		if got := res.metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v (whole-phase figure, median bring-up)", name, got, want)
		}
	}
	if len(res.metrics) != len(m.EndToEnd) {
		t.Errorf("driver emits %d end-to-end metrics, manifest lists %d", len(res.metrics), len(m.EndToEnd))
	}
	lres := &result{metrics: map[string]metric{}}
	empty := &result{metrics: map[string]metric{}, scrape: map[string]float64{}}
	layerMetrics(lres, &script{workload: "none"}, empty, empty, &layerReplay{t: newTracer()}, new(bytes.Buffer))
	for _, l := range m.PerLayer {
		if v, ok := lres.metrics[l.Name]; !ok || v.Unit != l.Unit {
			t.Errorf("per-layer metric %s: driver emitted %+v (present %v)", l.Name, v, ok)
		}
	}
	if len(lres.metrics) != len(m.PerLayer) {
		t.Errorf("driver emits %d per-layer metrics, manifest lists %d", len(lres.metrics), len(m.PerLayer))
	}
}
