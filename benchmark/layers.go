package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"
)

// layerSpec is one per-layer metric: module.name, unit, direction, and
// where it comes from. Names are final: later issues cite them.
type layerSpec struct {
	name   string
	unit   string
	better string
}

// perLayer lists the per-layer metrics a traced run prints, every one
// of them for every workload; a layer the workload never enters
// reports 0. README.md maps each to the end-to-end metric it should
// move and on which workload.
//
// The first four are not a layer's: they are the service's own
// recovery, replication and freshness timings, which only some
// workloads have. An end-to-end metric must come from every workload,
// so they are reported here, from the traced run's plain (untraced)
// dlogd, and carry no bound.
var perLayer = []layerSpec{
	{"recover_s", "s", "lower"},
	{"follower_ready_s", "s", "lower"},
	{"feed_p50_ms", "ms", "lower"},
	{"fresh_read_p50_ms", "ms", "lower"},
	{"parser.program_parse_ms", "ms", "lower"},
	{"parser.facts_parse_us", "us", "lower"},
	{"parser.mb_per_s", "MB/s", "higher"},
	{"semopt.optimize_ms", "ms", "lower"},
	{"semopt.residues_found", "count", "higher"},
	{"magic.rewrite_ms", "ms", "lower"},
	{"planner.plan_ms", "ms", "lower"},
	{"planner.candidates_priced", "count", "lower"},
	{"planner.regret_ratio", "ratio", "lower"},
	{"storage.insert_ns_per_tuple", "ns", "lower"},
	{"storage.intern_ns", "ns", "lower"},
	{"storage.index_build_ms", "ms", "lower"},
	{"storage.lookup_ns", "ns", "lower"},
	{"storage.sorted_catchup_us", "us", "lower"},
	{"storage.snapshot_detach_us", "us", "lower"},
	{"storage.heap_bytes_per_tuple", "B", "lower"},
	{"eval.fixpoint_ms", "ms", "lower"},
	{"eval.fixpoint_rounds", "count", "lower"},
	{"eval.fixpoint_probes", "count", "lower"},
	{"eval.fixpoint_derived", "count", "lower"},
	{"eval.probes_per_derived", "ratio", "lower"},
	{"eval.gj_firings", "count", "higher"},
	{"eval.sweep_ms", "ms", "lower"},
	{"eval.sweep_delta_tuples", "count", "lower"},
	{"eval.sweep_refused_frac", "ratio", "lower"},
	{"eval.query_us", "us", "lower"},
	{"durable.encode_batch_us", "us", "lower"},
	{"durable.append_us", "us", "lower"},
	{"durable.fsync_us", "us", "lower"},
	{"durable.wal_bytes_per_fact", "B", "lower"},
	{"durable.checkpoint_ms", "ms", "lower"},
	{"durable.snapshot_bytes_per_tuple", "B", "lower"},
	{"durable.decode_snapshot_ms", "ms", "lower"},
	{"durable.scan_segment_mb_per_s", "MB/s", "higher"},
	{"durable.recover_ms", "ms", "lower"},
	{"replicate.encode_batch_us", "us", "lower"},
	{"replicate.decode_batch_us", "us", "lower"},
	{"replicate.snapshot_ship_ms", "ms", "lower"},
	{"serve.query_ms", "ms", "lower"},
	{"serve.commit_ms", "ms", "lower"},
	{"serve.commit_wait_ms", "ms", "lower"},
	{"serve.batch_size_mean", "count", "higher"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.recompute_frac", "ratio", "lower"},
	{"serve.overhead_us", "us", "lower"},
	{"serve.recover_sessions_ms", "ms", "lower"},
	{"obs.tracer_overhead_frac", "ratio", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
}

// serviceMetrics names the first four entries of perLayer.
var serviceMetrics = []string{"recover_s", "follower_ready_s", "feed_p50_ms", "fresh_read_p50_ms"}

// replayTolerance is how far the replay's derivation count may be from
// the one dlogd's replies add up to before the traced run fails.
const replayTolerance = 0.001

// traceShare is the part of --seconds each of a traced run's three
// stages (plain dlogd, dlogd with its tracer on, layer replay) gets.
const traceShare = 3

// runTraced is the traced run of one workload: the script at a third
// of its length goes once through a plain dlogd — followed by the
// script's kill/restart cycles and follower bootstraps — and once
// through a dlogd with its own tracer switched on (their op_p50_ms
// difference is bench.trace_overhead_frac), then through the
// in-process layer replay, whose spans are written to
// outDir/trace_<workload>.jsonl. It returns the per-layer metrics.
func runTraced(env runEnv, name string, seed int64, seconds int, outDir string) (*result, error) {
	share := seconds / traceShare
	if share < 1 {
		share = 1
	}
	sc, err := genScript(name, seed, share)
	if err != nil {
		return nil, err
	}
	env.short = true
	plainEnv := env
	plainEnv.dir = filepath.Join(env.dir, "plain")
	plainEnv.crash = true
	plain, err := runWorkload(plainEnv, sc)
	if err != nil {
		return nil, fmt.Errorf("plain run: %w", err)
	}
	tracedEnv := env
	tracedEnv.dir = filepath.Join(env.dir, "traced")
	tracedEnv.dlogdTr = true
	traced, err := runWorkload(tracedEnv, sc)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	start := time.Now()
	lr, err := runReplay(sc, filepath.Join(env.dir, "replay"))
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	fmt.Fprintf(env.log, "  [%s] layer replay: %d spans in %.2fs\n", name, len(lr.t.spans), time.Since(start).Seconds())
	tracePath := filepath.Join(outDir, "trace_"+name+".jsonl")
	if err := writeTrace(tracePath, lr.t.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(env.log, "  [%s] spans written to %s\n", name, tracePath)

	res := &result{
		workload:   name,
		metrics:    map[string]metric{},
		counts:     map[string]int64{},
		attempted:  plain.attempted + traced.attempted,
		failed:     plain.failed + traced.failed + len(lr.failures),
		staleReads: plain.staleReads + traced.staleReads,
		failures:   append(append(plain.failures, traced.failures...), lr.failures...),
	}
	layerMetrics(res, sc, plain, traced, lr, env.log)
	return res, nil
}

// layerMetrics fills res.metrics with every per-layer metric.
func layerMetrics(res *result, sc *script, plain, traced *result, lr *layerReplay, log io.Writer) {
	self := selfTimes(lr.t.spans)
	// selfP50 is the p50 of a span name's self time, in the given unit.
	selfP50 := func(name string, unit time.Duration) (float64, int) {
		ds := self[name]
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d) / float64(unit)
		}
		return p50(xs), len(xs)
	}
	total := func(name string) time.Duration {
		var sum time.Duration
		for _, d := range self[name] {
			sum += d
		}
		return sum
	}
	set := func(name string, v float64, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.set(name, v, n)
	}
	setP50 := func(metricName, spanName string, unit time.Duration) {
		v, n := selfP50(spanName, unit)
		set(metricName, v, n)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// The service's own timings, from the plain dlogd.
	for _, name := range serviceMetrics {
		m := plain.service[name]
		set(name, m.Value, m.Samples)
	}

	// parser
	setP50("parser.program_parse_ms", "parser.parse_program", time.Millisecond)
	setP50("parser.facts_parse_us", "parser.parse_facts", time.Microsecond)
	parseTime := total("parser.parse_program") + total("parser.parse_facts")
	set("parser.mb_per_s", ratio(float64(lr.parsedBytes)/1e6, parseTime.Seconds()), int(lr.parsedBytes))

	// semopt, magic, planner
	setP50("semopt.optimize_ms", "semopt.optimize", time.Millisecond)
	set("semopt.residues_found", ratio(float64(lr.residues), float64(lr.semopts)), int(lr.semopts))
	setP50("magic.rewrite_ms", "magic.rewrite", time.Millisecond)
	setP50("planner.plan_ms", "planner.plan", time.Millisecond)
	set("planner.candidates_priced", ratio(float64(lr.candidates), float64(lr.plans)), int(lr.plans))
	set("planner.regret_ratio", geoMean(lr.regret), len(lr.regret))

	// storage
	set("storage.insert_ns_per_tuple", ratio(float64(total("storage.insert_facts")), float64(lr.insertedFacts)), int(lr.insertedFacts))
	set("storage.intern_ns", ratio(float64(total("storage.intern")), float64(lr.commitTerms)), int(lr.commitTerms))
	setP50("storage.index_build_ms", "storage.index_build", time.Millisecond)
	if v, n := selfP50("storage.lookup_indexed", time.Nanosecond); n > 0 {
		set("storage.lookup_ns", v, n)
	} else {
		setP50("storage.lookup_ns", "storage.lookup", time.Nanosecond)
	}
	setP50("storage.sorted_catchup_us", "storage.sorted_catchup", time.Microsecond)
	setP50("storage.snapshot_detach_us", "storage.snapshot_detach", time.Microsecond)
	set("storage.heap_bytes_per_tuple", ratio(lr.heapBytes, lr.heapTuples), int(lr.heapTuples))

	// eval
	setP50("eval.fixpoint_ms", "eval.fixpoint", time.Millisecond)
	fp := float64(lr.fixpoints)
	set("eval.fixpoint_rounds", ratio(float64(lr.fixStats.Iterations), fp), int(lr.fixpoints))
	set("eval.fixpoint_probes", ratio(float64(lr.fixStats.Probes+lr.fixStats.IndexProbes), fp), int(lr.fixpoints))
	set("eval.fixpoint_derived", ratio(float64(lr.fixStats.Derived), fp), int(lr.fixpoints))
	set("eval.probes_per_derived", ratio(float64(lr.fixStats.Probes+lr.fixStats.IndexProbes), float64(lr.fixStats.Derived)), int(lr.fixpoints))
	set("eval.gj_firings", ratio(float64(lr.fixStats.GJFirings), fp), int(lr.fixpoints))
	setP50("eval.sweep_ms", "eval.sweep", time.Millisecond)
	set("eval.sweep_delta_tuples", ratio(float64(lr.sweepDelta), float64(lr.sweeps-lr.sweepRefused)), int(lr.sweeps))
	set("eval.sweep_refused_frac", ratio(float64(lr.sweepRefused), float64(lr.sweeps)), int(lr.sweeps))
	setP50("eval.query_us", "eval.query", time.Microsecond)

	// durable
	setP50("durable.encode_batch_us", "durable.encode_batch", time.Microsecond)
	setP50("durable.append_us", "durable.append", time.Microsecond)
	setP50("durable.fsync_us", "durable.fsync", time.Microsecond)
	set("durable.wal_bytes_per_fact", ratio(float64(lr.walBytes), float64(lr.walFacts)), int(lr.walFacts))
	// A checkpoint is its own self time plus its two children's.
	var ckpt []float64
	for _, s := range lr.t.spans {
		if s.Name == "durable.checkpoint" {
			ckpt = append(ckpt, float64(s.End-s.Start)/float64(time.Millisecond))
		}
	}
	set("durable.checkpoint_ms", p50(ckpt), len(ckpt))
	set("durable.snapshot_bytes_per_tuple", ratio(float64(lr.snapBytes), float64(lr.snapTuples)), int(lr.snapTuples))
	setP50("durable.decode_snapshot_ms", "durable.decode_snapshot", time.Millisecond)
	set("durable.scan_segment_mb_per_s", median(lr.scanMBps), len(lr.scanMBps))
	set("durable.recover_ms", ms(total("durable.recover")), len(self["durable.recover"]))

	// replicate
	setP50("replicate.encode_batch_us", "replicate.encode_batch", time.Microsecond)
	setP50("replicate.decode_batch_us", "replicate.decode_batch", time.Microsecond)
	set("replicate.snapshot_ship_ms", ms(total("replicate.snapshot_ship")), len(self["replicate.snapshot_ship"]))

	// serve: dlogd's own histograms and what the replies said.
	sm := plain.scrape
	hist := func(base string) (float64, int) { // mean of a nanosecond histogram, in ms
		n := sm[base+"_count"]
		return ratio(sm[base+"_sum"], n) / 1e6, int(n)
	}
	v, n := hist("serve_query_ns")
	set("serve.query_ms", v, n)
	v, n = hist("serve_commit_ns")
	set("serve.commit_ms", v, n)
	v, n = hist("serve_commit_wait_ns")
	set("serve.commit_wait_ms", v, n)
	set("serve.batch_size_mean", ratio(sm["serve_batch_size_sum"], sm["serve_batch_size_count"]), int(sm["serve_batch_size_count"]))
	rs := plain.replies
	set("serve.cache_hit_ratio", ratio(float64(rs.cached), float64(rs.queries)), int(rs.queries))
	set("serve.recompute_frac", ratio(float64(rs.recomputes), float64(rs.commits)), int(rs.commits))
	set("serve.recover_sessions_ms", ms(total("serve.recover_sessions")), 1)

	// serve.overhead_us: what the service adds around the layers — the
	// plain run's op_p50_ms minus the p50 of the replayed primary ops'
	// whole time (the root spans of their requests).
	rootOf := make(map[int]float64, len(sc.ops)) // op id -> its root span, µs
	for _, s := range lr.t.spans {
		if s.Parent == 0 && !s.Shadow && s.Op > sc.warm {
			rootOf[s.Op] = float64(s.End-s.Start) / float64(time.Microsecond)
		}
	}
	var roots []float64
	acc := 0.0
	for i := sc.warm; i < len(sc.ops); i++ {
		if o := &sc.ops[i]; o.primary {
			if acc += rootOf[i+1]; !o.cont {
				roots = append(roots, acc)
				acc = 0
			}
		}
	}
	replayP50 := p50(roots)
	overhead := plain.opP50()*1000 - replayP50
	set("serve.overhead_us", overhead, len(roots))

	// tracing overheads
	set("obs.tracer_overhead_frac", median(lr.tracerOverhead), len(lr.tracerOverhead))
	set("bench.trace_overhead_frac", ratio(traced.opP50(), plain.opP50())-1, 2)

	// Fidelity of the replay: over the same script, the derivations its
	// fixpoints and sweeps made must match the sum over the stats blocks
	// of dlogd's replies — the same evaluations did the same work. The
	// counts are equal in most runs but not exact: a sweep's duplicate
	// derivations depend on map iteration order (a few in a million),
	// and Generic Join seeks on the order in which a process happened to
	// intern its constants (2 % of cold_load's probes).
	work := lr.fixStats
	work.Add(lr.sweepStats)
	if rs.evalReplies > 0 {
		fmt.Fprintf(log, "  [%s] replay fidelity: derived %d (dlogd's replies: %d), probes %d (dlogd's replies: %d)\n",
			sc.workload, work.Derived, rs.evalDerived, work.Probes+work.IndexProbes, rs.evalProbes)
		if d := float64(work.Derived - rs.evalDerived); math.Abs(d) > replayTolerance*float64(rs.evalDerived) {
			res.fail("layer replay derived %d tuples, dlogd's replies report %d: the replay does not do what dlogd did", work.Derived, rs.evalDerived)
		}
	}

	fmt.Fprintf(log, "  [%s] plain op_p50 %.3f ms, dlogd-traced %.3f ms; replayed ops p50 %.3f ms => the layers account for %.0f%% of op_p50, serve.overhead_us %.0f\n",
		sc.workload, plain.opP50(), traced.opP50(), replayP50/1000, 100*ratio(replayP50, plain.opP50()*1000), overhead)
	for _, l := range summarize(lr.t.spans) {
		kind := "path  "
		if l.Shadow {
			kind = "shadow"
		}
		fmt.Fprintf(log, "  [%s]   %s %-28s calls %6d  self %9.2f ms  p50 %9.1f us  share %5.1f%%\n",
			sc.workload, kind, l.Name, l.Calls, l.SelfMS, l.P50US, 100*l.Share)
	}
}

func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
