package main

// defaultSeconds is the run length the workload sizes are calibrated
// for; BENCHMARK.json's run_seconds says the same. --seconds scales
// every op count linearly from here.
const defaultSeconds = 25

// workloadSpec names a workload and records why it exists.
type workloadSpec struct {
	name string
	why  string
}

// workloads are the four workloads, in the order a full run executes
// them. Names are final: later issues cite them.
var workloads = []workloadSpec{
	{"cold_load", "the paper's path: seven scenario programs loaded with plan=auto and dropped, over and over; parser, semopt, planner, magic and the full fixpoint work, the sweep, WAL replay and query cache do not"},
	{"read_point", "bound tc queries on one static 250k-tuple session, 70% from a 512-goal hot set that fits the query cache, 30% cold; snapshot reads, cache and JSON encode work, planner, sweep and WAL do not"},
	{"write_sweep", "4-fact commits on a 200-node DAG, checkpoint every 256: Z-set sweep, COW snapshot publish, WAL append+fsync, checkpoints and feed fan-out work; recovery replays a 250-batch tail"},
	{"write_negation", "the same commits under a program with negation: every commit is refused by the sweep and recomputed from scratch, the maintenance cliff; a total sweep should move this one and not write_sweep"},
}

// metricSpec is one end-to-end metric: its unit, direction, and the
// share of the parent's median by which it may worsen before a change
// counts as a regression.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists the end-to-end metrics. Names are final. These are
// the six every workload has: the benchmark's contract wants every
// end-to-end metric from every workload, so recover_s,
// follower_ready_s, feed_p50_ms and fresh_read_p50_ms — native to some
// workloads only — are reported by the traced run instead (layers.go),
// without a bound.
//
// The issue that defined the benchmark asked for bounds of 0.10 (0.20
// for the p95). This box does not honour them: ten runs per workload
// with ten seeds, whole-phase figures over 25 s phases, spread
// (interquartile range ÷ median) by 3 to 4 % on every timing in a quiet
// hour and by 5 to 30 % in four studies over one ordinary day, because
// the host makes both vCPUs up to twice as slow for seconds to minutes
// at a time (README.md, "Noise", has the runs). A bound below
// the spread rejects the benchmark's own reruns and every later change
// with them, and phases cannot be lengthened within the time the runs
// may take, so each timing carries the widest bound the contract
// allows, with that measured spread beside it as the issue requires of
// a widened bound; rss_peak_mb, not a timing, spread by 2 to 11 % and
// carries 0.15. On these bounds the issue's acceptance criterion is NOT
// met; `-selfcheck` reports what a given hour allows, and fails any
// pair whose spread or difference is outside its bound.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_peak_mb", "MiB", "lower", 0.15},
}

// unitOf maps every metric name of both tables to its unit.
var unitOf = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, e := range endToEnd {
		m[e.name] = e.unit
	}
	for _, l := range perLayer {
		m[l.name] = l.unit
	}
	return m
}()
