package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupRounds is how many times a run brings dlogd up (spawn,
// readiness, session loads); setup_s takes the median.
const setupRounds = 3

// runEnv is where and how one workload run executes.
type runEnv struct {
	dlogd   string    // path of the built dlogd binary
	dir     string    // scratch directory for data dirs, inside the checkout
	log     io.Writer // progress lines (stderr)
	dlogdTr bool      // start dlogd with its own tracer on (-events; the file is only written on a graceful exit, which never comes)
	short   bool      // a stage of a traced run: one bring-up, and /metrics scraped after the measured phase
	crash   bool      // run the script's kill/restart cycles and follower bootstraps after the measured phase
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one run of one workload measured.
type result struct {
	workload string
	metrics  map[string]metric
	// service holds recover_s, follower_ready_s, feed_p50_ms and
	// fresh_read_p50_ms where the run measured them. They are native to
	// some workloads only, so a traced run reports them among the
	// per-layer metrics; an untraced run prints them for information.
	service   map[string]metric
	attempted int
	failed    int
	// staleReads counts fresh reads answered from the pre-commit
	// snapshot: not a wrong answer, but not read-your-writes either.
	staleReads int
	failures   []string // first few failure messages
	// counts are the exact figures that must repeat across runs of one
	// seed: sequence numbers, op counts, bytes.
	counts map[string]int64
	// scrape and replies feed the per-layer metrics of a traced run.
	scrape  map[string]float64 // dlogd /metrics at end of the measured phase
	replies replyStats
}

// opP50 is the run's op_p50_ms, for the traced run's overhead arithmetic.
func (r *result) opP50() float64 { return r.metrics["op_p50_ms"].Value }

// replyStats accumulates what the replies themselves report.
type replyStats struct {
	commits, recomputes int64 // change replies, and how many said mode=recompute
	queries, cached     int64 // query replies, and how many were served from the cache
	// Sums over the stats blocks of load and change replies, for the
	// layer replay's fidelity check.
	evalProbes  int64 // Probes + IndexProbes
	evalDerived int64
	evalReplies int64 // replies that carried a non-empty stats block
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// set records one metric; its unit comes from the metric tables, so a
// name the tables do not list is a bug here, not input.
func (r *result) set(name string, v float64, samples int) {
	r.metrics[name] = newMetric(name, v, samples)
}

func newMetric(name string, v float64, samples int) metric {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is in neither metric table")
	}
	return metric{Value: v, Unit: unit, Samples: samples}
}

// Wire shapes of the replies the benchmark checks. Only the fields it
// reads are declared.
type evalStatsWire struct {
	Probes      int64
	IndexProbes int64
	Derived     int64
}

type loadReply struct {
	IDBTuples int           `json:"idb_tuples"`
	Stats     evalStatsWire `json:"stats"`
}

type queryReply struct {
	Total      int        `json:"total"`
	NextCursor string     `json:"next_cursor"`
	Tuples     [][]string `json:"tuples"`
}

// queryHead is queryReply without the rows, for the hot path: the
// decoder skips the tuples array instead of allocating it.
type queryHead struct {
	Total  int  `json:"total"`
	Cached bool `json:"cached"`
}

type changeReply struct {
	Applied int           `json:"applied"`
	Mode    string        `json:"mode"`
	Seq     uint64        `json:"seq"`
	Stats   evalStatsWire `json:"stats"`
}

// runner drives one dlogd through one script.
type runner struct {
	env runEnv
	sc  *script
	res *result
	ctx context.Context
	c   *client
	d   *daemon // the leader

	lastSeq uint64 // seq of the latest acknowledged commit (0 = none yet)
	// sendAt[seq] is when the commit that got seq was sent, for the
	// feed latency join against the subscriber's arrival stamps.
	sendAt map[uint64]time.Time
}

func (r *runner) sessionURL(base, session, suffix string) string {
	return base + "/v1/sessions/" + session + suffix
}

// exec sends one op to base and checks the reply against the model:
// one request, no second chance — an answer that is wrong the first
// time is a failed op. It returns the client-observed latency.
func (r *runner) exec(base string, o *op, count bool) time.Duration {
	if count {
		r.res.attempted++
	}
	start := time.Now()
	switch o.kind {
	case opLoad:
		code, body, err := r.c.do(r.ctx, "POST", r.sessionURL(base, o.session, ""), o.body)
		lat := time.Since(start)
		if err != nil || code != 200 {
			r.res.fail("load %s: status %d err %v body %.200s", o.session, code, err, body)
			return lat
		}
		var rep loadReply
		if err := json.Unmarshal(body, &rep); err != nil {
			r.res.fail("load %s: bad reply: %v", o.session, err)
			return lat
		}
		if o.want >= 0 && rep.IDBTuples != o.want {
			r.res.fail("load %s: idb_tuples %d, model says %d", o.session, rep.IDBTuples, o.want)
		}
		r.res.replies.addEval(rep.Stats)
		return lat
	case opDrop:
		code, body, err := r.c.do(r.ctx, "DELETE", r.sessionURL(base, o.session, ""), nil)
		lat := time.Since(start)
		if err != nil || code != 204 {
			r.res.fail("drop %s: status %d err %v body %.200s", o.session, code, err, body)
		}
		return lat
	case opChange:
		code, body, err := r.c.do(r.ctx, "POST", r.sessionURL(base, o.session, "/changes"), o.body)
		lat := time.Since(start)
		if err != nil || code != 200 {
			r.res.fail("changes %s: status %d err %v body %.200s", o.session, code, err, body)
			return lat
		}
		var rep changeReply
		if err := json.Unmarshal(body, &rep); err != nil {
			r.res.fail("changes %s: bad reply: %v", o.session, err)
			return lat
		}
		if rep.Applied != o.want {
			r.res.fail("changes %s: applied %d, script says %d", o.session, rep.Applied, o.want)
		}
		if r.lastSeq != 0 && rep.Seq != r.lastSeq+1 {
			r.res.fail("changes %s: seq %d after %d", o.session, rep.Seq, r.lastSeq)
		}
		r.lastSeq = rep.Seq
		if r.sendAt != nil {
			r.sendAt[rep.Seq] = start
		}
		rs := &r.res.replies
		rs.commits++
		if rep.Mode == "recompute" {
			rs.recomputes++
		}
		rs.addEval(rep.Stats)
		return lat
	case opQuery:
		if o.hasDigest {
			r.checkDigest(base, o)
			return time.Since(start)
		}
		code, body, err := r.c.do(r.ctx, "POST", r.sessionURL(base, o.session, "/query"), o.body)
		lat := time.Since(start)
		if err != nil || code != 200 {
			r.res.fail("query %s %s: status %d err %v body %.200s", o.session, o.goal, code, err, body)
			return lat
		}
		var rep queryHead
		if err := json.Unmarshal(body, &rep); err != nil {
			r.res.fail("query %s %s: bad reply: %v", o.session, o.goal, err)
			return lat
		}
		switch {
		case rep.Total == o.want:
		case o.fresh && rep.Total == o.staleWant:
			// dlogd acknowledges a commit before it publishes the snapshot,
			// so a read sent right after the ack can be served the state
			// before it. Counted apart from wrong answers, and shown.
			r.res.staleReads++
			return lat
		default:
			r.res.fail("query %s %s: total %d, model says %d", o.session, o.goal, rep.Total, o.want)
			return lat
		}
		r.res.replies.queries++
		if rep.Cached {
			r.res.replies.cached++
		}
		return lat
	}
	return 0
}

func (rs *replyStats) addEval(st evalStatsWire) {
	if st == (evalStatsWire{}) {
		return
	}
	rs.evalReplies++
	rs.evalProbes += st.Probes + st.IndexProbes
	rs.evalDerived += st.Derived
}

// checkDigest pages through every row of the query and compares count
// and order-independent digest with the model.
func (r *runner) checkDigest(base string, o *op) {
	total, rows, sum, ok := r.pageAll(base, o)
	if !ok {
		return // the transport or the reply failed; already counted
	}
	if total != o.want || rows != o.want || sum != o.digest {
		r.res.fail("digest %s %s: total %d rows %d digest %x, model says %d rows digest %x",
			o.session, o.goal, total, rows, sum, o.want, o.digest)
	}
}

// pageAll fetches every page of the query and returns the reported
// total, the rows received and their digest.
func (r *runner) pageAll(base string, o *op) (total, rows int, sum uint64, ok bool) {
	cursor := ""
	for {
		body := mustJSON(queryReq{Goal: o.goal, Limit: 10000, Cursor: cursor})
		code, b, err := r.c.do(r.ctx, "POST", r.sessionURL(base, o.session, "/query"), body)
		if err != nil || code != 200 {
			r.res.fail("digest %s %s: status %d err %v body %.200s", o.session, o.goal, code, err, b)
			return 0, 0, 0, false
		}
		var rep queryReply
		if err := json.Unmarshal(b, &rep); err != nil {
			r.res.fail("digest %s %s: bad reply: %v", o.session, o.goal, err)
			return 0, 0, 0, false
		}
		total = rep.Total
		rows += len(rep.Tuples)
		sum += rowDigest(rep.Tuples)
		if rep.NextCursor == "" {
			return total, rows, sum, true
		}
		cursor = rep.NextCursor
	}
}

// verify runs the script's verification queries against base.
func (r *runner) verify(base, what string) {
	before := r.res.failed
	for i := range r.sc.verify {
		r.exec(base, &r.sc.verify[i], true)
	}
	if r.res.failed > before {
		r.res.fail("verification failed %s", what)
	}
}

// waitAnswering blocks until base reports ready AND every session the
// script verifies answers a one-row query with 200 — the moment a
// client could use the restarted (or bootstrapped) process. /readyz
// alone is not enough: a follower turns ready once its sequence number
// matches the leader's, which it sets before the shipped snapshot is
// installed and published, and until then queries get 404. The full
// verification that follows is not part of the time.
func (r *runner) waitAnswering(c *client, base string) error {
	if err := waitReady(r.ctx, c, base); err != nil {
		return err
	}
	asked := map[string]bool{}
	for _, v := range r.sc.verify {
		if asked[v.session] {
			continue
		}
		asked[v.session] = true
		url := r.sessionURL(base, v.session, "/query")
		body := mustJSON(queryReq{Goal: v.goal, Limit: 1})
		for {
			code, _, err := c.do(r.ctx, "POST", url, body)
			if err == nil && code == 200 {
				break
			}
			select {
			case <-r.ctx.Done():
				return fmt.Errorf("session %s never answered: status %d err %v", v.session, code, err)
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

// leaderArgs are the flags of the workload's dlogd.
func (r *runner) leaderArgs(dataDir string) []string {
	args := []string{"-data-dir", dataDir, "-fsync=true"}
	if r.sc.ckptEvery > 0 {
		args = append(args, "-checkpoint-every", strconv.Itoa(r.sc.ckptEvery))
	}
	if r.env.dlogdTr {
		args = append(args, "-events", filepath.Join(r.env.dir, "dlogd-events.jsonl"))
	}
	return args
}

// bringUp is the one-shot part of a set-up: spawn dlogd on dataDir,
// wait for readiness, load the script's sessions. It returns how long
// that took.
func (r *runner) bringUp(dataDir string) (time.Duration, error) {
	start := time.Now()
	d, err := spawn(r.env.dlogd, r.leaderArgs(dataDir)...)
	if err != nil {
		return 0, err
	}
	r.d = d
	if err := waitReady(r.ctx, r.c, d.url); err != nil {
		return 0, err
	}
	for i := range r.sc.setup {
		r.exec(d.url, &r.sc.setup[i], false)
	}
	return time.Since(start), nil
}

// warmUp opens the change feed (when the script has one) and runs the
// warm-up ops against the daemon bringUp left running.
func (r *runner) warmUp() (*subscriber, time.Duration, error) {
	start := time.Now()
	var sub *subscriber
	if r.sc.subscribeTo != "" {
		var err error
		if sub, err = subscribe(r.d.url, r.sc.subscribeTo); err != nil {
			return nil, 0, err
		}
	}
	r.lastSeq = 0
	for i := 0; i < r.sc.warm; i++ {
		r.exec(r.d.url, &r.sc.ops[i], false)
	}
	return sub, time.Since(start), nil
}

// phase is what the measured stretch of ops recorded.
type phase struct {
	opLat    []float64            // primary ops' latencies, ms, in order
	freshLat []float64            // fresh reads' latencies, ms
	by       map[string][]float64 // load latencies per session (cold_load's seven differ)
	cpu      float64              // dlogd CPU seconds spent over the phase
	wall     time.Duration
}

// runPhase executes ops against the leader, timing each.
func (r *runner) runPhase(ops []op) (*phase, error) {
	ph := &phase{by: map[string][]float64{}}
	cpu0, err := r.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var acc time.Duration // requests of the primary op in progress
	t0 := time.Now()
	for i := range ops {
		o := &ops[i]
		lat := r.exec(r.d.url, o, true)
		switch {
		case o.fresh:
			ph.freshLat = append(ph.freshLat, ms(lat))
		case o.primary:
			if o.kind == opLoad {
				ph.by[o.session] = append(ph.by[o.session], ms(lat))
			}
			if acc += lat; !o.cont {
				ph.opLat = append(ph.opLat, ms(acc))
				acc = 0
			}
		}
	}
	ph.wall = time.Since(t0)
	cpu1, err := r.d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	return ph, nil
}

// setEndToEnd turns a run's raw measurements into the six end-to-end
// metrics: whole-phase figures, and the median of the bring-ups.
func (res *result) setEndToEnd(bringUps []float64, warmUp float64, ph *phase, rssMB float64) {
	n := len(ph.opLat)
	res.set("setup_s", median(bringUps)+warmUp, len(bringUps))
	res.set("ops_per_s", float64(n)/ph.wall.Seconds(), n)
	res.set("op_p50_ms", p50(ph.opLat), n)
	res.set("op_p95_ms", p95(ph.opLat), n)
	res.set("cpu_ms_per_op", ph.cpu*1000/float64(n), n)
	res.set("rss_peak_mb", rssMB, 1)
}

// setService records a service metric the run measured; a series the
// workload does not have stays unreported.
func (res *result) setService(name string, xs []float64, stat func([]float64) float64) {
	if len(xs) > 0 {
		res.service[name] = newMetric(name, stat(xs), len(xs))
	}
}

// runWorkload executes the script end to end and returns its metrics.
// Any error it returns is a harness failure (dlogd would not start, a
// transport broke); wrong answers are counted in the result instead.
func runWorkload(env runEnv, sc *script) (*result, error) {
	res := &result{workload: sc.workload, metrics: map[string]metric{}, service: map[string]metric{}, counts: map[string]int64{}}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	r := &runner{env: env, sc: sc, res: res, ctx: ctx, c: newClient()}
	defer r.c.close()
	defer func() { r.d.kill() }()

	dataDir := filepath.Join(env.dir, "leader")
	logf := func(format string, args ...any) {
		fmt.Fprintf(env.log, "  [%s] "+format+"\n", append([]any{sc.workload}, args...)...)
	}

	// --- set-up --------------------------------------------------------
	// The one-shot part (spawn, readiness, session loads) is a handful
	// of events, so it is repeated and the median taken; the warm-up is
	// itself a sum over hundreds of ops and runs once, on the last
	// daemon, which stays up for the measured phase.
	var bringUps []float64
	rounds := setupRounds
	if env.short {
		rounds = 1
	}
	for round := 1; round <= rounds; round++ {
		if round > 1 {
			r.d.kill()
		}
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		took, err := r.bringUp(dataDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		bringUps = append(bringUps, took.Seconds())
	}
	sub, warmTook, err := r.warmUp()
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if res.failed > 0 {
		return res, nil // a wrong answer during set-up: nothing after it means anything
	}
	logf("set-up %.3fs = bring-up %.3fs (median of %.3f) + warm-up %.3fs (%d requests)",
		median(bringUps)+warmTook.Seconds(), median(bringUps), bringUps, warmTook.Seconds(), sc.warm)

	// --- measured phase ------------------------------------------------
	if sub != nil {
		r.sendAt = make(map[uint64]time.Time, len(sc.ops)-sc.warm)
	}
	ph, err := r.runPhase(sc.ops[sc.warm:])
	if err != nil {
		return nil, err
	}
	rss, err := r.d.rssPeakMB()
	if err != nil {
		return nil, err
	}
	res.setEndToEnd(bringUps, warmTook.Seconds(), ph, rss)
	logf("measured %d ops in %.2fs", len(ph.opLat), ph.wall.Seconds())
	// cold_load's scenarios differ by a factor of three; show each.
	names := make([]string, 0, len(ph.by))
	for n := range ph.by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("  load %-22s p50 %.2f ms (n=%d)", n, p50(ph.by[n]), len(ph.by[n]))
	}
	res.counts["measured_ops"] = int64(len(ph.opLat))
	res.counts["last_seq"] = int64(r.lastSeq)
	if sub != nil {
		res.setService("feed_p50_ms", r.collectFeed(sub), p50)
	}
	res.setService("fresh_read_p50_ms", ph.freshLat, p50)
	if env.short {
		res.scrape = r.scrapeMetrics()
	}

	// --- end-of-phase state --------------------------------------------
	for i := range sc.resident {
		r.exec(r.d.url, &sc.resident[i], true)
	}
	r.verify(r.d.url, "after the measured phase")

	if env.crash {
		if err := r.crashPhases(dataDir, logf); err != nil {
			return nil, err
		}
	}
	res.counts["stale_reads"] = int64(res.staleReads)
	res.counts["ops_attempted"] = int64(res.attempted)
	res.counts["ops_failed"] = int64(res.failed)
	return res, nil
}

// crashPhases runs the script's kill/restart cycles on the leader's
// data directory and then its follower bootstraps, verifying the whole
// state after each, and records the medians as recover_s and
// follower_ready_s. Recovery takes no eager checkpoint, so every cycle
// replays the same tail.
func (r *runner) crashPhases(dataDir string, logf func(string, ...any)) error {
	var recoveries, bootstraps []float64
	for cycle := 1; cycle <= r.sc.recoverCycles; cycle++ {
		r.d.kill()
		d, err := spawn(r.env.dlogd, r.leaderArgs(dataDir)...)
		if err != nil {
			return fmt.Errorf("restart %d: %w", cycle, err)
		}
		r.d = d
		if err := r.waitAnswering(r.c, d.url); err != nil {
			return fmt.Errorf("restart %d: %w\n%s", cycle, err, d.tail())
		}
		recoveries = append(recoveries, time.Since(d.start).Seconds())
		r.verify(d.url, fmt.Sprintf("after recovery %d", cycle))
	}
	for cycle := 1; cycle <= r.sc.followerCycles; cycle++ {
		fdir := filepath.Join(r.env.dir, fmt.Sprintf("follower%d", cycle))
		if err := os.RemoveAll(fdir); err != nil {
			return err
		}
		f, err := spawn(r.env.dlogd, "-data-dir", fdir, "-fsync=true", "-follow", r.d.url)
		if err != nil {
			return fmt.Errorf("follower %d: %w", cycle, err)
		}
		fc := newClient()
		err = r.waitAnswering(fc, f.url)
		bootstraps = append(bootstraps, time.Since(f.start).Seconds())
		fc.close()
		if err != nil {
			f.kill()
			return fmt.Errorf("follower %d: %w\n%s", cycle, err, f.tail())
		}
		r.verify(f.url, fmt.Sprintf("on follower %d", cycle))
		f.kill()
		_ = os.RemoveAll(fdir)
	}
	r.res.setService("recover_s", recoveries, median)
	r.res.setService("follower_ready_s", bootstraps, median)
	logf("recoveries %.3f s, follower bootstraps %.3f s", recoveries, bootstraps)
	return nil
}

// collectFeed waits for the subscriber to have seen the last
// acknowledged commit, stops it, and returns the send-to-frame latency
// of every commit the phase stamped in sendAt, in commit order, in
// milliseconds.
func (r *runner) collectFeed(sub *subscriber) []float64 {
	if err := sub.waitFor(r.lastSeq, 10*time.Second); err != nil {
		r.res.fail("change feed: %v", err)
	}
	if err := sub.stop(); err != nil {
		r.res.fail("change feed: %v", err)
	}
	seqs := make([]uint64, 0, len(r.sendAt))
	for seq := range r.sendAt {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	lat := make([]float64, 0, len(seqs))
	for _, seq := range seqs {
		r.res.attempted++
		got, ok := sub.arrival(seq)
		if !ok {
			r.res.fail("change feed: no frame for seq %d", seq)
			continue
		}
		lat = append(lat, ms(got.Sub(r.sendAt[seq])))
	}
	r.sendAt = nil
	return lat
}

// scrapeMetrics reads dlogd's Prometheus exposition and returns every
// unlabelled sample (counters, gauges, histogram _sum and _count).
func (r *runner) scrapeMetrics() map[string]float64 {
	code, body, err := r.c.do(r.ctx, "GET", r.d.url+"/metrics", nil)
	if err != nil || code != 200 {
		r.res.fail("scrape /metrics: status %d err %v", code, err)
		return nil
	}
	return parseExposition(string(body))
}

// parseExposition parses Prometheus text exposition lines of the form
// "name value"; labelled series and comments are skipped.
func parseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}
