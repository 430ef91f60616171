package serve

import (
	"context"

	"repro/internal/planner"
)

// Adaptive re-planning. A session loaded with plan=auto chose its
// program from EDB statistics as they stood at load time; a write
// workload can move the data far enough that a different candidate
// would now win (the routes workload's selectivity flip is the
// canonical case). With Config.ReplanEvery > 0 the committer re-runs
// the planner every that many committed write batches, pricing the
// incumbent with its measured full-fixpoint cost (Options.MeasuredCost)
// so a plan that underperforms its estimate is voted out by data, not
// argued with. Adopting a new plan is a recompute: the rewritten
// program's fixpoint replaces the old one atomically under mu, readers
// never see a half-switched state, and on a durable session the switch
// is checkpointed immediately so a crash cannot resurrect the old plan.

// maybeReplan runs the re-plan cadence check after one committed write
// batch. Caller holds sess.mu.
func (sess *session) maybeReplan(ctx context.Context) {
	every := sess.srv.cfg.ReplanEvery
	p := sess.prog.Load()
	if every <= 0 || p == nil || !p.adaptive() {
		return
	}
	sess.sinceReplan++
	if sess.sinceReplan < int64(every) {
		return
	}
	sess.sinceReplan = 0
	sess.replan(ctx, p)
}

// replan re-prices the plan space against the live EDB and swaps the
// session onto the winner when it differs from the incumbent. Caller
// holds sess.mu. Failure is never fatal: an un-adoptable plan leaves
// the incumbent serving.
func (sess *session) replan(ctx context.Context, p *loadedProgram) {
	opts := planner.Options{
		ICs:        p.parsedICs,
		SmallPreds: p.smallMap,
		Goal:       p.goal,
	}
	d, err := planner.Plan(p.orig, sess.db, opts)
	if err != nil {
		return
	}
	// Price the incumbent with what its last full fixpoint actually
	// cost, when that measurement argues AGAINST it: a plan that
	// underperforms its estimate is voted out by data. The override
	// only pushes upward — the measurement may predate many commits,
	// and a stale low figure must not pin an incumbent that the fresh
	// estimate says is now expensive.
	if m := sess.fixpointCost.Load(); m > 0 {
		if c := d.Candidate(p.variant); c != nil && float64(m) > c.Cost {
			opts.MeasuredCost = map[planner.Variant]float64{p.variant: float64(m)}
			if d2, err2 := planner.Plan(p.orig, sess.db, opts); err2 == nil {
				d = d2
			}
		}
	}
	if d.Chosen == p.variant {
		// Same plan, fresher numbers: refresh the decision the stats
		// surface shows without disturbing anything else.
		np := *p
		np.decision = d
		sess.prog.Store(&np)
		return
	}

	np := *p
	np.decision = d
	np.variant = d.Chosen
	np.active = d.Program()
	np.idb = np.active.IDBPreds()
	np.optimized = d.Chosen != planner.Orig

	// Rebuild the fixpoint under the new program. The EDB copy excludes
	// predicates either program derives, so auxiliary relations the old
	// rewrite materialized (isolation/magic predicates) do not leak into
	// the new plan's database as phantom EDB facts.
	st, err := sess.srv.evaluate(ctx, &np, edbOf(sess.db, sess.seedIDB, p.idb, np.idb), sess.seedIDB)
	if err != nil {
		return // incumbent keeps serving; sess.db was never touched
	}
	sess.install(st)
	sess.recomputes.Add(1)
	sess.addEvalStats(st.stats)
	sess.replans.Add(1)
	sess.srv.vPlanChoice.With(string(d.Chosen)).Inc()
	sess.publish()
	// Persist the switch now: recovery re-parses the checkpointed active
	// program, so without this a crash would revert to the old plan.
	if sess.dur != nil {
		_ = sess.checkpointLocked() // failure counted; WAL still covers state
	}
}
