package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Stats accumulates deterministic work counters, so experiments can
// report machine-independent effort alongside wall-clock time. Every
// counter is collected unconditionally — tracing on or off — so
// differential tests can compare the two paths counter for counter.
type Stats struct {
	Iterations  int64 // semi-naive rounds across all strata
	RuleFirings int64 // rule evaluations started
	Probes      int64 // tuples examined during joins
	IndexProbes int64 // hash probes: membership checks and column lookups
	FullScans   int64 // scans that had to walk a full stored relation
	Matched     int64 // scanned tuples that passed all column constraints
	Derived     int64 // head tuples produced (before dedup)
	Deduped     int64 // derivations that duplicated an already-known tuple
	Inserted    int64 // new tuples actually added
	GJFirings   int64 // rule firings executed through the Generic Join path
	GJSeeks     int64 // sorted-index binary-search seeks inside Generic Join
	// GJPlanned / BinaryPlanned count per-plan planner decisions at
	// compile time (base and delta variants each count once): how often
	// attachGJ attached a Generic Join program vs kept the binary
	// pipeline. The service exports them as the
	// serve.planner_rules{mode} family, the telemetry feed for a future
	// cost-based plan selector.
	GJPlanned     int64
	BinaryPlanned int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Iterations += other.Iterations
	s.RuleFirings += other.RuleFirings
	s.Probes += other.Probes
	s.IndexProbes += other.IndexProbes
	s.FullScans += other.FullScans
	s.Matched += other.Matched
	s.Derived += other.Derived
	s.Deduped += other.Deduped
	s.Inserted += other.Inserted
	s.GJFirings += other.GJFirings
	s.GJSeeks += other.GJSeeks
	s.GJPlanned += other.GJPlanned
	s.BinaryPlanned += other.BinaryPlanned
}

// RuleProfile aggregates the work one rule (identified by label; rules
// sharing a label fold together) did across the whole run.
type RuleProfile struct {
	Label string
	Pred  string        // head predicate
	Stats Stats         // per-rule share of the engine counters
	Time  time.Duration // wall time in firings; zero unless tracing was on
}

// StratumInfo describes one evaluated stratum (strongly connected
// component): its predicates, how many fixpoint rounds it took, and its
// wall time. Stratum timing is always measured (two clock reads per
// stratum), so per-phase timings exist even without a tracer.
type StratumInfo struct {
	Preds  []string
	Rounds int64
	Time   time.Duration
}

// RunInfo is the full observability snapshot of a finished run: the
// engine counters plus per-stratum and per-rule breakdowns. Rules are
// ordered by time descending (derived tuples break ties, so the order
// is still meaningful when tracing was off and all times are zero).
type RunInfo struct {
	Stats  Stats
	Strata []StratumInfo
	Rules  []RuleProfile
}

// Engine computes the IDB relations of a program bottom-up over a
// database. The database is mutated in place: computed IDB relations
// are stored alongside the EDB.
type Engine struct {
	prog     *ast.Program
	db       *storage.Database
	naive    bool
	joinMode JoinMode
	stats    Stats
	arity    map[string]int // head predicate -> arity, precomputed

	tracer    *obs.Tracer             // nil when tracing is off (the normal case)
	strata    []StratumInfo           // one entry per evaluated stratum
	cur       *StratumInfo            // stratum being evaluated, nil between strata
	rules     map[string]*RuleProfile // per-rule accumulators, by label
	ruleOrder []string                // labels in first-firing order

	// IterationHook, when non-nil, runs at the start of every fixpoint
	// round. The evaluation-paradigm baseline of §1 uses it to re-apply
	// residue analysis to the subqueries of each iteration, which is
	// exactly the run-time overhead the paper's compile-time
	// transformation avoids.
	IterationHook func(round int)

	// rankSink, when non-nil, observes every successful insert of a
	// derived tuple together with the 1-based fixpoint round of its
	// stratum (see SetRankSink).
	rankSink func(rel *storage.Relation, pos int, layer int)

	// cost, when non-nil, refines plan-time estimates (see SetCostModel
	// in cost.go): body ordering prefers its selectivities and the
	// JoinAuto GJ-vs-binary decision consults it.
	cost CostModel
}

// New creates an engine for prog over db. The program is validated for
// safety lazily, when plans are built.
func New(prog *ast.Program, db *storage.Database) *Engine {
	arity := make(map[string]int)
	for _, r := range prog.Rules {
		if _, ok := arity[r.Head.Pred]; !ok {
			arity[r.Head.Pred] = r.Head.Arity()
		}
	}
	return &Engine{prog: prog, db: db, arity: arity, rules: make(map[string]*RuleProfile)}
}

// SetTracer attaches a tracer. A nil tracer (the default) keeps the
// engine on its untraced path: no clock reads per firing, no events.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tracer = tr }

// UseNaive switches the engine to naive (full re-evaluation) fixpoint
// iteration; the default is semi-naive. Only tests call it: naive
// evaluation is the reference the semi-naive loop is checked against.
func (e *Engine) UseNaive() { e.naive = true }

// SetJoinMode overrides attachGJ's per-rule choice: JoinBinary forces
// the binary pipeline everywhere, JoinGJ forces Generic Join wherever
// it is compilable (falling back to binary for the remaining shapes).
// The computed fixpoint and the Inserted counter are identical in every
// mode. Only tests call it: the differential tests force each path, and
// the binary path is their reference.
func (e *Engine) SetJoinMode(m JoinMode) { e.joinMode = m }

// SetRankSink attaches a derivation-layer observer: sink is called once
// for every derived tuple that is actually inserted, with the relation
// and position it landed at and the 1-based round of its stratum's
// fixpoint at which it first appeared (round-0 derivations report layer
// 1; layer 0 is reserved for program-stated seed facts, which never
// pass through the sink). The recorded layers are the rank
// stratification the Z-set maintenance path (ApplyZSetContext) relies
// on: a tuple first inserted at layer k has a derivation whose
// same-component body tuples all have layers < k.
func (e *Engine) SetRankSink(sink func(rel *storage.Relation, pos int, layer int)) {
	e.rankSink = sink
}

// Stats returns the accumulated work counters.
func (e *Engine) Stats() Stats { return e.stats }

// Info returns the observability snapshot of the run so far: counters,
// per-stratum rounds and times, and per-rule profiles sorted by time
// (then derived tuples) descending.
func (e *Engine) Info() RunInfo {
	info := RunInfo{Stats: e.stats, Strata: append([]StratumInfo(nil), e.strata...)}
	for _, l := range e.ruleOrder {
		info.Rules = append(info.Rules, *e.rules[l])
	}
	sort.SliceStable(info.Rules, func(i, j int) bool {
		a, b := &info.Rules[i], &info.Rules[j]
		if a.Time != b.Time {
			return a.Time > b.Time
		}
		if a.Stats.Derived != b.Stats.Derived {
			return a.Stats.Derived > b.Stats.Derived
		}
		return a.Label < b.Label
	})
	return info
}

// DB returns the engine's database.
func (e *Engine) DB() *storage.Database { return e.db }

// Run computes all IDB predicates to fixpoint. Predicates are grouped
// into strongly connected components of the dependency graph and the
// components are evaluated in topological order; inside a component the
// member predicates are computed together by a (multi-predicate)
// semi-naive fixpoint. Input programs of the paper's class have
// singleton components, but the isolation transformation of §4
// (Algorithm 4.1) introduces mutually recursive auxiliary predicates,
// which this engine must evaluate.
func (e *Engine) Run() error { return e.RunContext(context.Background()) }

// RunContext is Run with cancellation: the fixpoint checks ctx at the
// start of every round and returns ctx.Err() once it is done.
// Cancellation can leave the database between rounds — a subset of the
// fixpoint — so a cancelled run's relations are only good for
// discarding (the long-running service recomputes or drops the working
// state on cancellation).
func (e *Engine) RunContext(ctx context.Context) error {
	// Load program facts first.
	for _, r := range e.prog.Rules {
		if r.IsFact() {
			if !r.Head.IsGround() {
				return fmt.Errorf("eval: non-ground fact %s", r.Head)
			}
			e.db.AddFact(r.Head)
		}
	}
	for _, scc := range e.sccOrder() {
		if err := e.fixpoint(ctx, scc); err != nil {
			return err
		}
	}
	return nil
}

// sccOrder returns the strongly connected components of the IDB
// dependency graph in topological (callee-first) order, using Tarjan's
// algorithm with deterministic neighbor ordering.
func (e *Engine) sccOrder() [][]string {
	idb := e.prog.IDBPreds()
	dep := e.prog.DependencyGraph()
	var preds []string
	for p := range idb {
		preds = append(preds, p)
	}
	sort.Strings(preds)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	counter := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		var succs []string
		for q := range dep[v] {
			if idb[q] {
				succs = append(succs, q)
			}
		}
		sort.Strings(succs)
		for _, w := range succs {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			sccs = append(sccs, comp)
		}
	}
	for _, p := range preds {
		if _, seen := index[p]; !seen {
			strongconnect(p)
		}
	}
	// Tarjan completes a component only after every component reachable
	// from it: callees come out first, which is exactly evaluation
	// order.
	return sccs
}

// estimator returns a fan-out predictor backed by current relation
// statistics: the estimate for an atom is the relation size divided by
// the distinct-value count of its most selective bound column.
// Relations still being computed are typically empty at plan time,
// which makes their atoms cheap to order early — they are exactly the
// small (delta-like) side of the join. When a cost model is installed
// (SetCostModel), a constant in an EDB atom is priced at its
// selectivity instead of the uniform rows/distinct guess; the live
// relation size stays authoritative either way.
func (e *Engine) estimator() estimator {
	return func(a ast.Atom, bound map[ast.Var]bool) float64 {
		rel := e.db.Relation(a.Pred)
		if rel == nil || rel.Len() == 0 {
			return 0
		}
		cm := e.costOf(a.Pred)
		rows := float64(rel.Len())
		best := rows
		for i, t := range a.Args {
			f := -1.0
			if v, ok := t.(ast.Var); ok {
				if !bound[v] {
					continue
				}
			} else if cm != nil {
				if s, ok := cm.Selectivity(a.Pred, i, t); ok {
					f = rows * s
				}
			}
			if f < 0 {
				if distinct := len(rel.EnsureIndex(i)); distinct > 0 {
					f = rows / float64(distinct)
				}
			}
			if f >= 0 && f < best {
				best = f
			}
		}
		return best
	}
}

// arityOf determines the arity of pred from the precomputed head map.
func (e *Engine) arityOf(pred string) int { return e.arity[pred] }

// compiledRule is one rule of a component, lowered once per stratum:
// the base plan (all occurrences against full relations, used by round
// 0 and by naive iteration) plus one delta variant per body occurrence
// of a component predicate. Compiling here — instead of re-deriving
// plans every round, as the interpreter did — is the stratum-level plan
// cache.
type compiledRule struct {
	rule     ast.Rule
	label    string // rule label, falling back to the head predicate
	headPred string
	headRel  *storage.Relation
	base     *compiled
	deltas   []deltaPlan
}

// ruleLabel names a rule for profiles and trace events.
func ruleLabel(r ast.Rule) string {
	if r.Label != "" {
		return r.Label
	}
	return r.Head.Pred
}

type deltaPlan struct {
	pred string
	plan *compiled
}

// compileStratum plans and slot-compiles every rule of the component,
// and pre-builds every index the compiled programs will probe.
func (e *Engine) compileStratum(inSCC map[string]bool, rules []ast.Rule) ([]compiledRule, error) {
	est := e.estimator()
	crs := make([]compiledRule, 0, len(rules))
	for _, r := range rules {
		cr := compiledRule{rule: r, label: ruleLabel(r), headPred: r.Head.Pred, headRel: e.db.Relation(r.Head.Pred)}
		plan, err := planBody(r.Body, -1, est, nil)
		if err != nil {
			return nil, fmt.Errorf("rule %s: %w", r.Label, err)
		}
		if cr.base, err = compilePlan(plan, r.Head, e.db, nil); err != nil {
			return nil, fmt.Errorf("rule %s: %w", r.Label, err)
		}
		e.attachGJ(cr.base)
		cr.base.prepareIndexes()
		for i, l := range r.Body {
			if l.Neg || !inSCC[l.Atom.Pred] {
				continue
			}
			if rel := e.db.Relation(l.Atom.Pred); rel != nil && rel.Arity != len(l.Atom.Args) {
				return nil, fmt.Errorf("eval: %s used with arity %d but stored with arity %d",
					l.Atom.Pred, len(l.Atom.Args), rel.Arity)
			}
			plan, err := planBody(r.Body, i, est, nil)
			if err != nil {
				return nil, fmt.Errorf("rule %s: %w", r.Label, err)
			}
			dp, err := compilePlan(plan, r.Head, e.db, nil)
			if err != nil {
				return nil, fmt.Errorf("rule %s: %w", r.Label, err)
			}
			e.attachGJ(dp)
			dp.prepareIndexes()
			cr.deltas = append(cr.deltas, deltaPlan{pred: l.Atom.Pred, plan: dp})
		}
		crs = append(crs, cr)
	}
	return crs, nil
}

// sccRules gathers the component's non-fact rules, refusing negation
// through the component's own recursion (not stratified).
func (e *Engine) sccRules(inSCC map[string]bool) ([]ast.Rule, error) {
	var rules []ast.Rule
	for _, r := range e.prog.Rules {
		if inSCC[r.Head.Pred] && !r.IsFact() {
			for _, l := range r.Body {
				if l.Neg && inSCC[l.Atom.Pred] {
					return nil, fmt.Errorf("eval: rule %s negates %s inside its own recursion (not stratified)",
						r.Label, l.Atom.Pred)
				}
			}
			rules = append(rules, r)
		}
	}
	return rules, nil
}

// fixpoint computes one strongly connected component of predicates to
// fixpoint.
func (e *Engine) fixpoint(ctx context.Context, scc []string) error {
	inSCC := make(map[string]bool, len(scc))
	for _, p := range scc {
		inSCC[p] = true
		e.db.Ensure(p, e.arityOf(p))
	}
	// Negation through the component's own recursion is not stratified
	// and has no least fixpoint; negation of lower strata (already
	// complete) is safe. sccRules enforces this.
	rules, err := e.sccRules(inSCC)
	if err != nil {
		return err
	}
	if len(rules) == 0 {
		return nil
	}
	crs, err := e.compileStratum(inSCC, rules)
	if err != nil {
		return err
	}
	// Per-stratum wall time is measured unconditionally: two clock reads
	// per stratum is negligible and gives bench per-phase timings even
	// without a tracer.
	e.strata = append(e.strata, StratumInfo{Preds: scc})
	e.cur = &e.strata[len(e.strata)-1]
	start := time.Now()
	if e.naive {
		err = e.naiveFixpoint(ctx, crs)
	} else {
		err = e.semiNaiveFixpoint(ctx, inSCC, crs)
	}
	e.cur.Time = time.Since(start)
	if e.tracer.Enabled() {
		e.tracer.Complete("eval", "stratum "+strings.Join(scc, ","), start, e.cur.Time,
			map[string]int64{"rounds": e.cur.Rounds, "rules": int64(len(crs))})
	}
	e.cur = nil
	return err
}

// naiveFixpoint re-evaluates every rule of the component against the
// full relations until no new tuple appears. Plans are compiled once
// for the whole fixpoint, not per round.
func (e *Engine) naiveFixpoint(ctx context.Context, crs []compiledRule) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.startIteration()
		changed := false
		for i := range crs {
			cr := &crs[i]
			err := e.fire(cr, cr.base, nil, func(storage.Tuple) {
				changed = true
			})
			if err != nil {
				return err
			}
		}
		if !changed {
			return nil
		}
	}
}

// fire runs one rule firing: execute plan (restricted to delta, if
// given), insert the derivations, and call onNew for each tuple that
// was actually new (the tuple is the plan's head buffer: onNew copies
// what it keeps). Work counts into a firing-private Stats that
// account folds into the engine totals and the rule's profile — the
// counting is identical whether tracing is on or off; only the clock
// reads and the trace event are gated on the tracer.
func (e *Engine) fire(cr *compiledRule, plan *compiled, delta tupleRun, onNew func(storage.Tuple)) error {
	plan.gjPrepare(e.db)
	st := Stats{RuleFirings: 1}
	traced := e.tracer.Enabled()
	var start time.Time
	if traced {
		start = time.Now()
	}
	err := e.runCompiled(plan, delta, nil, &st, func(fr frame) error {
		st.Derived++
		t := plan.headTuple(fr)
		if cr.headRel.Insert(t) {
			st.Inserted++
			if e.rankSink != nil {
				e.rankSink(cr.headRel, cr.headRel.Len()-1, int(e.cur.Rounds))
			}
			onNew(t)
		} else {
			st.Deduped++
		}
		return nil
	})
	var dur time.Duration
	if traced {
		dur = time.Since(start)
		e.tracer.Complete("eval.rule", cr.label, start, dur, map[string]int64{
			"scanned": st.Probes, "index_probes": st.IndexProbes, "full_scans": st.FullScans,
			"matched": st.Matched, "derived": st.Derived, "deduped": st.Deduped, "inserted": st.Inserted,
			"gj_firings": st.GJFirings, "gj_seeks": st.GJSeeks,
		})
	}
	e.account(cr.label, cr.headPred, st, dur)
	return err
}

// account folds one firing's counters into the engine totals and the
// rule's profile.
func (e *Engine) account(label, pred string, st Stats, dur time.Duration) {
	e.stats.Add(st)
	rp := e.rules[label]
	if rp == nil {
		rp = &RuleProfile{Label: label, Pred: pred}
		e.rules[label] = rp
		e.ruleOrder = append(e.ruleOrder, label)
	}
	rp.Stats.Add(st)
	rp.Time += dur
}

// semiNaiveFixpoint runs differential evaluation over a component: an
// initial round over the current state, then rounds in which, for every
// rule and every body occurrence of a component predicate, that
// occurrence ranges over the previous round's delta of its predicate.
// For linear single-predicate components this is textbook semi-naive;
// for the multi-occurrence rules a transformation may introduce, each
// occurrence gets its own delta variant (a sound, set-semantics-safe
// form that can re-derive a tuple at most once per variant).
func (e *Engine) semiNaiveFixpoint(ctx context.Context, inSCC map[string]bool, crs []compiledRule) error {
	delta := make(map[string]*storage.TupleSet)
	for p := range inSCC {
		delta[p] = storage.NewTupleSet()
	}

	// Round 0: all rules against current state. Component occurrences
	// see whatever is already stored (normally empty, but seeds are
	// permitted).
	if err := ctx.Err(); err != nil {
		return err
	}
	e.startIteration()
	round := e.roundSpan(0)
	for i := range crs {
		cr := &crs[i]
		err := e.fire(cr, cr.base, nil, func(t storage.Tuple) {
			delta[cr.headPred].Add(t)
		})
		if err != nil {
			return err
		}
	}
	round.End()

	hasDeltas := false
	for i := range crs {
		if len(crs[i].deltas) > 0 {
			hasDeltas = true
		}
	}
	for hasDeltas {
		total := 0
		for _, d := range delta {
			total += d.Len()
		}
		if total == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		e.startIteration()
		round = e.roundSpan(total)
		next := make(map[string]*storage.TupleSet)
		for p := range inSCC {
			next[p] = storage.NewTupleSet()
		}
		for i := range crs {
			cr := &crs[i]
			for _, dp := range cr.deltas {
				d := delta[dp.pred]
				if d.Len() == 0 {
					continue
				}
				err := e.fire(cr, dp.plan, d, func(t storage.Tuple) {
					next[cr.headPred].Add(t)
				})
				if err != nil {
					return err
				}
			}
		}
		round.End()
		delta = next
	}
	return nil
}

// roundSpan opens a trace span for the current fixpoint round carrying
// the round's total delta size; nil (inert) when tracing is off.
func (e *Engine) roundSpan(deltaSize int) *obs.Span {
	if !e.tracer.Enabled() {
		return nil
	}
	n := int64(0)
	if e.cur != nil {
		n = e.cur.Rounds
	}
	return e.tracer.Start("eval", fmt.Sprintf("round %d", n)).Arg("delta", int64(deltaSize))
}

// Query returns the tuples of the goal's relation matching the goal's
// constant bindings, after Run has completed, copied out so they
// outlive later mutations. Repeated variables in the goal act as
// equality constraints. When the goal has a ground
// argument, the relation's column index narrows the scan to the
// matching positions instead of walking every tuple.
func (e *Engine) Query(goal ast.Atom) ([]storage.Tuple, error) {
	rel := e.db.Relation(goal.Pred)
	if rel == nil {
		return nil, nil
	}
	if rel.Arity != len(goal.Args) {
		return nil, fmt.Errorf("eval: query %s has arity %d, relation has %d", goal, len(goal.Args), rel.Arity)
	}
	g := storage.LowerGoal(goal.Args)
	if !g.Known {
		return nil, nil
	}
	var vals []storage.Value
	n := 0
	match := func(t storage.Tuple) {
		if g.Match(t) {
			vals = append(vals, t...)
			n++
		}
	}
	if col := g.FirstBound(); col >= 0 {
		for _, pos := range rel.Lookup(col, g.Consts[col]) {
			match(rel.At(pos))
		}
	} else {
		for pos := 0; pos < rel.Len(); pos++ {
			match(rel.At(pos))
		}
	}
	if n == 0 {
		return nil, nil
	}
	out, a := make([]storage.Tuple, n), rel.Arity
	for i := range out {
		out[i] = vals[i*a : (i+1)*a : (i+1)*a]
	}
	return out, nil
}

// startIteration counts a fixpoint round (globally and for the current
// stratum) and invokes the hook.
func (e *Engine) startIteration() {
	e.stats.Iterations++
	if e.cur != nil {
		e.cur.Rounds++
	}
	if e.IterationHook != nil {
		e.IterationHook(int(e.stats.Iterations))
	}
}
