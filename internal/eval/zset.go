package eval

import (
	"context"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/storage"
)

// This file implements Z-set incremental maintenance: one weighted-
// delta fixpoint that applies a mixed batch of EDB insertions (weight
// +1) and deletions (weight −1) to a database at fixpoint and restores
// the fixpoint exactly, returning the precise per-predicate IDB delta
// of the batch. It is the engine's one maintenance algorithm; its
// reference is from-scratch evaluation over the updated EDB.
//
// The construction follows the DBSP treatment of incremental recursive
// queries (Budiu et al., feldera/dbsp): the recursive fixpoint is a
// nested stream of per-iteration layers, and an input change is pushed
// *inside* the recursion by adjusting each layer's slice of the output
// rather than re-running the outer fixpoint. Concretely, for each
// strongly connected component we stratify tuples by derivation layer
//
//	C[0] ⊆ C[1] ⊆ C[2] ⊆ … ⊆ C[T] = fixpoint,
//
// where C[t] holds the tuples derivable within t rule applications
// (layer 0 is reserved for program-stated seed facts). Every stored
// tuple carries its layer (its rank) in its relation's rank column (see
// ZState). Because layer t depends only on layer t−1 — never on itself
// — membership within a layer is decidable by a single exact support
// check, with no iteration: a tuple belongs to C'[t] iff some rule
// grounding derives it whose same-component body tuples all have rank
// < t. That well-foundedness is what makes signed weights sound under
// recursion, and it is why no over-delete cone is needed: a deletion
// never speculatively retracts a derivation cone, as delete-and-
// rederive (DRed) does; it revisits exactly the tuples whose support
// sets it touched, at exactly the layer where their membership is
// decided, and removes only what the support check refutes.
//
// The sweep processes layers in ascending order. Work is proportional
// to the tuples whose support actually changed (plus the one-step
// neighborhood consulted by the support checks) — not to the size of
// the database, and not to an over-approximated cone retracted and
// re-derived.

// ZState is the persistent layer (rank) assignment that makes weighted
// maintenance well-founded. The ranks themselves live in the relations,
// as a column beside the tuples (storage.Relation.Rank/SetRank): every
// *derived* tuple carries the fixpoint layer at which it was first
// derived, and an unranked tuple (rank 0) is a program-stated seed
// fact, never retracted by maintenance. The state itself is the rank
// counter and the set of relations it has ranked, which is what Export
// walks.
//
// A ZState is valid only when it was recorded by a from-scratch
// fixpoint (Engine.SetRankSink during Run), taken from the rank
// columns of a decoded checkpoint (RanksOf), or maintained by
// ApplyZSetContext ever since, always on the same database. Mutating
// the database through any other path invalidates it; rebuild by
// re-running the fixpoint.
type ZState struct {
	rels map[*storage.Relation]struct{}
	next uint32
}

// NewZState returns an empty rank state.
func NewZState() *ZState {
	return &ZState{rels: make(map[*storage.Relation]struct{})}
}

// Record ranks the tuple just derived at rel's position pos. It has the
// signature Engine.SetRankSink expects, but deliberately ignores the
// engine-reported round: semi-naive evaluation inserts derived tuples
// into their relations mid-round, so a chain of derivations can land
// in one round and the round number does not stratify supports. The
// global insertion order does — a tuple's grounding partners are
// always physically present (hence already recorded) before the tuple
// itself is inserted — so Record assigns a monotone counter. Ranks
// need not be minimal; the sweep only relies on each derived tuple
// outranking the same-component partners of at least one grounding.
func (z *ZState) Record(rel *storage.Relation, pos int, _ int) {
	z.set(rel, pos, z.next+1)
}

// set writes rank r at rel's position pos, keeping the counter at or
// above every rank written, so later Record calls outrank it.
func (z *ZState) set(rel *storage.Relation, pos int, r uint32) {
	z.rels[rel] = struct{}{}
	if r > z.next {
		z.next = r
	}
	rel.SetRank(pos, r)
}

// Export renders the rank state per predicate, each relation's ranked
// tuples in relation order, so it can be persisted alongside the
// database it certifies.
func (z *ZState) Export() map[string][]storage.RankedTuple {
	out := make(map[string][]storage.RankedTuple, len(z.rels))
	for rel := range z.rels {
		if rts := rel.Ranked(); len(rts) > 0 {
			out[rel.Name] = rts
		}
	}
	return out
}

// RanksOf returns the state that certifies the ranks db's relations
// already carry in their rank columns — a decoded checkpoint's: its
// ranked relations, and a counter above every rank in them.
func RanksOf(db *storage.Database) *ZState {
	z := NewZState()
	for _, p := range db.Preds() {
		rel := db.Relation(p)
		col := rel.RankColumn()
		if col == nil {
			continue
		}
		z.rels[rel] = struct{}{}
		for _, r := range col {
			z.next = max(z.next, r)
		}
	}
	return z
}

// ApplyZSetContext applies one mixed batch of EDB changes — a Z-set
// per predicate, insertions weight +1 and deletions weight −1 — to a
// database at fixpoint for the engine's program, and incrementally
// restores the fixpoint. Insertions of present tuples and deletions of
// absent ones are ignored (the effective change is what is applied).
// Changed predicates must be extensional; zs must be the rank state of
// the current fixpoint (see ZState).
//
// It returns the exact IDB delta of the batch: for every derived
// predicate whose extension changed, a Z-set holding the tuples that
// appeared (+1) and disappeared (−1). Unlike the old insert/delete
// split, one uniform pass serves pure insertions, pure deletions, and
// mixed batches, with no over-deletion and no full re-derivation.
//
// Stratified negation rides the same sweep: a lower stratum's delta is
// a signed input to every literal above it, and under "not p" the sign
// is flipped (see zOcc). No update is refused.
//
// An error (including cancellation) can leave the database
// mid-maintenance; callers must treat the state as poisoned and
// rebuild. Only the derived-predicate rejection is reported before
// anything is mutated.
func (e *Engine) ApplyZSetContext(ctx context.Context, zs *ZState, changes map[string]*storage.ZSet) (map[string]*storage.ZSet, error) {
	if zs == nil {
		return nil, fmt.Errorf("eval: ApplyZSetContext requires a ZState")
	}
	idb := e.prog.IDBPreds()
	arity := make(map[string]int, len(changes))
	for p, z := range changes {
		if z == nil || z.Len() == 0 {
			continue
		}
		if idb[p] {
			return nil, fmt.Errorf("eval: %s is derived by the program; z-set changes must be extensional", p)
		}
		z.Each(func(t storage.Tuple, w int64) { arity[p] = len(t) })
	}
	if len(arity) == 0 {
		return map[string]*storage.ZSet{}, nil
	}

	// Every relation the batch can touch must exist before the freeze: a
	// plan compiled against a snapshot that lacks a relation falls back
	// to the live one (exec.go), and the old state of a relation born in
	// this batch is empty, not its new contents.
	for p, a := range arity {
		e.db.Ensure(p, a)
	}
	for p := range idb {
		e.db.Ensure(p, e.arityOf(p))
	}

	// Freeze the pre-batch state: vanished-support discovery must see
	// the groundings that existed before the batch, after live
	// relations have moved on. COW makes this O(#relations).
	oldDB := e.db.Snapshot()

	// Apply the EDB changes and keep the effective delta (insertions
	// that were new, deletions that were present).
	lower := make(map[string]*storage.ZSet)
	for p := range arity {
		eff := storage.NewZSet()
		rel := e.db.Relation(p)
		changes[p].Each(func(t storage.Tuple, w int64) {
			if w > 0 {
				if rel.Insert(t) {
					eff.Add(t, 1)
				}
			} else if rel.Remove(t) {
				eff.Add(t, -1)
			}
		})
		if eff.Len() > 0 {
			lower[p] = eff
		}
	}

	out := make(map[string]*storage.ZSet)
	if len(lower) == 0 {
		return out, nil
	}
	for _, scc := range e.sccOrder() {
		sccOut, err := e.zsweepSCC(ctx, zs, oldDB, scc, lower)
		if err != nil {
			return out, err
		}
		for p, z := range sccOut {
			if z.Len() == 0 {
				continue
			}
			out[p] = z
			lower[p] = z // visible as an input change to components above
		}
	}
	return out, nil
}

// zPartner resolves one same-component positive body literal of a
// compiled plan back to a tuple of its live relation, so emitted
// groundings can be ranked.
type zPartner struct {
	rel  *storage.Relation
	refs []argRef
	buf  storage.Tuple // tuple's reusable result
}

// tuple resolves the partner under fr into its buffer: valid until the
// next call, which suffices for the Rank probe it feeds.
func (p *zPartner) tuple(fr frame) storage.Tuple {
	for i, r := range p.refs {
		p.buf[i] = r.resolve(fr)
	}
	return p.buf
}

// literalRefs maps a body literal's arguments onto a compiled plan's
// slots (constants become interned values).
func literalRefs(slotOf map[ast.Var]int, lit ast.Literal) ([]argRef, error) {
	refs := make([]argRef, len(lit.Atom.Args))
	for k, a := range lit.Atom.Args {
		if v, ok := a.(ast.Var); ok {
			s, ok2 := slotOf[v]
			if !ok2 {
				return nil, fmt.Errorf("eval: variable %s of %s not slotted", v, lit)
			}
			refs[k] = slotRef(s)
		} else {
			refs[k] = constRef(storage.Intern(a))
		}
	}
	return refs, nil
}

func slotMap(c *compiled) map[ast.Var]int {
	m := make(map[ast.Var]int, len(c.vars))
	for i, v := range c.vars {
		m[v] = i
	}
	return m
}

// zOcc is one body occurrence of a changeable predicate in one rule,
// compiled twice with that literal as the delta position: the add plan
// evaluates against the live (new) database to discover appearing
// groundings, the del plan against the frozen pre-batch snapshot to
// discover vanishing ones.
//
// A negated occurrence ("not p", p in a lower stratum — stratification
// rules out the component's own predicates) is the same thing with the
// sign flipped: the delta scan binds the literal's variables from p's
// change, tuples that entered p take the del plan (groundings that
// relied on their absence vanish) and tuples that left p the add plan.
// It is never a rank partner, so it contributes no layer.
type zOcc struct {
	label    string
	headPred string
	selfSCC  bool // occurrence of a same-component predicate

	addPlan     *compiled
	addPartners []zPartner
	delPlan     *compiled
	delPartners []zPartner
}

// zCheck is the head-bound support enumerator for one rule: head
// variables are prebound, so running the plan with a candidate tuple's
// values seeded enumerates exactly that tuple's derivations.
type zCheck struct {
	label    string
	rule     ast.Rule
	plan     *compiled
	partners []zPartner
	seed     []storage.Value // seedFor's reusable result
}

// seedFor fills the prebound slot values for candidate t; ok is false
// when the head shape cannot match t (constant mismatch or repeated
// head variable with unequal columns). The compiler numbers the
// prebound head variables 0..len(seed)-1, so the plan's head
// projection names each column's seed slot (or its constant).
func (c *zCheck) seedFor(t storage.Tuple) bool {
	clear(c.seed)
	for k, r := range c.plan.head {
		switch {
		case r.slot < 0:
			if r.c != t[k] {
				return false
			}
		case c.seed[r.slot] == storage.NoValue:
			c.seed[r.slot] = t[k]
		case c.seed[r.slot] != t[k]:
			return false
		}
	}
	return true
}

// zsweep is the per-component sweep state.
type zsweep struct {
	e     *Engine
	zs    *ZState
	oldDB *storage.Database
	inSCC map[string]bool

	occs    map[string][]*zOcc // delta predicate -> positive occurrence plans
	negOccs map[string][]*zOcc // lower predicate -> negated occurrence plans
	checks  map[string][]*zCheck

	// sched holds each pending layer's candidates, per predicate.
	sched   map[uint32]map[string]*storage.TupleSet
	cur     uint32 // layer the run loop is currently draining
	started bool   // true once the run loop has begun
	out     map[string]*storage.ZSet

	one    tupleList           // process's one-tuple delta
	future map[uint32]struct{} // check's future layers, reused
	layers []uint32            // check's result, reused

	// The state the firing callbacks (onCheck, onAdd, onDel) read, set
	// before each firing. The callbacks are bound to method values once
	// per sweep, so no firing allocates a closure; firings never nest.
	st        Stats
	chk       *zCheck
	occ       *zOcc
	headRel   *storage.Relation
	layer     uint32 // check: the layer asked about; fireDel: the layer processed
	extra     uint32 // fireAdd/fireDel: the delta tuple's rank, for same-component occurrences
	preSweep  bool
	ok        bool
	minL      uint32
	emitCheck func(frame) error
	emitAdd   func(frame) error
	emitDel   func(frame) error
}

func (w *zsweep) schedule(pred string, t storage.Tuple, layer uint32) {
	// Layers are processed in ascending order and each layer's
	// candidate set is snapshotted when the loop reaches it, so a
	// candidate scheduled at or below the layer being drained would be
	// lost. Defer it to the next layer instead: support checks are
	// monotone in the layer (a grounding valid at g stays valid at any
	// l ≥ g) and an inserted tuple's rank is its grounding layer, not
	// its processing layer, so late processing is sound.
	if w.started && layer <= w.cur {
		layer = w.cur + 1
	}
	m := w.sched[layer]
	if m == nil {
		m = make(map[string]*storage.TupleSet)
		w.sched[layer] = m
	}
	set := m[pred]
	if set == nil {
		set = storage.NewTupleSet()
		m[pred] = set
	}
	set.Add(t)
}

func (w *zsweep) noteOut(pred string, t storage.Tuple, wgt int64) {
	z := w.out[pred]
	if z == nil {
		z = storage.NewZSet()
		w.out[pred] = z
	}
	z.Add(t, wgt)
}

// groundingLayer computes the first layer at which an emitted grounding
// is a valid support: 1 + the maximum rank among its same-component
// body tuples (extra folds in the rank of the delta tuple that fired
// the plan, when that occurrence is same-component). ok is false when
// some partner has been removed, which voids the grounding.
func groundingLayer(partners []zPartner, fr frame, extra uint32) (uint32, bool) {
	max := extra
	for i := range partners {
		// Seed facts (present, unranked) are layer 0; a removed partner
		// voids the grounding.
		p := &partners[i]
		pos, r := p.rel.Rank(p.tuple(fr))
		if pos < 0 {
			return 0, false
		}
		if r > max {
			max = r
		}
	}
	return max + 1, true
}

// check enumerates every current support grounding of candidate t and
// reports whether one is valid at layer ℓ (ok), the smallest valid
// layer found (minL, meaningful when ok), and the future layers at
// which currently-known groundings would first become valid — the
// re-entry schedule for a refuted tuple, in ascending order and valid
// until the next check.
func (w *zsweep) check(pred string, t storage.Tuple, l uint32) (ok bool, minL uint32, future []uint32, err error) {
	clear(w.future)
	w.layer, w.ok, w.minL = l, false, ^uint32(0)
	for _, c := range w.checks[pred] {
		if !c.seedFor(t) {
			continue
		}
		w.chk, w.st = c, Stats{RuleFirings: 1}
		c.plan.prepareIndexes()
		rerr := w.e.runCompiled(c.plan, nil, c.seed, &w.st, w.emitCheck)
		w.e.account(c.label, pred, w.st, 0)
		if rerr != nil {
			return false, 0, nil, rerr
		}
	}
	if w.ok || len(w.future) == 0 {
		return w.ok, w.minL, nil, nil
	}
	w.layers = w.layers[:0]
	for g := range w.future {
		w.layers = append(w.layers, g)
	}
	sort.Slice(w.layers, func(i, j int) bool { return w.layers[i] < w.layers[j] })
	return false, w.minL, w.layers, nil
}

// onCheck records the layer of one support grounding check's plan
// emitted.
func (w *zsweep) onCheck(fr frame) error {
	w.st.Derived++
	g, valid := groundingLayer(w.chk.partners, fr, 0)
	if !valid {
		return nil
	}
	if g <= w.layer {
		w.ok = true
	} else {
		if w.future == nil {
			w.future = make(map[uint32]struct{})
		}
		w.future[g] = struct{}{}
	}
	if g < w.minL {
		w.minL = g
	}
	return nil
}

// fireAdd discovers groundings that appear because the given tuples
// were added (or entered a lower layer) at rank extra — or, for negated
// occurrences, left the negated predicate: for each occurrence plan,
// the delta position ranges over ts against the live database, and
// every emitted head is scheduled at the layer where the new grounding
// first counts.
func (w *zsweep) fireAdd(occs []*zOcc, ts tupleRun, extra uint32) error {
	if ts.Len() == 0 {
		return nil
	}
	for _, occ := range occs {
		w.occ, w.st = occ, Stats{RuleFirings: 1}
		w.headRel, w.extra = w.e.db.Relation(occ.headPred), 0
		if occ.selfSCC {
			w.extra = extra
		}
		occ.addPlan.prepareIndexes()
		err := w.e.runCompiled(occ.addPlan, ts, nil, &w.st, w.emitAdd)
		w.e.account(occ.label, occ.headPred, w.st, 0)
		if err != nil {
			return err
		}
	}
	return nil
}

// onAdd schedules the head of one grounding fireAdd's plan emitted.
func (w *zsweep) onAdd(fr frame) error {
	w.st.Derived++
	g, valid := groundingLayer(w.occ.addPartners, fr, w.extra)
	if !valid {
		return nil
	}
	h := w.occ.addPlan.headTuple(fr)
	if w.headRel != nil && w.headRel.Contains(h) {
		// Already present: a new grounding can only lower the tuple's
		// rank, and ranks need not be minimal — a loose rank just makes
		// later deletion checks a little more conservative. Re-checking
		// here would cost a support enumeration per present head.
		return nil
	}
	w.schedule(w.occ.headPred, h, g)
	return nil
}

// fireDel discovers tuples whose support may have vanished because the
// given tuples were deleted — or, for negated occurrences, entered the
// negated predicate: the delta position ranges over ts against the
// frozen pre-batch snapshot, so exactly the groundings that existed
// before the change are enumerated. Each affected head is
// scheduled for a support re-check at its own layer. cur is the layer
// being processed (or 0 at the pre-sweep phase): heads whose layer is
// already settled need no re-check, because their membership was
// decided from layers the deletion cannot reach.
func (w *zsweep) fireDel(occs []*zOcc, ts tupleRun, extra, cur uint32, preSweep bool) error {
	if ts.Len() == 0 {
		return nil
	}
	for _, occ := range occs {
		occ.delPlan.prepareIndexes()
		w.headRel = w.e.db.Relation(occ.headPred)
		if w.headRel == nil {
			continue
		}
		w.occ, w.st = occ, Stats{RuleFirings: 1}
		w.layer, w.preSweep, w.extra = cur, preSweep, 0
		if occ.selfSCC {
			w.extra = extra
		}
		err := w.e.runCompiled(occ.delPlan, ts, nil, &w.st, w.emitDel)
		w.e.account(occ.label, occ.headPred, w.st, 0)
		if err != nil {
			return err
		}
	}
	return nil
}

// onDel schedules a support re-check of the head of one grounding
// fireDel's plan emitted.
func (w *zsweep) onDel(fr frame) error {
	w.st.Derived++
	h := w.occ.delPlan.headTuple(fr)
	pos, r := w.headRel.Rank(h)
	if pos < 0 || r == 0 {
		return nil // absent, or a program seed: never retracted
	}
	if !w.preSweep && r <= w.layer {
		return nil // settled layer: membership already final
	}
	g, valid := groundingLayer(w.occ.delPartners, fr, w.extra)
	if !valid || g > r {
		return nil // grounding never supported h's membership layer
	}
	w.schedule(w.occ.headPred, h, r)
	return nil
}

// process decides one scheduled candidate (pred, t) at layer l: an
// exact support check admits, re-ranks, keeps, or removes the tuple,
// and the change (if any) is propagated by firing the discovery plans
// with the tuple as the delta.
func (w *zsweep) process(pred string, t storage.Tuple, l uint32) error {
	rel := w.e.db.Relation(pred)
	if rel == nil {
		return nil
	}
	pos, r := rel.Rank(t)
	present := pos >= 0
	if present && r == 0 {
		return nil // pinned program seed
	}
	if present && r < l {
		return nil // settled at a lower layer
	}
	ok, minL, future, err := w.check(pred, t, l)
	if err != nil {
		return err
	}
	w.one = append(w.one[:0], t)
	switch {
	case !present && ok:
		rel.Insert(t)
		w.e.stats.Inserted++
		if minL > l {
			minL = l
		}
		w.zs.set(rel, rel.Len()-1, minL)
		w.noteOut(pred, t, 1)
		return w.fireAdd(w.occs[pred], &w.one, minL)
	case !present && !ok:
		for _, g := range future {
			w.schedule(pred, t, g)
		}
		return nil
	case ok: // present, supported at ≤ l
		if minL < r {
			w.zs.set(rel, pos, minL)
			return w.fireAdd(w.occs[pred], &w.one, minL)
		}
		return nil
	default: // present, refuted
		if r != l {
			return nil // only a rank-decrease probe failed; membership is decided at r
		}
		rel.Remove(t) // its rank leaves with it
		w.noteOut(pred, t, -1)
		for _, g := range future {
			w.schedule(pred, t, g)
		}
		return w.fireDel(w.occs[pred], &w.one, r, l, false)
	}
}

// zsweepSCC maintains one strongly connected component under the
// accumulated lower changes, returning the component's own delta.
func (e *Engine) zsweepSCC(ctx context.Context, zs *ZState, oldDB *storage.Database, scc []string, lower map[string]*storage.ZSet) (map[string]*storage.ZSet, error) {
	inSCC := make(map[string]bool, len(scc))
	for _, p := range scc {
		inSCC[p] = true
	}
	rules, err := e.sccRules(inSCC)
	if err != nil {
		return nil, err
	}
	if len(rules) == 0 {
		return nil, nil
	}
	touched := false
	for _, r := range rules {
		for _, l := range r.Body {
			if !l.Atom.IsEvaluable() && lower[l.Atom.Pred] != nil {
				touched = true
			}
		}
	}
	if !touched {
		return nil, nil
	}

	w := &zsweep{
		e: e, zs: zs, oldDB: oldDB, inSCC: inSCC,
		occs:    make(map[string][]*zOcc),
		negOccs: make(map[string][]*zOcc),
		checks:  make(map[string][]*zCheck),
		sched:   make(map[uint32]map[string]*storage.TupleSet),
		out:     make(map[string]*storage.ZSet),
	}
	w.emitCheck, w.emitAdd, w.emitDel = w.onCheck, w.onAdd, w.onDel
	if err := w.compile(rules, lower); err != nil {
		return nil, err
	}

	e.strata = append(e.strata, StratumInfo{Preds: scc})
	e.cur = &e.strata[len(e.strata)-1]
	start := time.Now()
	err = w.run(ctx, lower)
	e.cur.Time = time.Since(start)
	if e.tracer.Enabled() {
		e.tracer.Complete("eval", "zsweep "+strings.Join(scc, ","), start, e.cur.Time,
			map[string]int64{"layers": e.cur.Rounds, "rules": int64(len(rules))})
	}
	e.cur = nil
	if err != nil {
		return nil, err
	}
	return w.out, nil
}

// compile lowers the component's rules into occurrence-discovery plans
// (for predicates that can change: the already-changed lower ones,
// positive or negated, and the component's own) and head-bound support
// checkers.
func (w *zsweep) compile(rules []ast.Rule, lower map[string]*storage.ZSet) error {
	est := w.e.estimator()
	for _, r := range rules {
		for j, l := range r.Body {
			if l.Atom.IsEvaluable() {
				continue
			}
			p := l.Atom.Pred
			if lower[p] == nil && !w.inSCC[p] {
				continue
			}
			suffix := "#zset"
			if l.Neg {
				// A negated literal of the wrong arity holds whatever p
				// contains (evalNegCheck), so p's change cannot move it.
				if rel := w.e.db.Relation(p); rel == nil || rel.Arity != len(l.Atom.Args) {
					continue
				}
				suffix = "#zset-neg"
			}
			occ := &zOcc{
				label:    ruleLabel(r) + suffix,
				headPred: r.Head.Pred,
				selfSCC:  w.inSCC[p],
			}
			plan, err := planBody(r.Body, j, est, nil)
			if err != nil {
				return fmt.Errorf("rule %s: %w", r.Label, err)
			}
			if occ.addPlan, err = compilePlan(plan, r.Head, w.e.db, nil); err != nil {
				return fmt.Errorf("rule %s: %w", r.Label, err)
			}
			if occ.addPartners, err = partnersOf(occ.addPlan, r.Body, j, w.inSCC, w.e.db); err != nil {
				return err
			}
			if occ.delPlan, err = compilePlan(plan, r.Head, w.oldDB, nil); err != nil {
				return fmt.Errorf("rule %s: %w", r.Label, err)
			}
			if occ.delPartners, err = partnersOf(occ.delPlan, r.Body, j, w.inSCC, w.e.db); err != nil {
				return err
			}
			if l.Neg {
				w.negOccs[p] = append(w.negOccs[p], occ)
			} else {
				w.occs[p] = append(w.occs[p], occ)
			}
		}

		chk, err := compileCheck(r, w.inSCC, w.e.db, est)
		if err != nil {
			return err
		}
		w.checks[r.Head.Pred] = append(w.checks[r.Head.Pred], chk)
	}
	return nil
}

// compileCheck lowers rule r into its head-bound support check over
// db: the head variables are prebound, so seeding the plan with a
// candidate tuple enumerates exactly that tuple's groundings, and the
// partners resolve the grounding's positive body tuples in the rule's
// component (inSCC) for groundingLayer. The sweep and Explain both
// decide support through it.
func compileCheck(r ast.Rule, inSCC map[string]bool, db *storage.Database, est estimator) (*zCheck, error) {
	var prebound []ast.Var
	seen := make(map[ast.Var]bool)
	for _, a := range r.Head.Args {
		if v, ok := a.(ast.Var); ok && !seen[v] {
			seen[v] = true
			prebound = append(prebound, v)
		}
	}
	plan, err := planBody(r.Body, -1, est, seen)
	if err != nil {
		return nil, fmt.Errorf("rule %s: %w", r.Label, err)
	}
	cp, err := compilePlan(plan, r.Head, db, prebound)
	if err != nil {
		return nil, fmt.Errorf("rule %s: %w", r.Label, err)
	}
	partners, err := partnersOf(cp, r.Body, -1, inSCC, db)
	if err != nil {
		return nil, err
	}
	return &zCheck{
		label:    ruleLabel(r) + "#zcheck",
		rule:     r,
		plan:     cp,
		partners: partners,
		seed:     make([]storage.Value, len(prebound)),
	}, nil
}

// partnersOf builds resolvers into db for every positive body literal
// of a compiled plan whose predicate is in the component (inSCC),
// excluding the delta occurrence.
func partnersOf(c *compiled, body []ast.Literal, deltaIdx int, inSCC map[string]bool, db *storage.Database) ([]zPartner, error) {
	slots := slotMap(c)
	var out []zPartner
	for i, l := range body {
		if i == deltaIdx || l.Neg || l.Atom.IsEvaluable() || !inSCC[l.Atom.Pred] {
			continue
		}
		refs, err := literalRefs(slots, l)
		if err != nil {
			return nil, err
		}
		out = append(out, zPartner{rel: db.Relation(l.Atom.Pred), refs: refs, buf: make(storage.Tuple, len(refs))})
	}
	return out, nil
}

// run seeds the schedule from the lower changes and sweeps the layers
// in ascending order.
func (w *zsweep) run(ctx context.Context, lower map[string]*storage.ZSet) error {
	preds := make([]string, 0, len(lower))
	for p := range lower {
		if len(w.occs[p]) > 0 || len(w.negOccs[p]) > 0 {
			preds = append(preds, p)
		}
	}
	sort.Strings(preds)
	for _, p := range preds {
		// Groundings vanish where a positive occurrence lost its tuple or
		// a negated one gained it, and appear the other way round.
		a, d := lower[p].Split()
		adds, dels := tupleList(a), tupleList(d)
		if err := w.fireDel(w.occs[p], &dels, 0, 0, true); err != nil {
			return err
		}
		if err := w.fireDel(w.negOccs[p], &adds, 0, 0, true); err != nil {
			return err
		}
		if err := w.fireAdd(w.occs[p], &adds, 0); err != nil {
			return err
		}
		if err := w.fireAdd(w.negOccs[p], &dels, 0); err != nil {
			return err
		}
	}

	w.started = true
	for len(w.sched) > 0 {
		// Drain the lowest pending layer; draining only schedules above it.
		t := ^uint32(0)
		for l := range w.sched {
			t = min(t, l)
		}
		w.cur = t
		m := w.sched[t]
		if err := ctx.Err(); err != nil {
			return err
		}
		delete(w.sched, t)
		w.e.startIteration()
		preds := make([]string, 0, len(m))
		for p := range m {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		for _, p := range preds {
			set := m[p]
			order := make([]int, set.Len())
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(i, j int) bool { return keyLess(set.At(order[i]), set.At(order[j])) })
			for _, pos := range order {
				if err := w.process(p, set.At(pos), t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// keyLess orders a layer's candidates by their little-endian byte
// encoding, four bytes a column, so every run decides them in one
// fixed order (the order earlier releases drained string-keyed layers
// in, which keeps ranks and relation order of a replayed WAL
// unchanged).
func keyLess(a, b storage.Tuple) bool {
	for i := range a {
		if x, y := a[i], b[i]; x != y {
			s := bits.TrailingZeros32(uint32(x^y)) &^ 7
			return uint8(x>>s) < uint8(y>>s)
		}
	}
	return false
}
