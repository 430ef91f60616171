package eval

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
)

// This file holds the classic delete-and-rederive (DRed) algorithm and
// its monotonicity guard. Live maintenance runs through the uniform
// Z-set sweep (ApplyZSetContext, zset.go), which is total;
// DeleteAndRederiveContext is kept solely as the differential-test
// oracle the Z-set path is checked against: its over-delete cone
// against the old state and full re-derivation (the provenance-free
// core of DRed as analyzed by Ramusat et al., arXiv:2112.01132) is
// exactly the conservative work the weighted sweep avoids, so comparing
// the two proves both the result and the saving.

// ErrNeedsRecompute is the DRed oracle's refusal (the Z-set sweep never
// returns it): some rule negates a predicate whose extension the
// deletion may change, so new tuples could appear through the negation
// and an over-delete cone followed by monotone re-derivation is not
// enough. The caller must fall back to a from-scratch evaluation over
// the updated EDB. The guard runs before any mutation, so the database
// is untouched when this error is returned.
var ErrNeedsRecompute = errors.New("eval: update reaches a negated predicate; full recomputation required")

// maintenanceSafe reports whether DRed maintenance for an update of
// the given predicates is monotone: no rule of the program negates a
// predicate whose extension the update can (transitively) change.
func (e *Engine) maintenanceSafe(changed map[string][]storage.Tuple) bool {
	// Inverse dependency closure: every predicate whose relation can
	// change once the changed predicates do.
	fwd := make(map[string][]string) // body pred -> head preds
	for _, r := range e.prog.Rules {
		for _, l := range r.Body {
			if l.Atom.IsEvaluable() {
				continue
			}
			fwd[l.Atom.Pred] = append(fwd[l.Atom.Pred], r.Head.Pred)
		}
	}
	affected := make(map[string]bool)
	var queue []string
	for p, ts := range changed {
		if len(ts) > 0 && !affected[p] {
			affected[p] = true
			queue = append(queue, p)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, h := range fwd[p] {
			if !affected[h] {
				affected[h] = true
				queue = append(queue, h)
			}
		}
	}
	for _, r := range e.prog.Rules {
		for _, l := range r.Body {
			if l.Neg && !l.Atom.IsEvaluable() && affected[l.Atom.Pred] {
				return false
			}
		}
	}
	return true
}

func hasDelta(delta map[string]*storage.TupleSet, pred string) bool {
	d := delta[pred]
	return d != nil && d.Len() > 0
}

// sccRules gathers the component's non-fact rules, enforcing the same
// stratification condition as fixpoint.
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

// DeleteAndRederiveContext removes EDB tuples from a database at
// fixpoint and restores the fixpoint over the shrunken EDB:
//
//  1. Over-delete — propagate the deletions bottom-up against the OLD
//     state: any stored head tuple with a one-step derivation using a
//     deleted tuple joins the deletion cone, transitively, per
//     component in topological order. Nothing is physically removed
//     while the cone is computed, so every rule evaluates against the
//     pre-deletion relations (the classic DRed over-approximation).
//  2. Physically remove the cone (including the requested EDB tuples).
//  3. Re-derive — run the ordinary semi-naive fixpoint from the
//     surviving state. The remaining database is a subset of the new
//     fixpoint, and round 0 of each component evaluates every rule
//     against the full current state, so exactly the over-deleted
//     tuples that are still derivable come back.
//
// removed maps predicates to tuples that must currently be present;
// absent tuples are ignored. It returns the number of IDB tuples that
// were over-deleted (before re-derivation) and ErrNeedsRecompute —
// before touching anything — when the deletion reaches a negated
// predicate.
//
// This path survives only as the differential-test oracle for
// ApplyZSetContext; the service no longer calls it. Note it does not
// maintain ZState ranks — after running it, any rank state for the
// database is stale.
func (e *Engine) DeleteAndRederiveContext(ctx context.Context, removed map[string][]storage.Tuple) (int, error) {
	if !e.maintenanceSafe(removed) {
		return 0, ErrNeedsRecompute
	}
	// Seed the deletion cone with the requested tuples that exist.
	del := make(map[string]*storage.TupleSet)
	requested := 0
	for p, ts := range removed {
		rel := e.db.Relation(p)
		if rel == nil {
			continue
		}
		d := storage.NewTupleSet()
		for _, t := range ts {
			if rel.Contains(t) {
				d.Add(t)
			}
		}
		if d.Len() > 0 {
			del[p] = d
			requested += d.Len()
		}
	}
	if requested == 0 {
		return 0, nil
	}

	for _, scc := range e.sccOrder() {
		if err := e.overDelete(ctx, scc, del); err != nil {
			return 0, err
		}
	}

	// Physical removal of the whole cone.
	over := 0
	for p, d := range del {
		rel := e.db.Relation(p)
		for pos := 0; pos < d.Len(); pos++ {
			rel.Remove(d.At(pos))
		}
		over += d.Len()
	}
	over -= requested // report only the IDB share of the cone

	// Re-derivation: semi-naive fixpoint from the surviving seeds.
	for _, scc := range e.sccOrder() {
		if err := e.fixpoint(ctx, scc); err != nil {
			return over, err
		}
	}
	return over, nil
}

// overDelete grows the deletion cone through one component. The
// frontier starts at every pending deletion and advances one derivation
// step per round; evaluation runs against the unmodified old relations.
func (e *Engine) overDelete(ctx context.Context, scc []string, del map[string]*storage.TupleSet) error {
	inSCC := make(map[string]bool, len(scc))
	for _, p := range scc {
		inSCC[p] = true
		if e.db.Relation(p) == nil {
			e.db.Ensure(p, e.arityOf(p))
		}
	}
	rules, err := e.sccRules(inSCC)
	if err != nil {
		return err
	}
	if len(rules) == 0 {
		return nil
	}
	// Compile one delta plan per positive body occurrence that can ever
	// carry a deletion: predicates already in the cone, plus the
	// component's own predicates (their deletions appear as the cone
	// grows through this component).
	est := e.estimator()
	type delFiring struct {
		label    string
		headPred string
		headRel  *storage.Relation
		pred     string
		plan     *compiled
	}
	var firings []delFiring
	for _, r := range rules {
		for j, l := range r.Body {
			if l.Neg || l.Atom.IsEvaluable() {
				continue
			}
			if !hasDelta(del, l.Atom.Pred) && !inSCC[l.Atom.Pred] {
				continue
			}
			plan, err := planBody(r.Body, j, est, nil)
			if err != nil {
				return fmt.Errorf("rule %s: %w", r.Label, err)
			}
			cp, err := compilePlan(plan, r.Head, e.db, nil)
			if err != nil {
				return fmt.Errorf("rule %s: %w", r.Label, err)
			}
			e.attachGJ(cp)
			cp.prepareIndexes()
			firings = append(firings, delFiring{
				label: ruleLabel(r) + "#dred", headPred: r.Head.Pred,
				headRel: e.db.Relation(r.Head.Pred), pred: l.Atom.Pred, plan: cp,
			})
		}
	}
	if len(firings) == 0 {
		return nil
	}

	// Round 0 frontier: everything deleted so far, any predicate.
	frontier := make(map[string]*storage.TupleSet)
	for p, d := range del {
		if d.Len() > 0 {
			f := storage.NewTupleSet()
			for pos := 0; pos < d.Len(); pos++ {
				f.Add(d.At(pos))
			}
			frontier[p] = f
		}
	}
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		next := make(map[string]*storage.TupleSet)
		for _, f := range firings {
			ts := frontier[f.pred]
			if ts == nil {
				continue
			}
			st := Stats{RuleFirings: 1}
			f.plan.gjPrepare(e.db)
			err := e.runCompiled(f.plan, ts, nil, &st, func(fr frame) error {
				st.Derived++
				t := f.plan.headTuple(fr)
				if !f.headRel.Contains(t) {
					return nil // never stored: nothing to retract
				}
				d := del[f.headPred]
				if d == nil {
					d = storage.NewTupleSet()
					del[f.headPred] = d
				}
				if d.Add(t) {
					if next[f.headPred] == nil {
						next[f.headPred] = storage.NewTupleSet()
					}
					next[f.headPred].Add(t)
				}
				return nil
			})
			e.account(f.label, f.headPred, st, 0)
			if err != nil {
				return err
			}
		}
		frontier = next
	}
	return nil
}
