package eval

import (
	"fmt"

	"repro/internal/ast"
)

// stepKind classifies a planned body step.
type stepKind int

const (
	stepScan     stepKind = iota // database literal, joined via index/scan
	stepFilter                   // evaluable literal with all vars bound
	stepBind                     // "V = t" with exactly one unbound side
	stepNegCheck                 // negated database literal, fully bound
)

// planStep is one step of a rule body plan.
type planStep struct {
	kind     stepKind
	lit      ast.Literal
	useDelta bool // semi-naive: match against the delta relation
}

// estimator predicts the fan-out of joining an atom given which of its
// arguments are bound; nil falls back to a purely syntactic heuristic.
// The engine supplies an estimator backed by relation sizes and
// per-column distinct counts.
type estimator func(a ast.Atom, bound map[ast.Var]bool) float64

// planBody orders the body literals of a rule for left-deep evaluation:
//
//   - the designated delta occurrence (if any) is evaluated first, so
//     semi-naive iterations touch only new tuples;
//   - evaluable literals are placed at the earliest point where all of
//     their variables are bound (an equality with exactly one unbound
//     variable is placed as a binding step);
//   - fully-bound database atoms are flushed immediately (they are pure
//     membership filters);
//   - otherwise the next literal is chosen greedily among those sharing
//     a bound variable, by lowest estimated fan-out when an estimator
//     is available, else by most bound arguments; with no sharing
//     literal, source order decides.
//
// Variables in prebound are treated as already bound before the first
// step (a head-bound support check seeds them from the candidate tuple).
//
// It returns an error if some evaluable literal can never be bound
// (an unsafe rule).
func planBody(body []ast.Literal, deltaIdx int, est estimator, prebound map[ast.Var]bool) ([]planStep, error) {
	used := make([]bool, len(body))
	bound := make(map[ast.Var]bool, len(prebound))
	for v := range prebound {
		bound[v] = true
	}
	var plan []planStep

	bindAtomVars := func(a ast.Atom) {
		for _, t := range a.Args {
			if v, ok := t.(ast.Var); ok {
				bound[v] = true
			}
		}
	}

	emitDB := func(i int, useDelta bool) {
		plan = append(plan, planStep{kind: stepScan, lit: body[i], useDelta: useDelta})
		used[i] = true
		bindAtomVars(body[i].Atom)
	}

	// countBoundVars reports how many argument variables of a are bound.
	countBoundVars := func(a ast.Atom) (boundArgs, totalArgs int) {
		for _, t := range a.Args {
			switch tt := t.(type) {
			case ast.Var:
				totalArgs++
				if bound[tt] {
					boundArgs++
				}
			default:
				totalArgs++
				boundArgs++
			}
		}
		return
	}

	// flushEvaluables emits every evaluable literal that has become
	// ready (all vars bound, or a usable binding equality) and every
	// fully-bound negated database literal (safe negation as failure:
	// the check is a single indexed absence probe).
	flushEvaluables := func() {
		for progress := true; progress; {
			progress = false
			for i, l := range body {
				if used[i] {
					continue
				}
				if l.Neg && !l.Atom.IsEvaluable() {
					if ba, ta := countBoundVars(l.Atom); ba == ta {
						plan = append(plan, planStep{kind: stepNegCheck, lit: l})
						used[i] = true
						progress = true
					}
					continue
				}
				if !l.Atom.IsEvaluable() {
					continue
				}
				unboundVars := 0
				var unboundSide ast.Term
				for _, t := range l.Atom.Args {
					if v, ok := t.(ast.Var); ok && !bound[v] {
						unboundVars++
						unboundSide = t
					}
				}
				switch {
				case unboundVars == 0:
					plan = append(plan, planStep{kind: stepFilter, lit: l})
					used[i] = true
					progress = true
				case unboundVars == 1 && !l.Neg && l.Atom.Pred == ast.OpEq:
					plan = append(plan, planStep{kind: stepBind, lit: l})
					used[i] = true
					bound[unboundSide.(ast.Var)] = true
					progress = true
				}
			}
		}
	}

	if deltaIdx >= 0 {
		emitDB(deltaIdx, true)
	}
	for {
		flushEvaluables()
		// Fully-bound positive database atoms are pure membership
		// filters: they
		// bind nothing new and cost one indexed probe, so they are
		// emitted immediately, like evaluable filters. This is what
		// makes §4(2)'s introduced small-relation guards (doctoral(S))
		// cut the search before wider joins run.
		for i, l := range body {
			if used[i] || l.Neg || l.Atom.IsEvaluable() {
				continue
			}
			if ba, ta := countBoundVars(l.Atom); ta > 0 && ba == ta {
				plan = append(plan, planStep{kind: stepScan, lit: l})
				used[i] = true
			}
		}
		// Pick the next database literal among those sharing a bound
		// variable: lowest estimated fan-out wins when statistics are
		// available, otherwise the most bound arguments; with no
		// sharing literal, the earliest unused one.
		best := -1
		bestScore := 0
		bestCost := 0.0
		firstUnused := -1
		for i, l := range body {
			if used[i] || l.Neg || l.Atom.IsEvaluable() {
				continue
			}
			if firstUnused < 0 {
				firstUnused = i
			}
			ba, _ := countBoundVars(l.Atom)
			if ba == 0 {
				continue
			}
			if est != nil {
				cost := est(l.Atom, bound)
				if best < 0 || cost < bestCost {
					best, bestCost = i, cost
				}
				continue
			}
			if ba > bestScore {
				best, bestScore = i, ba
			}
		}
		if best < 0 {
			best = firstUnused
		}
		if best < 0 {
			break
		}
		emitDB(best, false)
	}
	flushEvaluables()
	for i, l := range body {
		if !used[i] {
			return nil, fmt.Errorf("eval: unsafe rule body: %s has unbound variables at every position", l)
		}
	}
	return plan, nil
}
