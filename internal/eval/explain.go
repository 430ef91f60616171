package eval

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/storage"
)

// Derivation is a proof tree for a derived ground atom: the rule whose
// instance produced it and the derivations of that instance's database
// subgoals. EDB facts are leaves with an empty Rule.
type Derivation struct {
	Atom     ast.Atom
	Rule     string
	Children []*Derivation
}

// String renders the derivation as an indented tree.
func (d *Derivation) String() string {
	var sb strings.Builder
	d.render(&sb, 0)
	return sb.String()
}

func (d *Derivation) render(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(d.Atom.String())
	if d.Rule != "" {
		fmt.Fprintf(sb, "   [%s]", d.Rule)
	} else {
		sb.WriteString("   [fact]")
	}
	sb.WriteByte('\n')
	for _, c := range d.Children {
		c.render(sb, depth+1)
	}
}

// Size counts the nodes of the derivation.
func (d *Derivation) Size() int {
	n := 1
	for _, c := range d.Children {
		n += c.Size()
	}
	return n
}

// errFound stops a support check at its first certified grounding.
var errFound = errors.New("eval: witness found")

// Explain returns a proof tree for the ground goal atom, read off the
// rank certificate of a ranked database: ranks recorded by SetRankSink
// during Run, or maintained by ApplyZSetContext since. Every derived
// tuple outranks the same-component body tuples of at least one of its
// groundings, so at each derived tuple the walk runs its rules'
// head-bound support checks (compileCheck, the sweep's), takes the
// first grounding whose layer is at most the tuple's rank, and descends
// into that grounding's positive database atoms. Ranks fall strictly
// inside a component and components are acyclic, so the walk ends,
// with no search. EDB tuples and unranked tuples (seed facts, and every
// tuple of an unranked database) are leaves.
func (e *Engine) Explain(goal ast.Atom) (*Derivation, error) {
	if !goal.IsGround() {
		return nil, fmt.Errorf("eval: Explain needs a ground atom, got %s", goal)
	}
	x := &explainer{e: e, comp: make(map[string]map[string]bool), checks: make(map[string][]*zCheck)}
	for _, scc := range e.sccOrder() {
		inSCC := make(map[string]bool, len(scc))
		for _, p := range scc {
			inSCC[p] = true
			x.comp[p] = inSCC
		}
	}
	return x.walk(goal)
}

// explainer is one Explain call's state: each predicate's component
// and its rules' support checks, compiled on first use.
type explainer struct {
	e      *Engine
	comp   map[string]map[string]bool
	checks map[string][]*zCheck
}

func (x *explainer) walk(goal ast.Atom) (*Derivation, error) {
	rel := x.e.db.Relation(goal.Pred)
	t, ok := storage.LookupTuple(goal.Args)
	if !ok || rel == nil || rel.Arity != len(t) {
		return nil, fmt.Errorf("eval: %s is not derivable", goal)
	}
	pos, rank := rel.Rank(t)
	if pos < 0 {
		return nil, fmt.Errorf("eval: %s is not derivable", goal)
	}
	d := &Derivation{Atom: goal.Clone()}
	checks, err := x.checksFor(goal.Pred)
	if err != nil {
		return nil, err
	}
	if len(checks) == 0 {
		return d, nil // an EDB tuple
	}
	if rank == 0 {
		// A seed of a derived predicate keeps its program fact's label.
		for _, r := range x.e.prog.RulesFor(goal.Pred) {
			if r.IsFact() && r.Head.Equal(goal) {
				d.Rule = r.Label
				break
			}
		}
		return d, nil
	}
	for _, c := range checks {
		if !c.seedFor(t) {
			continue
		}
		var witness ast.Subst
		var st Stats
		c.plan.prepareIndexes()
		err := x.e.runCompiled(c.plan, nil, c.seed, &st, func(fr frame) error {
			if g, ok := groundingLayer(c.partners, fr, 0); ok && g <= rank {
				witness = c.plan.subst(fr)
				return errFound
			}
			return nil
		})
		if witness == nil {
			if err != nil {
				return nil, err
			}
			continue
		}
		d.Rule = c.rule.Label
		for _, l := range c.rule.Body {
			if l.Neg || l.Atom.IsEvaluable() {
				continue
			}
			child, err := x.walk(witness.ApplyAtom(l.Atom))
			if err != nil {
				return nil, err
			}
			d.Children = append(d.Children, child)
		}
		return d, nil
	}
	return nil, fmt.Errorf("eval: no grounding of %s ranks below it; Explain needs the database ranked for this program", goal)
}

// checksFor returns the support checks of pred's rules; none for an
// EDB predicate or one defined by facts only.
func (x *explainer) checksFor(pred string) ([]*zCheck, error) {
	if cs, ok := x.checks[pred]; ok {
		return cs, nil
	}
	var cs []*zCheck
	for _, r := range x.e.prog.RulesFor(pred) {
		if r.IsFact() {
			continue
		}
		c, err := compileCheck(r, x.comp[pred], x.e.db, x.e.estimator())
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	x.checks[pred] = cs
	return cs, nil
}
