package ast

import (
	"sort"
	"strings"
)

// Subst is a substitution: a finite mapping from variables to terms.
// Application resolves chains of variable bindings (see Lookup), so a
// unifier built binding by binding applies as its idempotent closure.
type Subst map[Var]Term

// NewSubst returns an empty substitution.
func NewSubst() Subst { return make(Subst) }

// Clone copies the substitution.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Lookup resolves a term through the substitution, following chains of
// variable bindings. Unbound variables resolve to themselves. Unify
// never builds a cycle, but MatchAtom against a non-ground subject that
// shares variable names with the pattern can (X -> Y, Y -> X): an
// acyclic chain follows each binding at most once, so one longer than
// len(s) has revisited a variable, and such a term resolves to itself.
func (s Subst) Lookup(t Term) Term {
	orig := t
	for steps := 0; steps <= len(s); steps++ {
		v, ok := t.(Var)
		if !ok {
			return t
		}
		next, bound := s[v]
		if !bound || next == t {
			return t
		}
		t = next
	}
	return orig
}

// ApplyAtom applies the substitution to every argument of a.
func (s Subst) ApplyAtom(a Atom) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.Lookup(t)
	}
	return Atom{Pred: a.Pred, Args: args}
}

// ApplyLiteral applies the substitution to l's atom.
func (s Subst) ApplyLiteral(l Literal) Literal {
	return Literal{Neg: l.Neg, Atom: s.ApplyAtom(l.Atom)}
}

// ApplyBody applies the substitution to every literal of b.
func (s Subst) ApplyBody(b []Literal) []Literal {
	out := make([]Literal, len(b))
	for i := range b {
		out[i] = s.ApplyLiteral(b[i])
	}
	return out
}

// ApplyRule applies the substitution to the head and body of r.
func (s Subst) ApplyRule(r Rule) Rule {
	return Rule{Label: r.Label, Head: s.ApplyAtom(r.Head), Body: s.ApplyBody(r.Body)}
}

// Compose returns the composition s∘t: first t is resolved through s,
// then s's own bindings are added. (xσ)(s∘t) == (x t) s for variables x.
func (s Subst) Compose(t Subst) Subst {
	out := make(Subst, len(s)+len(t))
	for k, v := range t {
		out[k] = s.Lookup(v)
	}
	for k, v := range s {
		if _, exists := out[k]; !exists {
			out[k] = v
		}
	}
	return out
}

// String renders the substitution deterministically, e.g. {X -> a, Y -> Z}.
func (s Subst) String() string {
	keys := make([]Var, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(string(k))
		sb.WriteString(" -> ")
		sb.WriteString(s[k].String())
	}
	sb.WriteByte('}')
	return sb.String()
}

// UnifyTerms attempts to unify a and b under the bindings already in s,
// extending s in place. It reports whether unification succeeded; on
// failure s may contain partial bindings, so callers that need rollback
// should Clone first (the matcher in package subsume does).
func UnifyTerms(s Subst, a, b Term) bool {
	a, b = s.Lookup(a), s.Lookup(b)
	if a == b {
		return true
	}
	if v, ok := a.(Var); ok {
		s[v] = b
		return true
	}
	if v, ok := b.(Var); ok {
		s[v] = a
		return true
	}
	return false // distinct constants
}

// UnifyAtoms unifies two atoms under s, extending s in place.
func UnifyAtoms(s Subst, a, b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !UnifyTerms(s, a.Args[i], b.Args[i]) {
			return false
		}
	}
	return true
}

// MatchAtom performs one-way matching: it extends s so that pattern·s
// equals subject atom b, binding only variables that occur in the
// pattern. Bindings are single-step — a pattern variable maps directly
// to a subject term and is never resolved further, so subject variables
// are never bound even when their names collide with pattern variables.
// Callers that apply s afterwards must match against a ground subject
// or rename the pattern apart first (subsume, residue and chase all
// do): application follows chains, so a collision would resolve a
// binding through another pattern variable's.
// It reports success; on failure s may hold partial bindings.
func MatchAtom(s Subst, pattern, b Atom) bool {
	if pattern.Pred != b.Pred || len(pattern.Args) != len(b.Args) {
		return false
	}
	for i := range pattern.Args {
		pt := pattern.Args[i]
		bt := b.Args[i]
		if v, ok := pt.(Var); ok {
			if bound, has := s[v]; has {
				if bound != bt {
					return false
				}
			} else {
				s[v] = bt
			}
			continue
		}
		if pt != bt {
			return false
		}
	}
	return true
}
