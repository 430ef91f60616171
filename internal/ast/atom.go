package ast

import (
	"sort"
	"strings"
)

// Evaluable predicate names. Following the paper, built-in predicates
// such as X > Y or X = 100 are "evaluable predicates"; all others are
// "database predicates".
const (
	OpEq = "="
	OpNe = "!="
	OpLt = "<"
	OpLe = "<="
	OpGt = ">"
	OpGe = ">="
)

// evaluablePreds is the closed set of built-in comparison predicates.
var evaluablePreds = map[string]bool{
	OpEq: true, OpNe: true, OpLt: true, OpLe: true, OpGt: true, OpGe: true,
}

// IsEvaluablePred reports whether pred names a built-in comparison.
func IsEvaluablePred(pred string) bool { return evaluablePreds[pred] }

// NegateOp returns the complementary comparison operator
// (e.g. "<" becomes ">="). It panics on a non-evaluable operator,
// which would indicate a programming error in the caller.
func NegateOp(op string) string {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	panic("ast: NegateOp of non-evaluable predicate " + op)
}

// Atom is a predicate applied to terms, e.g. boss(E, B, 'executive').
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom constructs an atom. It is a convenience for literals in tests
// and examples.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// IsEvaluable reports whether the atom's predicate is a built-in
// comparison predicate.
func (a Atom) IsEvaluable() bool { return IsEvaluablePred(a.Pred) }

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Clone returns a deep copy of the atom (its argument slice is fresh).
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Args: args}
}

// Equal reports syntactic identity.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Vars appends the variables of a to dst in order of occurrence
// (with duplicates) and returns the result.
func (a Atom) Vars(dst []Var) []Var {
	for _, t := range a.Args {
		if v, ok := t.(Var); ok {
			dst = append(dst, v)
		}
	}
	return dst
}

// VarSet returns the set of variables occurring in a.
func (a Atom) VarSet() map[Var]bool {
	set := make(map[Var]bool)
	for _, t := range a.Args {
		if v, ok := t.(Var); ok {
			set[v] = true
		}
	}
	return set
}

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if !IsGround(t) {
			return false
		}
	}
	return true
}

// String renders the atom. Evaluable binary atoms are rendered infix
// (X > 5); database atoms in the usual prefix form.
func (a Atom) String() string {
	if a.IsEvaluable() && len(a.Args) == 2 {
		return a.Args[0].String() + " " + a.Pred + " " + a.Args[1].String()
	}
	var sb strings.Builder
	sb.WriteString(QuoteName(a.Pred))
	sb.WriteByte('(')
	for i, t := range a.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Literal is an atom with an optional negation. In this system negation
// is only ever applied to evaluable atoms (the transformations of §4 add
// negated comparison subgoals); the analyzer rejects negated database
// atoms.
type Literal struct {
	Neg  bool
	Atom Atom
}

// Pos wraps an atom as a positive literal.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Neg wraps an atom as a negated literal. For evaluable binary atoms the
// negation is immediately compiled away into the complementary operator,
// keeping bodies negation-free whenever possible.
func Neg(a Atom) Literal {
	if a.IsEvaluable() && len(a.Args) == 2 {
		return Literal{Atom: Atom{Pred: NegateOp(a.Pred), Args: a.Args}}
	}
	return Literal{Neg: true, Atom: a}
}

// Clone returns a deep copy of the literal.
func (l Literal) Clone() Literal { return Literal{Neg: l.Neg, Atom: l.Atom.Clone()} }

// Equal reports syntactic identity.
func (l Literal) Equal(m Literal) bool { return l.Neg == m.Neg && l.Atom.Equal(m.Atom) }

func (l Literal) String() string {
	if l.Neg {
		return "not " + l.Atom.String()
	}
	return l.Atom.String()
}

// Body is a conjunction of literals, the body of a rule or IC.
type Body []Literal

// CloneBody deep-copies a body.
func CloneBody(b []Literal) []Literal {
	out := make([]Literal, len(b))
	for i := range b {
		out[i] = b[i].Clone()
	}
	return out
}

// BodyString renders a body as a comma-separated conjunction.
func BodyString(b []Literal) string {
	parts := make([]string, len(b))
	for i := range b {
		parts[i] = b[i].String()
	}
	return strings.Join(parts, ", ")
}

// BodyVars returns the set of variables occurring in the body.
func BodyVars(b []Literal) map[Var]bool {
	set := make(map[Var]bool)
	for _, l := range b {
		for _, t := range l.Atom.Args {
			if v, ok := t.(Var); ok {
				set[v] = true
			}
		}
	}
	return set
}

// SortedVars returns the variables of set in lexicographic order;
// useful for deterministic output.
func SortedVars(set map[Var]bool) []Var {
	vars := make([]Var, 0, len(set))
	for v := range set {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
	return vars
}

// DOTID turns s into a Graphviz identifier: every rune other than an
// ASCII letter, digit or underscore becomes an underscore.
func DOTID(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// DOTLabel escapes s for a double-quoted Graphviz label.
func DOTLabel(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
