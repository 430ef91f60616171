// Package eval implements the bottom-up evaluation engine: naive and
// semi-naive fixpoint computation over linear (and more generally
// non-mutually-recursive) Datalog programs, with an index-backed
// left-deep join evaluator and support for evaluable comparison
// subgoals, including the negated comparisons introduced by the
// semantic transformations of §4 of the paper.
package eval

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/storage"
)

// Compare evaluates the built-in comparison op over two ground terms.
// Integers compare numerically, symbols lexicographically; terms of
// different kinds are ordered by ast.CompareTerms (Int < Sym), so every
// comparison is total and deterministic. Equality across kinds is
// always false.
func Compare(op string, a, b ast.Term) (bool, error) {
	if !ast.IsGround(a) || !ast.IsGround(b) {
		return false, fmt.Errorf("eval: comparison %s %s %s has unbound arguments", a, op, b)
	}
	c := ast.CompareTerms(a, b)
	switch op {
	case ast.OpEq:
		return c == 0, nil
	case ast.OpNe:
		return c != 0, nil
	case ast.OpLt:
		return c < 0, nil
	case ast.OpLe:
		return c <= 0, nil
	case ast.OpGt:
		return c > 0, nil
	case ast.OpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("eval: unknown comparison operator %q", op)
}

// CompareValues is Compare over interned values — the engine's hot
// path. Equality and inequality never resolve terms (interning makes
// them word compares); the ordered operators compare the underlying
// terms so the order matches Compare exactly.
func CompareValues(op string, a, b storage.Value) (bool, error) {
	if a == storage.NoValue || b == storage.NoValue {
		return false, fmt.Errorf("eval: comparison %s has unbound arguments", op)
	}
	switch op {
	case ast.OpEq:
		return a == b, nil
	case ast.OpNe:
		return a != b, nil
	}
	c := storage.CompareValues(a, b)
	switch op {
	case ast.OpLt:
		return c < 0, nil
	case ast.OpLe:
		return c <= 0, nil
	case ast.OpGt:
		return c > 0, nil
	case ast.OpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("eval: unknown comparison operator %q", op)
}
