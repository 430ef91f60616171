// Package testutil provides shared test infrastructure: random
// database generation, repair of a database to satisfy integrity
// constraints, and semantic-equivalence checking of two programs over a
// set of databases. Equivalence over IC-satisfying databases is the
// paper's correctness notion for the §4 transformations (Theorem 4.1
// and the residue pushes), so these helpers are the backbone of the
// property tests.
package testutil

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/storage"
)

// RandDB builds a random database: for each predicate name with the
// given arity, tuples drawn uniformly from a domain of `domain`
// symbolic constants c0..c{domain-1} mixed with small integers.
func RandDB(rng *rand.Rand, arities map[string]int, domain, tuplesPerPred int) *storage.Database {
	db := storage.NewDatabase()
	for pred, ar := range arities {
		for i := 0; i < tuplesPerPred; i++ {
			t := make([]ast.Term, ar)
			for j := range t {
				if rng.Intn(4) == 0 {
					t[j] = ast.Int(rng.Intn(domain))
				} else {
					t[j] = ast.Sym(fmt.Sprintf("c%d", rng.Intn(domain)))
				}
			}
			db.Add(pred, t...)
		}
	}
	return db
}

// Repair mutates db until it satisfies every constraint, or gives up
// after maxRounds. Constraints with a database head are repaired by
// inserting the implied fact (existential positions take a fresh
// constant); denial constraints and constraints with an evaluable head
// are repaired by deleting one tuple of the violating instantiation.
// It reports whether the database satisfies the constraints on return.
func Repair(db *storage.Database, ics []ast.IC, maxRounds int) bool {
	if maxRounds <= 0 {
		maxRounds = 100
	}
	fresh := 0
	for round := 0; round < maxRounds; round++ {
		viol := findViolation(db, ics)
		if viol == nil {
			return true
		}
		ic, env := viol.ic, viol.env
		if ic.Head != nil && !ic.Head.IsEvaluable() {
			inst := env.ApplyAtom(*ic.Head)
			for i, a := range inst.Args {
				if !ast.IsGround(a) {
					inst.Args[i] = ast.Sym(fmt.Sprintf("fresh%d", fresh))
					fresh++
				}
			}
			db.AddFact(inst)
			continue
		}
		// Denial or evaluable head: rebuild the first body relation
		// without the offending tuple.
		removed := false
		for _, l := range ic.Body {
			if l.Neg || l.Atom.IsEvaluable() {
				continue
			}
			inst := env.ApplyAtom(l.Atom)
			rel := db.Relation(inst.Pred)
			if rel == nil {
				continue
			}
			if removeTuple(db, inst) {
				removed = true
				break
			}
		}
		if !removed {
			return false
		}
	}
	return findViolation(db, ics) == nil
}

// Satisfies reports whether db satisfies every constraint.
func Satisfies(db *storage.Database, ics []ast.IC) bool {
	return findViolation(db, ics) == nil
}

type violation struct {
	ic  ast.IC
	env ast.Subst
}

// findViolation locates one constraint instantiation whose body holds
// but whose head fails. Body literals are reordered database-atoms-
// first so that comparisons are evaluated only once their variables are
// bound (the paper's ICs may list conditions first, as Example 4.3
// does).
func findViolation(db *storage.Database, ics []ast.IC) *violation {
	for _, ic := range ics {
		var ordered []ast.Literal
		for _, l := range ic.Body {
			if !l.Atom.IsEvaluable() {
				ordered = append(ordered, l)
			}
		}
		for _, l := range ic.Body {
			if l.Atom.IsEvaluable() {
				ordered = append(ordered, l)
			}
		}
		env := ast.NewSubst()
		if v := matchBody(db, ic, ordered, env); v != nil {
			return v
		}
	}
	return nil
}

func matchBody(db *storage.Database, ic ast.IC, body []ast.Literal, env ast.Subst) *violation {
	if len(body) == 0 {
		// Body satisfied: check the head.
		if ic.Head == nil {
			return &violation{ic: ic, env: env.Clone()}
		}
		inst := env.ApplyAtom(*ic.Head)
		if inst.IsEvaluable() {
			if inst.IsGround() {
				ok, err := eval.Compare(inst.Pred, inst.Args[0], inst.Args[1])
				if err == nil && ok {
					return nil
				}
			}
			return &violation{ic: ic, env: env.Clone()}
		}
		rel := db.Relation(inst.Pred)
		if rel == nil {
			return &violation{ic: ic, env: env.Clone()}
		}
		// Existential head variables: satisfied if any tuple matches.
		for pos := 0; pos < rel.Len(); pos++ {
			t := rel.At(pos)
			probe := env.Clone()
			if ast.MatchAtom(probe, inst, ast.Atom{Pred: inst.Pred, Args: t.Terms()}) {
				return nil
			}
		}
		return &violation{ic: ic, env: env.Clone()}
	}
	l := body[0]
	if l.Atom.IsEvaluable() {
		inst := env.ApplyAtom(l.Atom)
		if !inst.IsGround() {
			return nil // unbound comparison: treat as unsatisfied body
		}
		ok, err := eval.Compare(inst.Pred, inst.Args[0], inst.Args[1])
		if err != nil || ok == l.Neg {
			return nil
		}
		return matchBody(db, ic, body[1:], env)
	}
	rel := db.Relation(l.Atom.Pred)
	if rel == nil {
		return nil
	}
	pattern := env.ApplyAtom(l.Atom)
	for pos := 0; pos < rel.Len(); pos++ {
		t := rel.At(pos)
		probe := env.Clone()
		if ast.MatchAtom(probe, pattern, ast.Atom{Pred: l.Atom.Pred, Args: t.Terms()}) {
			if v := matchBody(db, ic, body[1:], probe); v != nil {
				return v
			}
		}
	}
	return nil
}

// removeTuple rebuilds pred's relation without the given ground tuple;
// it reports whether the tuple was present.
func removeTuple(db *storage.Database, inst ast.Atom) bool {
	rel := db.Relation(inst.Pred)
	if rel == nil || !inst.IsGround() {
		return false
	}
	victim, ok := storage.LookupTuple(inst.Args)
	if !ok || !rel.Contains(victim) {
		return false
	}
	fresh := storage.NewRelation(inst.Pred, rel.Arity)
	for pos := 0; pos < rel.Len(); pos++ {
		t := rel.At(pos)
		if !t.Equal(victim) {
			fresh.Insert(t)
		}
	}
	db.Replace(fresh)
	return true
}

// RunProgram evaluates prog over a clone of db and returns the
// resulting database.
func RunProgram(prog *ast.Program, db *storage.Database) (*storage.Database, eval.Stats, error) {
	work := db.Clone()
	e := eval.New(prog, work)
	err := e.Run()
	return work, e.Stats(), err
}

// SamePredicate reports whether two databases agree on one predicate.
func SamePredicate(a, b *storage.Database, pred string) bool {
	ra, rb := a.Relation(pred), b.Relation(pred)
	la, lb := 0, 0
	if ra != nil {
		la = ra.Len()
	}
	if rb != nil {
		lb = rb.Len()
	}
	if la != lb {
		return false
	}
	if ra == nil {
		return true
	}
	for pos := 0; pos < ra.Len(); pos++ {
		t := ra.At(pos)
		if !rb.Contains(t) {
			return false
		}
	}
	return true
}

// Diff returns a short description of where two databases disagree on a
// predicate, for test failure messages.
func Diff(a, b *storage.Database, pred string) string {
	ra, rb := a.Relation(pred), b.Relation(pred)
	var onlyA, onlyB []string
	if ra != nil {
		for pos := 0; pos < ra.Len(); pos++ {
			t := ra.At(pos)
			if rb == nil || !rb.Contains(t) {
				onlyA = append(onlyA, t.String())
			}
		}
	}
	if rb != nil {
		for pos := 0; pos < rb.Len(); pos++ {
			t := rb.At(pos)
			if ra == nil || !ra.Contains(t) {
				onlyB = append(onlyB, t.String())
			}
		}
	}
	return fmt.Sprintf("only in A: %v; only in B: %v", onlyA, onlyB)
}
