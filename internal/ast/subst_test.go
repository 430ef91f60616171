package ast

import "testing"

func TestSubstApply(t *testing.T) {
	s := Subst{"X": Sym("a"), "Y": Var("Z"), "Z": Int(3)}
	if got := s.Lookup(Var("X")); got != Term(Sym("a")) {
		t.Errorf("Lookup X = %v", got)
	}
	// Chains resolve fully: Y -> Z -> 3.
	if got := s.Lookup(Var("Y")); got != Term(Int(3)) {
		t.Errorf("Lookup Y = %v, want 3", got)
	}
	if got := s.Lookup(Var("W")); got != Term(Var("W")) {
		t.Errorf("unbound var must map to itself, got %v", got)
	}
	a := s.ApplyAtom(NewAtom("p", Var("X"), Var("W"), Sym("k")))
	want := NewAtom("p", Sym("a"), Var("W"), Sym("k"))
	if !a.Equal(want) {
		t.Errorf("ApplyAtom = %s, want %s", a, want)
	}
}

func TestSubstCompose(t *testing.T) {
	// s∘t applies t then s.
	s := Subst{"Y": Sym("b")}
	u := Subst{"X": Var("Y")}
	c := s.Compose(u)
	if got := c.Lookup(Var("X")); got != Term(Sym("b")) {
		t.Errorf("compose: X resolves to %v, want b", got)
	}
	if got := c.Lookup(Var("Y")); got != Term(Sym("b")) {
		t.Errorf("compose: Y resolves to %v, want b", got)
	}
}

func TestSubstString(t *testing.T) {
	s := Subst{"B": Sym("b"), "A": Sym("a")}
	if got := s.String(); got != "{A -> a, B -> b}" {
		t.Errorf("String = %q (must be sorted)", got)
	}
}

func TestUnifyAtoms(t *testing.T) {
	s := NewSubst()
	if !UnifyAtoms(s, NewAtom("p", Var("X"), Var("Y")), NewAtom("p", Sym("a"), Var("X"))) {
		t.Fatal("unification should succeed")
	}
	// X=a, then Y unifies with X which resolves to a.
	if s.Lookup(Var("Y")) != Term(Sym("a")) {
		t.Errorf("Y = %v, want a", s.Lookup(Var("Y")))
	}
}

func TestUnifyFailures(t *testing.T) {
	s := NewSubst()
	if UnifyAtoms(s, NewAtom("p", Sym("a")), NewAtom("p", Sym("b"))) {
		t.Error("distinct constants must not unify")
	}
	s = NewSubst()
	if UnifyAtoms(s, NewAtom("p", Var("X")), NewAtom("q", Var("X"))) {
		t.Error("distinct predicates must not unify")
	}
	s = NewSubst()
	if UnifyAtoms(s, NewAtom("p", Var("X")), NewAtom("p", Var("X"), Var("Y"))) {
		t.Error("distinct arities must not unify")
	}
	// Same var bound inconsistently.
	s = NewSubst()
	if UnifyAtoms(s, NewAtom("p", Var("X"), Var("X")), NewAtom("p", Sym("a"), Sym("b"))) {
		t.Error("X cannot be both a and b")
	}
}

func TestMatchAtomIsOneWay(t *testing.T) {
	// Matching binds pattern variables only.
	s := NewSubst()
	if !MatchAtom(s, NewAtom("p", Var("X"), Sym("c")), NewAtom("p", Sym("a"), Sym("c"))) {
		t.Fatal("match should succeed")
	}
	if s.Lookup(Var("X")) != Term(Sym("a")) {
		t.Errorf("X = %v", s.Lookup(Var("X")))
	}
	// The subject side may contain variables; the pattern must not bind
	// them.
	s = NewSubst()
	if MatchAtom(s, NewAtom("p", Sym("a")), NewAtom("p", Var("Y"))) {
		t.Error("matching must not bind subject variables")
	}
	// Repeated pattern variable must map to identical subject terms.
	s = NewSubst()
	if MatchAtom(s, NewAtom("p", Var("X"), Var("X")), NewAtom("p", Sym("a"), Sym("b"))) {
		t.Error("repeated pattern var cannot match two constants")
	}
	s = NewSubst()
	if !MatchAtom(s, NewAtom("p", Var("X"), Var("X")), NewAtom("p", Var("Z"), Var("Z"))) {
		t.Error("repeated var onto repeated var should match")
	}
}

// TestLookupTerminatesOnCycle: matching p(X, Y, Z) against the
// non-ground p(Y, X, a) binds the two-variable cycle X -> Y, Y -> X
// (the subject reuses the pattern's names). Lookup used to follow it
// forever; a cyclic term now resolves to itself, acyclic bindings in
// the same substitution still resolve, and application is idempotent.
func TestLookupTerminatesOnCycle(t *testing.T) {
	pattern := NewAtom("p", Var("X"), Var("Y"), Var("Z"))
	s := NewSubst()
	if !MatchAtom(s, pattern, NewAtom("p", Var("Y"), Var("X"), Sym("a"))) {
		t.Fatal("match should succeed")
	}
	for _, v := range []Var{"X", "Y"} {
		if got := s.Lookup(v); got != Term(v) {
			t.Errorf("Lookup(%s) = %v, want the variable itself", v, got)
		}
	}
	if got := s.Lookup(Var("Z")); got != Term(Sym("a")) {
		t.Errorf("Lookup(Z) = %v, want a", got)
	}
	once := s.ApplyAtom(pattern)
	if twice := s.ApplyAtom(once); !twice.Equal(once) {
		t.Errorf("application not idempotent: %s then %s", once, twice)
	}
}

func TestApplyRule(t *testing.T) {
	r := NewRule("r", NewAtom("p", Var("X")), NewAtom("q", Var("X"), Var("Y")))
	s := Subst{"X": Sym("a")}
	got := s.ApplyRule(r)
	if got.Head.Args[0] != Term(Sym("a")) || got.Body[0].Atom.Args[0] != Term(Sym("a")) {
		t.Errorf("ApplyRule = %s", got)
	}
	if got.Label != "r" {
		t.Error("label must be preserved")
	}
}
