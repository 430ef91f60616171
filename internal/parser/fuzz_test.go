package parser

import (
	"testing"

	"repro/internal/ast"
)

// TestQuotedSymbolRoundTrip pins the cases FuzzParse found: symbols
// (and predicate names) that do not lex as plain identifiers must be
// printed quoted, with embedded quotes doubled, or the printed program
// is not parseable.
func TestQuotedSymbolRoundTrip(t *testing.T) {
	src := `p('hello world', '', 'it''s', 'Upper', 'not', ok).
'odd pred'(a).`
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Program.String()
	res2, err := Parse(first)
	if err != nil {
		t.Fatalf("printed program does not reparse: %v\n%s", err, first)
	}
	if second := res2.Program.String(); first != second {
		t.Fatalf("round-trip not a fixpoint:\n%s\nvs\n%s", first, second)
	}
	want := ast.NewAtom("p",
		ast.Sym("hello world"), ast.Sym(""), ast.Sym("it's"),
		ast.Sym("Upper"), ast.Sym("not"), ast.Sym("ok"))
	if got := res.Program.Rules[0].Head; !got.Equal(want) {
		t.Fatalf("parsed %s, want %s", got, want)
	}
}

// FuzzSeeds is the seed corpus of FuzzParse, shared with the fact
// path's differential fuzz target. It covers every construct the
// language has: rules, facts, integrity constraints (with and without
// heads), negation, evaluable comparisons, integers, quoted and
// unquoted symbols.
var FuzzSeeds = []string{
	// The paper's examples, as used by the workload scenarios.
	`triple(E1, E2, E3) :- same_level(E1, E2, E3).
triple(E1, E2, E3) :- boss(U, E3, R), experienced(U), triple(U, E1, E2).
boss(E, B, R), R = executive -> experienced(B).`,
	`anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Za1, Z, Za), par(Z2, Za2, Z1, Za1) -> .`,
	`tc(X, Y) :- edge(X, Y).
tc(X, Y) :- tc(X, Z), edge(Z, Y).
edge(a, b). edge(b, c).`,
	// examples/iqa: evaluable comparisons over integer columns.
	`honors(Stud) :- transcript(Stud, Major, Cred, Gpa), Cred >= 30, Gpa >= 4.
honors(Stud) :- transcript(Stud, Major, Cred, Gpa), Gpa >= 4, exceptional(Stud).
exceptional(Stud) :- publication(Stud, P), appears(P, Jl), reputed(Jl).
transcript(ann, cs, 36, 4).
graduated(dee, mit).`,
	// examples/provenance: comments, Prolog-style negation, facts.
	`% childless(P) uses stratified negation over the computed genealogy.
person(X) :- par(X, Xa, Y, Ya).
has_child(Y) :- par(X, Xa, Y, Ya).
childless(P) :- person(P), \+ has_child(P).
par(dan, 21, carla, 47).`,
	// Negation, comparisons, integers, headless ICs.
	`isolated(X) :- node(X), not tc(X, X).`,
	`p(X, Y) :- q(X), X < Y, Y != 10, X >= -3.`,
	`ic() -> .`,
	`q(0). q(-42). q(1000000).`,
	`same(X, X) :- thing(X).`,
	// Quoting, whitespace, odd-but-legal shapes.
	`p('hello world', 'it''s').`,
	"p(a) :- q(a).\n\n\n   r(b)  :-  s(b) .",
	`p(A_long_Variable99, atom_with_underscores).`,
	// Near-miss malformed inputs to steer mutation.
	`p(X :- q(X).`,
	`p(X) :- .`,
	`-> q(a).`,
	`p(X) q(Y).`,
	`p(`,
	`'unterminated`,
	``,
}

// FuzzParse throws arbitrary inputs at the full parser. Two
// properties: the parser never panics, and anything it accepts
// round-trips — the printed form of a parsed program parses again to
// the same printed form (the printer and parser agree on the
// language).
func FuzzParse(f *testing.F) {
	for _, seed := range FuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Parse(src)
		if err != nil {
			return // rejected cleanly: fine
		}
		// Round-trip: print and reparse.
		printed := res.Program.String()
		for _, ic := range res.ICs {
			printed += ic.String() + "\n"
		}
		res2, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted input printed as unparseable text\ninput: %q\nprinted: %q\nerr: %v", src, printed, err)
		}
		printed2 := res2.Program.String()
		for _, ic := range res2.ICs {
			printed2 += ic.String() + "\n"
		}
		if printed != printed2 {
			t.Fatalf("round-trip is not a fixpoint\ninput: %q\nfirst: %q\nsecond: %q", src, printed, printed2)
		}
	})
}
