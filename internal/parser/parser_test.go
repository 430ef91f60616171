package parser

import (
	"strings"
	"testing"
	"unicode"

	"repro/internal/ast"
)

func TestParsePaperExample32(t *testing.T) {
	src := `
% Example 3.2 of the paper.
eval(P, S, T) :- super(P, S, T).
eval(P, S, T) :- works_with(P, P0), eval(P0, S, T), expert(P, F), field(T, F).
works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).
`
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(res.Program.Rules))
	}
	if len(res.ICs) != 1 {
		t.Fatalf("ICs = %d, want 1", len(res.ICs))
	}
	r1 := res.Program.Rules[1]
	if r1.Head.Pred != "eval" || len(r1.Body) != 4 {
		t.Errorf("r1 = %s", r1)
	}
	ic := res.ICs[0]
	if ic.Head == nil || ic.Head.Pred != "expert" {
		t.Errorf("ic = %s", ic)
	}
	if len(ic.Body) != 2 {
		t.Errorf("ic body = %v", ic.Body)
	}
}

func TestParseFactsAndConstants(t *testing.T) {
	src := `
boss(joe, mary, 'executive').
pays(12000, g1, sue, t9).
age(bob, -3).
`
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Rules) != 3 {
		t.Fatalf("facts = %d", len(res.Program.Rules))
	}
	f0 := res.Program.Rules[0]
	if !f0.IsFact() || f0.Head.Args[2] != ast.Term(ast.Sym("executive")) {
		t.Errorf("f0 = %s", f0)
	}
	f1 := res.Program.Rules[1]
	if f1.Head.Args[0] != ast.Term(ast.Int(12000)) {
		t.Errorf("f1 = %s", f1)
	}
	f2 := res.Program.Rules[2]
	if f2.Head.Args[1] != ast.Term(ast.Int(-3)) {
		t.Errorf("f2 = %s", f2)
	}
}

func TestParseComparisons(t *testing.T) {
	r, err := ParseRule(`honors(S) :- transcript(S, M, C, G), C >= 30, G > 3, M != cs, S = X, X < 10, 5 <= X.`)
	if err != nil {
		t.Fatal(err)
	}
	ops := []string{}
	for _, l := range r.Body {
		if l.Atom.IsEvaluable() {
			ops = append(ops, l.Atom.Pred)
		}
	}
	want := []string{">=", ">", "!=", "=", "<", "<="}
	if strings.Join(ops, " ") != strings.Join(want, " ") {
		t.Errorf("ops = %v, want %v", ops, want)
	}
}

func TestParseParenthesizedComparison(t *testing.T) {
	// The paper writes pays(M,G,S,T), (M > 10000) -> doctoral(S).
	ic, err := ParseIC(`pays(M, G, S, T), (M > 10000) -> doctoral(S).`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ic.Body) != 2 || ic.Body[1].Atom.Pred != ">" {
		t.Errorf("ic = %s", ic)
	}
}

func TestParseDenial(t *testing.T) {
	ic, err := ParseIC(`Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Za1, Z, Za), par(Z2, Za2, Z1, Za1) -> .`)
	if err != nil {
		t.Fatal(err)
	}
	if ic.Head != nil {
		t.Errorf("denial must have nil head, got %s", ic.Head)
	}
	if len(ic.DatabaseAtoms()) != 3 {
		t.Errorf("database atoms = %v", ic.DatabaseAtoms())
	}
}

func TestParseNegation(t *testing.T) {
	r, err := ParseRule(`p(X) :- q(X), not X = 3.`)
	if err != nil {
		t.Fatal(err)
	}
	// not X = 3 compiles to X != 3.
	if r.Body[1].Neg || r.Body[1].Atom.Pred != "!=" {
		t.Errorf("body = %v", r.Body)
	}
	r, err = ParseRule(`p(X) :- q(X), \+ r(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Body[1].Neg || r.Body[1].Atom.Pred != "r" {
		t.Errorf("body = %v", r.Body)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`p(X) :- q(X)`,          // missing period
		`p(X :- q(X).`,          // unbalanced parens
		`p(X) :- .`,             // empty body
		`X > 3 :- q(X).`,        // evaluable head
		`p('unterminated.`,      // unterminated quote
		`p(X) :- not not q(X).`, // double negation
		`p(X) q(X).`,            // missing connective
		`p(X) :- q(X), X ! 3.`,  // bad operator
		``,                      // empty ParseRule input (checked below)
	}
	for _, src := range cases[:len(cases)-1] {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
	if _, err := ParseRule(""); err == nil {
		t.Error("ParseRule of empty input must fail")
	}
}

func TestParseAtom(t *testing.T) {
	a, err := ParseAtom("boss(E, B, 'executive')")
	if err != nil {
		t.Fatal(err)
	}
	if a.Pred != "boss" || a.Arity() != 3 {
		t.Errorf("atom = %s", a)
	}
	if _, err := ParseAtom("boss(E,"); err == nil {
		t.Error("truncated atom must fail")
	}
	if _, err := ParseAtom("not p(X)"); err == nil {
		t.Error("negated atom must fail in ParseAtom")
	}
}

func TestRoundTrip(t *testing.T) {
	// Print then reparse: the ASTs must match.
	srcs := []string{
		`eval(P, S, T) :- works_with(P, P0), eval(P0, S, T), expert(P, F), field(T, F).`,
		`anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).`,
		`triple(E1, E2, E3) :- boss(U, E3, R), experienced(U), triple(U, E1, E2).`,
		`honors(S) :- transcript(S, M, C, G), C >= 30, G >= 3.`,
		`p(a, 42).`,
	}
	for _, src := range srcs {
		r1, err := ParseRule(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		r2, err := ParseRule(r1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", r1.String(), err)
		}
		if !r1.Equal(r2) {
			t.Errorf("round trip mismatch:\n%s\n%s", r1, r2)
		}
	}
}

func TestICRoundTrip(t *testing.T) {
	srcs := []string{
		`works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).`,
		`boss(E, B, R), R = executive -> experienced(B).`,
		`pays(M, G, S, T), M > 10000 -> doctoral(S).`,
		`Ya <= 50, par(Z, Za, Y, Ya) -> .`,
	}
	for _, src := range srcs {
		ic1, err := ParseIC(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		ic2, err := ParseIC(ic1.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", ic1.String(), err)
		}
		if ic1.String() != ic2.String() {
			t.Errorf("round trip mismatch: %s vs %s", ic1, ic2)
		}
	}
}

func TestParseProgramRejectsICs(t *testing.T) {
	if _, err := ParseProgram(`a(X) -> b(X).`); err == nil {
		t.Error("ParseProgram must reject ICs")
	}
}

func TestLabelsAssigned(t *testing.T) {
	res, err := Parse(`p(X) :- q(X). p(X) :- r(X).`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.Rules[0].Label != "r0" || res.Program.Rules[1].Label != "r1" {
		t.Errorf("labels = %q %q", res.Program.Rules[0].Label, res.Program.Rules[1].Label)
	}
}

func TestCommentStyles(t *testing.T) {
	src := "% prolog comment\n// go comment\np(a). % trailing\n"
	res, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Rules) != 1 {
		t.Errorf("rules = %d", len(res.Program.Rules))
	}
}

// TestByteClasses: the lexer's fast byte tests answer what the unicode
// package answers for the Latin-1 rune of the same number.
func TestByteClasses(t *testing.T) {
	for i := 0; i < 256; i++ {
		c := byte(i)
		if isDigit(c) != unicode.IsDigit(rune(c)) || inIdent(c) != isIdentPart(c) {
			t.Fatalf("byte %#x: isDigit %v inIdent %v", c, isDigit(c), inIdent(c))
		}
	}
}
