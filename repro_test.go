package repro

import (
	"strings"
	"testing"
)

const ancestorSrc = `
anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).
par(ann, bea).
par(bea, cal).
par(cal, dee).
`

func TestLoadAndQuery(t *testing.T) {
	sys, err := Load(ancestorSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Facts moved into the database.
	if sys.DB.Count("par") != 3 {
		t.Fatalf("par = %d", sys.DB.Count("par"))
	}
	for _, r := range sys.Program.Rules {
		if r.IsFact() {
			t.Errorf("fact left in program: %s", r)
		}
	}
	res, err := sys.Query("anc(ann, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("answers = %v", res)
	}
	if sys.Stats().Inserted == 0 {
		t.Error("stats not recorded")
	}
}

func TestTermConstructors(t *testing.T) {
	if V("X").String() != "X" || S("a").String() != "a" || I(5).String() != "5" {
		t.Error("constructors broken")
	}
}

func TestOptimizeFacade(t *testing.T) {
	sys, err := Load(`
anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
Ya <= 50, par(Z, Za, Y, Ya), par(Z1, Za1, Z, Za), par(Z2, Za2, Z1, Za1) -> .
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.ICs) != 1 {
		t.Fatalf("ICs = %d", len(sys.ICs))
	}
	res, err := sys.Optimize(OptimizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Opportunities) == 0 {
		t.Fatalf("no opportunities: %v", res.Notes)
	}
	if sys.ActiveProgram() == sys.Program {
		t.Error("ActiveProgram must switch to the optimized program")
	}
	// Old and new agree on a consistent database.
	sys.DB.Add("par", S("kid"), I(20), S("dad"), I(55))
	sys.DB.Add("par", S("dad"), I(55), S("gran"), I(80))
	answers, err := sys.Query("anc(kid, A, gran, B)")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 {
		t.Errorf("answers = %v", answers)
	}
}

func TestQueryMagic(t *testing.T) {
	sys, err := Load(ancestorSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := sys.QueryMagic("anc(ann, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Errorf("answers = %v", res)
	}
	if stats.Inserted == 0 {
		t.Error("no work recorded")
	}
	// The system's own database must not have been polluted by the
	// magic run.
	if sys.DB.Count("anc") != 0 {
		t.Errorf("magic run leaked %d anc tuples into the system DB", sys.DB.Count("anc"))
	}
}

func TestDescribeFacade(t *testing.T) {
	sys, err := Load(`
honors(Stud) :- transcript(Stud, Major, Cred, Gpa), Cred >= 30, Gpa >= 4.
honors(Stud) :- graduated(Stud, College), topten(College).
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Describe("honors(Stud)",
		"major(Stud, cs), graduated(Stud, College), topten(College)", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trees) != 2 {
		t.Fatalf("trees = %d", len(a.Trees))
	}
	if !strings.Contains(a.String(), "every object satisfying the context") {
		t.Errorf("answer = %q", a.String())
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := Load(`p(X :-`); err == nil {
		t.Error("bad source must fail")
	}
	sys, _ := Load(ancestorSrc)
	if _, err := sys.Query("anc(X,"); err == nil {
		t.Error("bad goal must fail")
	}
	if _, _, err := sys.QueryMagic("anc(X,"); err == nil {
		t.Error("bad magic goal must fail")
	}
	if _, err := sys.Describe("anc(X, Y)", "p(X,", 3); err == nil {
		t.Error("bad context must fail")
	}
	if _, err := sys.Describe("anc(X,", "par(X, Y)", 3); err == nil {
		t.Error("bad describe goal must fail")
	}
}

func TestParseHelpers(t *testing.T) {
	if _, err := ParseProgram(`p(X) :- q(X).`); err != nil {
		t.Error(err)
	}
	if _, err := ParseIC(`a(X) -> b(X).`); err != nil {
		t.Error(err)
	}
	if _, err := ParseAtom(`p(X, 3)`); err != nil {
		t.Error(err)
	}
}

func TestExplainFacade(t *testing.T) {
	sys, err := Load(ancestorSrc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sys.Explain("anc(ann, dee)")
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() < 3 {
		t.Errorf("derivation too small:\n%s", d)
	}
	if !strings.Contains(d.String(), "[fact]") {
		t.Errorf("derivation = %s", d)
	}
	if _, err := sys.Explain("anc(dee, ann)"); err == nil {
		t.Error("underivable goal must fail")
	}
	if _, err := sys.Explain("anc(X, Y)"); err == nil {
		t.Error("non-ground goal must fail")
	}
	if _, err := sys.Explain("anc(X,"); err == nil {
		t.Error("unparseable goal must fail")
	}
}

func TestLoadFactsAndDumpRoundTrip(t *testing.T) {
	sys, err := Load(`anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadFacts("par(a, b).\npar(b, c).\n"); err != nil {
		t.Fatal(err)
	}
	if sys.DB.Count("par") != 2 {
		t.Fatalf("par = %d", sys.DB.Count("par"))
	}
	dump := sys.DumpDB()
	// A fresh system loads the dump and agrees.
	sys2, err := Load(`anc(X, Y) :- par(X, Y).
anc(X, Y) :- anc(X, Z), par(Z, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.LoadFacts(dump); err != nil {
		t.Fatalf("dump did not round trip: %v\n%s", err, dump)
	}
	if !sys.DB.Equal(sys2.DB) {
		t.Error("databases differ after round trip")
	}
	// Errors: rules and ICs are rejected.
	if err := sys.LoadFacts("p(X) :- q(X)."); err == nil {
		t.Error("rules must be rejected")
	}
	if err := sys.LoadFacts("a(X) -> b(X)."); err == nil {
		t.Error("ICs must be rejected")
	}
	if err := sys.LoadFacts("p(X"); err == nil {
		t.Error("bad syntax must be rejected")
	}
}

// TestLoadRefusesFactWithVariables: Load and LoadFacts refuse a fact
// with a variable with a positioned error instead of panicking in
// storage.
func TestLoadRefusesFactWithVariables(t *testing.T) {
	if _, err := Load("p(X).\nq(Y) :- p(Y).\n"); err == nil || !strings.Contains(err.Error(), "1:1: fact p(X) has variables") {
		t.Fatalf("Load = %v, want the fact refused at 1:1", err)
	}
	sys, err := Load("q(Y) :- p(Y).\np(a).")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadFacts("p(b).\n p(Y)."); err == nil || !strings.Contains(err.Error(), "2:2: fact p(Y) has variables") {
		t.Fatalf("LoadFacts = %v, want the fact refused at 2:2", err)
	}
}

func TestDescribeGroundedFacade(t *testing.T) {
	sys, err := Load(`
honors(Stud) :- transcript(Stud, Major, Cred, Gpa), Cred >= 30, Gpa >= 4.
honors(Stud) :- graduated(Stud, College), topten(College).
transcript(ann, cs, 36, 4).
graduated(dee, mit).
topten(mit).
`)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sys.DescribeGrounded("honors(Stud)",
		"graduated(Stud, College), topten(College)", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.ContextMatches) != 1 {
		t.Fatalf("context matches = %v", ev.ContextMatches)
	}
	if !strings.Contains(ev.String(), "(dee)") {
		t.Errorf("rendering = %q", ev.String())
	}
	if _, err := sys.DescribeGrounded("honors(X", "p(X)", 3); err == nil {
		t.Error("bad goal must fail")
	}
}
