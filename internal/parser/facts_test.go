package parser_test

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/workload"
)

// parseThenAdd is the reference for ParseInto: the whole text through
// Parse, then each fact into a fresh database with AddFact, which
// panics on a variable or an arity clash. A panic counts as an error.
func parseThenAdd(src string) (res *parser.Result, db *storage.Database, err error) {
	res, err = parser.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	db = storage.NewDatabase()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	var rules []ast.Rule
	for _, r := range res.Program.Rules {
		if r.IsFact() {
			db.AddFact(r.Head)
		} else {
			rules = append(rules, r)
		}
	}
	res.Program.Rules = rules
	return res, db, nil
}

// checkFactPath fails when ParseInto and the reference disagree on src:
// on whether it is an error, on the rules and their labels, on the
// ICs, or on any relation's rows in order. When Parse rejects the text,
// ParseInto must reject it with the same message, unless a fact it
// interned first was already wrong.
func checkFactPath(t *testing.T, src string) {
	t.Helper()
	want, wantDB, wantErr := parseThenAdd(src)
	db := storage.NewDatabase()
	got, err := parser.ParseInto(src, db)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("input %q: ParseInto error %v, Parse+AddFact error %v", src, err, wantErr)
	}
	if err != nil {
		if _, perr := parser.Parse(src); perr != nil && perr.Error() != err.Error() &&
			!strings.Contains(err.Error(), "has variables") && !strings.Contains(err.Error(), "used with arities") {
			t.Fatalf("input %q: ParseInto error %q, Parse error %q", src, err, perr)
		}
		return
	}
	if g, w := len(got.Program.Rules), len(want.Program.Rules); g != w {
		t.Fatalf("input %q: %d rules, want %d", src, g, w)
	}
	for i, r := range got.Program.Rules {
		w := want.Program.Rules[i]
		if r.Label != w.Label || !r.Equal(w) {
			t.Fatalf("input %q: rule %d is %s %s, want %s %s", src, i, r.Label, r, w.Label, w)
		}
	}
	if g, w := fmt.Sprint(got.ICs), fmt.Sprint(want.ICs); g != w {
		t.Fatalf("input %q: ICs %s, want %s", src, g, w)
	}
	if g, w := fmt.Sprint(db.Preds()), fmt.Sprint(wantDB.Preds()); g != w {
		t.Fatalf("input %q: relations %s, want %s", src, g, w)
	}
	for _, pred := range db.Preds() {
		r, w := db.Relation(pred), wantDB.Relation(pred)
		if r.Arity != w.Arity || r.Len() != w.Len() {
			t.Fatalf("input %q: %s is %d/%d rows, want %d/%d", src, pred, r.Arity, r.Len(), w.Arity, w.Len())
		}
		for i := 0; i < r.Len(); i++ {
			if !r.At(i).Equal(w.At(i)) {
				t.Fatalf("input %q: %s row %d is %s, want %s", src, pred, i, r.At(i), w.At(i))
			}
		}
	}
}

// factPathSeeds exercise what the fact path decides on its own: quoted
// and doubled-quote symbols, negative integers, comments, facts between
// rules, duplicates, facts for derived predicates, parenthesized and
// evaluable-named facts, variables and arity clashes.
var factPathSeeds = []string{
	`p('hello world', 'it''s', '', 'Upper', 'not', '''').`,
	`q(-42, 0, 7). q(-42, 0, 7). q(1, 2, 3).`,
	"% a comment\nedge(a, b). // another\nedge(b, c).\n",
	"tc(X, Y) :- edge(X, Y).\nedge(a, b).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\nedge(b, c).\ntc(c, a).\n",
	`edge(a, b), edge(b, c) -> tc(a, c). edge(a, b).`,
	`(p(a)). ((q(b, c))).`,
	`'='(a, b).`,
	`p(X).`,
	"p(a).\nq(Y) :- p(Y).\np(Z).",
	`p(a). p(a, b).`,
	`p(99999999999999999999).`,
	`p(a). q(b`,
	"p('multi\nline', a).\nr(b).",
	`p(a) . q(b) .p(c).`,
	`p(a). not q(b).`,
}

// FuzzFactPath checks that ParseInto, which interns facts straight into
// their relations, agrees with Parse followed by AddFact on every
// input. Seeds: FuzzParse's corpus, the fact path's own cases and the
// seven cold-load program texts.
func FuzzFactPath(f *testing.F) {
	for _, s := range parser.FuzzSeeds {
		f.Add(s)
	}
	for _, s := range factPathSeeds {
		f.Add(s)
	}
	for _, lt := range workload.ColdLoad(1) {
		f.Add(lt.Src)
	}
	f.Fuzz(checkFactPath)
}

// BenchmarkParseFacts parses the cold-load triangle text, 8,000 edge
// facts and one rule, into a fresh database per iteration.
func BenchmarkParseFacts(b *testing.B) {
	src := workload.ColdLoad(1)[6].Src
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := storage.NewDatabase()
		if _, err := parser.ParseInto(src, db); err != nil {
			b.Fatal(err)
		}
		if n := db.Count("edge"); n == 0 {
			b.Fatal("no edges loaded")
		}
	}
}

// TestParseIntoHoldsNoSourceText: no string ParseInto returns in a rule
// or an IC points into the source text, so a loaded program does not
// keep its (mostly fact) load text alive.
func TestParseIntoHoldsNoSourceText(t *testing.T) {
	for _, lt := range workload.ColdLoad(1) {
		src := strings.Clone(lt.Src)
		start := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		inSrc := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			return len(s) > 0 && p >= start && p < start+uintptr(len(src))
		}
		res, err := parser.ParseInto(src, storage.NewDatabase())
		if err != nil {
			t.Fatal(err)
		}
		var atoms []ast.Atom
		for _, r := range res.Program.Rules {
			atoms = append(atoms, r.Head)
			for _, l := range r.Body {
				atoms = append(atoms, l.Atom)
			}
		}
		for _, ic := range res.ICs {
			for _, l := range ic.Body {
				atoms = append(atoms, l.Atom)
			}
			if ic.Head != nil {
				atoms = append(atoms, *ic.Head)
			}
		}
		if len(atoms) == 0 {
			t.Fatalf("%s: no rule parsed", lt.Name)
		}
		for _, a := range atoms {
			strs := []string{a.Pred}
			for _, term := range a.Args {
				switch x := term.(type) {
				case ast.Var:
					strs = append(strs, string(x))
				case ast.Sym:
					strs = append(strs, string(x))
				}
			}
			for _, s := range strs {
				if inSrc(s) {
					t.Fatalf("%s: %s holds %q, a substring of the load text", lt.Name, a, s)
				}
			}
		}
	}
}
