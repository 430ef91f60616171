package storage

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ast"
)

func tup(vals ...ast.Term) Tuple { return TupleOf(vals...) }

// Key encodes a tuple as a string usable as a map key: four
// little-endian bytes per column, injective because values are. The
// package's own containers hash tuples instead; tests use Key to keep
// reference models in plain maps.
func (t Tuple) Key() string {
	b := make([]byte, 0, 4*len(t))
	for _, v := range t {
		if v == NoValue {
			panic(fmt.Sprintf("storage: incomplete tuple %v in Key", []Value(t)))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return string(b)
}

func TestTupleKeyInjective(t *testing.T) {
	// Values that would collide under naive string concatenation.
	a := tup(ast.Sym("ab"), ast.Sym("c"))
	b := tup(ast.Sym("a"), ast.Sym("bc"))
	if a.Key() == b.Key() {
		t.Error("keys must distinguish (ab,c) from (a,bc)")
	}
	c := tup(ast.Int(1))
	d := tup(ast.Sym("1"))
	if c.Key() == d.Key() {
		t.Error("keys must distinguish int 1 from sym \"1\"")
	}
}

func TestTupleKeyProperty(t *testing.T) {
	f := func(x1, x2 int64, s1, s2 string) bool {
		a := tup(ast.Int(x1), ast.Sym(s1))
		b := tup(ast.Int(x2), ast.Sym(s2))
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleKeyPanicsOnVariable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("building a tuple from a variable must panic")
		}
	}()
	_ = tup(ast.Var("X")).Key()
}

func TestRelationSetSemantics(t *testing.T) {
	r := NewRelation("p", 2)
	if !r.Insert(tup(ast.Sym("a"), ast.Int(1))) {
		t.Error("first insert must report new")
	}
	if r.Insert(tup(ast.Sym("a"), ast.Int(1))) {
		t.Error("duplicate insert must report not-new")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Contains(tup(ast.Sym("a"), ast.Int(1))) {
		t.Error("Contains must find the tuple")
	}
	if r.Contains(tup(ast.Sym("b"), ast.Int(1))) {
		t.Error("Contains must not find absent tuple")
	}
}

func TestTupleSet(t *testing.T) {
	s := NewTupleSet()
	if !s.Add(tup(ast.Sym("a"))) || s.Add(tup(ast.Sym("a"))) {
		t.Error("Add must report new exactly once")
	}
	s.Add(tup(ast.Sym("b")))
	if s.Len() != 2 || !s.Contains(tup(ast.Sym("b"))) || s.Contains(tup(ast.Sym("c"))) {
		t.Errorf("set state wrong: len=%d tuples=%v", s.Len(), s.Tuples())
	}
}

func TestRelationIndexMaintenance(t *testing.T) {
	r := NewRelation("p", 2)
	r.Insert(tup(ast.Sym("a"), ast.Int(1)))
	// Build the index, then insert more: the index must stay current.
	if got := len(r.Lookup(0, InternSym("a"))); got != 1 {
		t.Fatalf("lookup a = %d positions", got)
	}
	r.Insert(tup(ast.Sym("a"), ast.Int(2)))
	r.Insert(tup(ast.Sym("b"), ast.Int(3)))
	if got := len(r.Lookup(0, InternSym("a"))); got != 2 {
		t.Errorf("lookup a after insert = %d positions, want 2", got)
	}
	if got := len(r.Lookup(1, InternInt(3))); got != 1 {
		t.Errorf("lookup col1=3 = %d positions, want 1", got)
	}
	if got := len(r.Lookup(0, InternSym("zzz"))); got != 0 {
		t.Errorf("lookup missing = %d positions", got)
	}
	for _, pos := range r.Lookup(0, InternSym("a")) {
		if r.At(pos)[0] != InternSym("a") {
			t.Error("index points at wrong tuple")
		}
	}
}

func TestRelationArityPanics(t *testing.T) {
	r := NewRelation("p", 2)
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch must panic")
		}
	}()
	r.Insert(tup(ast.Sym("a")))
}

func TestSortedDeterministic(t *testing.T) {
	r := NewRelation("p", 1)
	r.Insert(tup(ast.Sym("b")))
	r.Insert(tup(ast.Sym("a")))
	r.Insert(tup(ast.Int(5)))
	s := r.Sorted()
	if s[0][0] != InternInt(5) || s[1][0] != InternSym("a") || s[2][0] != InternSym("b") {
		t.Errorf("Sorted = %v", s)
	}
}

func TestDatabaseBasics(t *testing.T) {
	db := NewDatabase()
	if db.Relation("p") != nil {
		t.Error("missing relation must be nil")
	}
	db.Add("p", ast.Sym("a"), ast.Int(1))
	db.Add("p", ast.Sym("a"), ast.Int(1))
	db.Add("q", ast.Sym("x"))
	if db.Count("p") != 1 || db.Count("q") != 1 || db.Count("zzz") != 0 {
		t.Errorf("counts = %d %d %d", db.Count("p"), db.Count("q"), db.Count("zzz"))
	}
	if db.TotalTuples() != 2 {
		t.Errorf("TotalTuples = %d", db.TotalTuples())
	}
	preds := db.Preds()
	if len(preds) != 2 || preds[0] != "p" || preds[1] != "q" {
		t.Errorf("Preds = %v", preds)
	}
}

func TestDatabaseAddFact(t *testing.T) {
	db := NewDatabase()
	db.AddFact(ast.NewAtom("p", ast.Sym("a")))
	if db.Count("p") != 1 {
		t.Error("AddFact must insert")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddFact of non-ground atom must panic")
		}
	}()
	db.AddFact(ast.NewAtom("p", ast.Var("X")))
}

func TestDatabaseCloneAndEqual(t *testing.T) {
	db := NewDatabase()
	db.Add("p", ast.Sym("a"))
	db.Add("q", ast.Int(1), ast.Int(2))
	c := db.Clone()
	if !db.Equal(c) || !c.Equal(db) {
		t.Error("clone must be Equal")
	}
	c.Add("p", ast.Sym("b"))
	if db.Equal(c) {
		t.Error("after divergence, Equal must fail")
	}
	// An empty relation should not break equality with a missing one.
	d := db.Clone()
	d.Ensure("empty", 1)
	if !db.Equal(d) || !d.Equal(db) {
		t.Error("empty relation must compare equal to absent relation")
	}
}

func TestDatabaseString(t *testing.T) {
	db := NewDatabase()
	db.Add("p", ast.Sym("b"))
	db.Add("p", ast.Sym("a"))
	want := "p(a).\np(b).\n"
	if got := db.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestEnsureArityClash(t *testing.T) {
	db := NewDatabase()
	db.Ensure("p", 2)
	defer func() {
		if recover() == nil {
			t.Error("arity clash must panic")
		}
	}()
	db.Ensure("p", 3)
}

func TestTupleLess(t *testing.T) {
	a := tup(ast.Int(1), ast.Sym("a"))
	b := tup(ast.Int(1), ast.Sym("b"))
	if !a.Less(b) || b.Less(a) {
		t.Error("lexicographic order broken")
	}
	short := tup(ast.Int(1))
	if !short.Less(a) {
		t.Error("prefix must order first")
	}
	if a.Less(a) {
		t.Error("irreflexive")
	}
}

// The open-addressed tuple index agrees with a reference map under a
// long random churn of inserts and swap-removals — this is the test
// that exercises backward-shift deletion, growth, and position
// renumbering together.
func TestRelationRandomChurnAgainstReferenceSet(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	r := NewRelation("e", 2)
	ref := map[[2]Value]bool{}
	dom := make([]Value, 40)
	for i := range dom {
		dom[i] = InternSym(fmt.Sprintf("churn%d", i))
	}
	randTuple := func() Tuple {
		return Tuple{dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))]}
	}
	for step := 0; step < 20000; step++ {
		tp := randTuple()
		k := [2]Value{tp[0], tp[1]}
		if rng.Intn(3) == 0 {
			if got, want := r.Remove(tp), ref[k]; got != want {
				t.Fatalf("step %d: Remove(%v) = %v, reference says %v", step, tp, got, want)
			}
			delete(ref, k)
		} else {
			if got, want := r.Insert(tp), !ref[k]; got != want {
				t.Fatalf("step %d: Insert(%v) = %v, reference says %v", step, tp, got, want)
			}
			ref[k] = true
		}
		if r.Len() != len(ref) {
			t.Fatalf("step %d: Len %d, reference %d", step, r.Len(), len(ref))
		}
	}
	for k := range ref {
		if !r.Contains(Tuple{k[0], k[1]}) {
			t.Fatalf("lost tuple %v", k)
		}
	}
	for _, tp := range r.Tuples() {
		if !ref[[2]Value{tp[0], tp[1]}] {
			t.Fatalf("phantom tuple %v", tp)
		}
	}
}

// TestBuildRelation: a relation built in bulk from a flat value array
// and a rank column answers like one built by Insert and SetRank, keeps
// the given positions, grows on later inserts, and refuses a tuple that
// occurs twice.
func TestBuildRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 6, 7, 100, 3000} {
		want := NewRelation("r", 2)
		for want.Len() < n {
			want.Insert(tup(ast.Int(rng.Int63n(int64(2*n))), ast.Sym(fmt.Sprint("s", rng.Intn(50)))))
		}
		ranks := make([]uint32, n)
		for pos := range ranks {
			ranks[pos] = uint32(rng.Intn(4))
			want.SetRank(pos, ranks[pos])
		}
		got, err := BuildRelation("r", 2, n, append([]Value(nil), want.Values()...), ranks)
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < n; pos++ {
			tu := want.At(pos)
			if p, r := got.Rank(tu); p != pos || r != ranks[pos] {
				t.Fatalf("n=%d: %v at %d rank %d, want %d rank %d", n, tu, p, r, pos, ranks[pos])
			}
		}
		extra := tup(ast.Sym("new"), ast.Sym("tuple"))
		if got.Contains(extra) || !got.Insert(extra) || !got.Contains(extra) || got.Len() != n+1 {
			t.Fatalf("n=%d: an insert after the build went wrong", n)
		}
	}

	a, b := InternSym("a"), InternSym("b")
	if _, err := BuildRelation("r", 2, 3, []Value{a, b, b, a, a, b}, nil); err == nil {
		t.Fatal("a tuple that occurs twice was accepted")
	}
	if r, err := BuildRelation("unit", 0, 1, nil, nil); err != nil || !r.Contains(Tuple{}) {
		t.Fatalf("arity 0: %v", err)
	}
	if _, err := BuildRelation("unit", 0, 2, nil, nil); err == nil {
		t.Fatal("two empty tuples were accepted")
	}
}
