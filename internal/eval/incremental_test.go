package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

// multiStratumSrc exercises cross-component propagation: tc is
// recursive over edge, reach and pair sit in strata above it.
const multiStratumSrc = `
	tc(X, Y) :- edge(X, Y).
	tc(X, Y) :- tc(X, Z), edge(Z, Y).
	reach(X) :- tc(root, X).
	pair(X, Y) :- reach(X), reach(Y), edge(X, Y).
`

func mustProg(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	prog.EnsureLabels()
	return prog
}

func edgeTuple(a, b int) storage.Tuple {
	return storage.TupleOf(ast.Sym(fmt.Sprintf("n%d", a)), ast.Sym(fmt.Sprintf("n%d", b)))
}

// fromScratch evaluates prog over a fresh database holding exactly the
// given EDB tuples.
func fromScratch(t *testing.T, prog *ast.Program, edb map[string][]storage.Tuple) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	for p, ts := range edb {
		for _, tu := range ts {
			db.Ensure(p, len(tu)).Insert(tu)
		}
	}
	if err := New(prog, db).Run(); err != nil {
		t.Fatal(err)
	}
	return db
}

// runRanked evaluates prog over db from scratch and returns the rank
// state the run recorded — the starting point of every Z-set
// maintenance sequence.
func runRanked(t *testing.T, prog *ast.Program, db *storage.Database) *ZState {
	t.Helper()
	zs := NewZState()
	e := New(prog, db)
	e.SetRankSink(zs.Record)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return zs
}

// checkReportedDelta verifies that the IDB delta a maintenance call
// reported is exactly the difference between the two database states,
// ignoring the extensional predicates named in edb (their transitions
// are the input, not the output).
func checkReportedDelta(t *testing.T, before, after *storage.Database, out map[string]*storage.ZSet, edb map[string]bool) {
	t.Helper()
	// Every reported entry must be a real transition.
	for p, z := range out {
		z.Each(func(tu storage.Tuple, w int64) {
			was := before.Relation(p) != nil && before.Relation(p).Contains(tu)
			is := after.Relation(p) != nil && after.Relation(p).Contains(tu)
			switch {
			case w == 1 && (was || !is):
				t.Errorf("delta reports +%s(%s) but was=%v is=%v", p, tu, was, is)
			case w == -1 && (!was || is):
				t.Errorf("delta reports -%s(%s) but was=%v is=%v", p, tu, was, is)
			case w != 1 && w != -1:
				t.Errorf("delta for %s(%s) has weight %d, want ±1", p, tu, w)
			}
		})
	}
	// Every real transition must be reported.
	diff := func(a, b *storage.Database, want int64) {
		for _, p := range a.Preds() {
			if edb[p] {
				continue
			}
			ra := a.Relation(p)
			rb := b.Relation(p)
			for _, tu := range ra.Tuples() {
				if rb != nil && rb.Contains(tu) {
					continue
				}
				if out[p] == nil || out[p].Weight(tu) != want {
					t.Errorf("transition %s(%s) (want weight %d) not reported", p, tu, want)
				}
			}
		}
	}
	diff(after, before, 1)
	diff(before, after, -1)
}

// TestIncrementalDifferential drives a random interleaving of single
// inserts and deletes through ApplyZSetContext and checks, after every
// operation, that the maintained database is tuple-for-tuple identical
// to a from-scratch evaluation over the same final EDB, and that the
// reported IDB delta is exact.
func TestIncrementalDifferential(t *testing.T) {
	prog := mustProg(t, multiStratumSrc)
	rng := rand.New(rand.NewSource(42))
	const nodes = 12

	// Maintained state.
	edge := map[string]bool{} // live EDB edges by key
	var live []storage.Tuple
	key := func(tu storage.Tuple) string { return tu.String() }

	db := storage.NewDatabase()
	db.Ensure("edge", 2)
	root := storage.TupleOf(ast.Sym("root"), ast.Sym("n0"))
	db.Relation("edge").Insert(root)
	edge[key(root)] = true
	live = append(live, root)
	zs := runRanked(t, prog, db)

	for step := 0; step < 60; step++ {
		tu := edgeTuple(rng.Intn(nodes), rng.Intn(nodes))
		var change *storage.ZSet
		if rng.Intn(3) > 0 || len(live) == 1 { // bias toward inserts so the graph grows
			if edge[key(tu)] {
				continue
			}
			edge[key(tu)] = true
			live = append(live, tu)
			change = storage.ZSetOfChanges([]storage.Tuple{tu}, nil)
		} else {
			pick := rng.Intn(len(live))
			tu = live[pick]
			live = append(live[:pick], live[pick+1:]...)
			delete(edge, key(tu))
			change = storage.ZSetOfChanges(nil, []storage.Tuple{tu})
		}
		before := db.Snapshot()
		out, err := New(prog, db).ApplyZSetContext(context.Background(), zs, map[string]*storage.ZSet{"edge": change})
		if err != nil {
			t.Fatalf("step %d: ApplyZSetContext: %v", step, err)
		}
		checkReportedDelta(t, before, db, out, map[string]bool{"edge": true})

		want := fromScratch(t, prog, map[string][]storage.Tuple{"edge": live})
		if !db.Equal(want) {
			t.Fatalf("step %d: incremental state diverged from from-scratch\nincremental:\n%s\nfrom-scratch:\n%s",
				step, db, want)
		}
	}
}

// TestInsertMaintenanceDoesLessWork asserts the acceptance criterion:
// on a transitive-closure workload, maintaining one new edge through
// the Z-set path scans and derives far less than a cold fixpoint over
// the same post-insert EDB.
func TestInsertMaintenanceDoesLessWork(t *testing.T) {
	prog := mustProg(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`)
	const n = 120
	var chain []storage.Tuple
	for i := 0; i < n; i++ {
		chain = append(chain, edgeTuple(i, i+1))
	}

	// Maintained: evaluate the chain, then add one edge incrementally.
	db := storage.NewDatabase()
	for _, tu := range chain {
		db.Ensure("edge", 2).Insert(tu)
	}
	zs := runRanked(t, prog, db)
	extra := edgeTuple(n, n+1)
	maint := New(prog, db)
	_, err := maint.ApplyZSetContext(context.Background(), zs,
		map[string]*storage.ZSet{"edge": storage.ZSetOfChanges([]storage.Tuple{extra}, nil)})
	if err != nil {
		t.Fatal(err)
	}

	// Cold: from-scratch fixpoint over the identical post-insert EDB.
	coldDB := storage.NewDatabase()
	for _, tu := range append(chain[:n:n], extra) {
		coldDB.Ensure("edge", 2).Insert(tu)
	}
	ce := New(prog, coldDB)
	if err := ce.Run(); err != nil {
		t.Fatal(err)
	}
	if !db.Equal(coldDB) {
		t.Fatal("incremental and cold results differ")
	}

	ms, cs := maint.Stats(), ce.Stats()
	if ms.Derived*4 >= cs.Derived {
		t.Errorf("maintenance derived %d, cold derived %d; want at least 4x fewer", ms.Derived, cs.Derived)
	}
	if ms.Probes*4 >= cs.Probes {
		t.Errorf("maintenance scanned %d, cold scanned %d; want at least 4x fewer", ms.Probes, cs.Probes)
	}
	if ms.Inserted != int64(n+1) {
		// The new edge closes n+1 new paths: (0..n)->n+1.
		t.Errorf("maintenance inserted %d tuples, want %d", ms.Inserted, n+1)
	}
}

// TestZSetNoOverDelete: deleting one of two parallel paths retracts
// only the tuple that lost its last derivation. The sweep's support
// checks keep the shared downstream cone in place, where an
// over-delete-then-rederive scheme would retract and re-derive it, and
// the result equals a from-scratch fixpoint that derives strictly more.
func TestZSetNoOverDelete(t *testing.T) {
	prog := mustProg(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`)
	// Diamond head a->b / a->c joined at d, then a long shared tail.
	edges := [][2]string{{"a", "b"}, {"b", "d"}, {"a", "c"}, {"c", "d"}}
	const tail = 40
	prev := "d"
	for i := 0; i < tail; i++ {
		next := fmt.Sprintf("t%d", i)
		edges = append(edges, [2]string{prev, next})
		prev = next
	}
	mkDB := func() *storage.Database {
		db := storage.NewDatabase()
		for _, e := range edges {
			db.Add("edge", ast.Sym(e[0]), ast.Sym(e[1]))
		}
		return db
	}
	del := map[string][]storage.Tuple{"edge": {storage.TupleOf(ast.Sym("a"), ast.Sym("b"))}}

	zdb := mkDB()
	zs := runRanked(t, prog, zdb)
	zeng := New(prog, zdb)
	out, err := zeng.ApplyZSetContext(context.Background(), zs,
		map[string]*storage.ZSet{"edge": storage.ZSetOfChanges(nil, del["edge"])})
	if err != nil {
		t.Fatal(err)
	}
	// Only tc(a,b) dies: every other tc(a,·) survives via a->c.
	if z := out["tc"]; z == nil || z.Len() != 1 || z.Weight(storage.TupleOf(ast.Sym("a"), ast.Sym("b"))) != -1 {
		t.Fatalf("z-set delta = %v, want exactly -tc(a,b)", out)
	}

	cdb := mkDB()
	cdb.Relation("edge").Remove(del["edge"][0])
	ceng := New(prog, cdb)
	if err := ceng.Run(); err != nil {
		t.Fatal(err)
	}
	if !zdb.Equal(cdb) {
		t.Fatal("z-set and from-scratch results differ")
	}
	zst, cst := zeng.Stats(), ceng.Stats()
	if zst.Derived >= cst.Derived {
		t.Errorf("z-set derived %d, from-scratch derived %d; want strictly fewer", zst.Derived, cst.Derived)
	}
}

// TestMaintenanceThroughNegation: the sweep maintains an update that
// reaches a negated predicate incrementally — an insert that closes a
// cycle retracts isolated(a), the delete that opens it again brings it
// back — with an exact reported delta and the from-scratch state after
// every step.
func TestMaintenanceThroughNegation(t *testing.T) {
	prog := mustProg(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		isolated(X) :- node(X), not tc(X, X).
	`)
	a, b, c := ast.Sym("a"), ast.Sym("b"), ast.Sym("c")
	ab, ba := storage.TupleOf(a, b), storage.TupleOf(b, a)
	edb := map[string]bool{"edge": true, "node": true}
	db := storage.NewDatabase()
	db.Add("node", a)
	db.Add("edge", a, b)
	zs := runRanked(t, prog, db)

	apply := func(pred string, adds, dels []storage.Tuple, want map[string][]storage.Tuple) map[string]*storage.ZSet {
		t.Helper()
		before := db.Snapshot()
		out, err := New(prog, db).ApplyZSetContext(context.Background(), zs,
			map[string]*storage.ZSet{pred: storage.ZSetOfChanges(adds, dels)})
		if err != nil {
			t.Fatalf("ApplyZSetContext(%s +%v -%v) = %v, want incremental maintenance", pred, adds, dels, err)
		}
		checkReportedDelta(t, before, db, out, edb)
		if fresh := fromScratch(t, prog, want); !db.Equal(fresh) {
			t.Fatalf("after %s +%v -%v:\n%s\nfrom scratch:\n%s", pred, adds, dels, db, fresh)
		}
		return out
	}
	out := apply("edge", []storage.Tuple{ba}, nil, map[string][]storage.Tuple{"node": {{storage.Intern(a)}}, "edge": {ab, ba}})
	if z := out["isolated"]; z == nil || z.Weight(storage.TupleOf(a)) != -1 {
		t.Fatalf("closing the cycle must retract isolated(a); delta = %v", out)
	}

	out = apply("edge", nil, []storage.Tuple{ab}, map[string][]storage.Tuple{"node": {{storage.Intern(a)}}, "edge": {ba}})
	if z := out["isolated"]; z == nil || z.Weight(storage.TupleOf(a)) != 1 {
		t.Fatalf("opening the cycle must restore isolated(a); delta = %v", out)
	}
	out = apply("node", []storage.Tuple{storage.TupleOf(c)}, nil,
		map[string][]storage.Tuple{"node": {{storage.Intern(a)}, {storage.Intern(c)}}, "edge": {ba}})
	if z := out["isolated"]; z == nil || z.Weight(storage.TupleOf(c)) != 1 {
		t.Fatalf("isolated(c) should appear (c has no tc cycle); delta = %v", out)
	}
}

// TestMaintenanceCancellation: the Z-set sweep respects ctx at layer
// barriers.
func TestMaintenanceCancellation(t *testing.T) {
	prog := mustProg(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`)
	db := storage.NewDatabase()
	for i := 0; i < 80; i++ {
		db.Ensure("edge", 2).Insert(edgeTuple(i, i+1))
	}
	zs := runRanked(t, prog, db)
	eng := New(prog, db)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel during the first processed layer: the next layer barrier
	// must stop.
	eng.IterationHook = func(round int) { cancel() }
	_, err := eng.ApplyZSetContext(ctx, zs, map[string]*storage.ZSet{
		"edge": storage.ZSetOfChanges([]storage.Tuple{edgeTuple(80, 81)}, nil),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyZSetContext = %v, want context.Canceled", err)
	}
}

// TestApplyZSetNoChanges is a no-op and must not touch counters.
func TestApplyZSetNoChanges(t *testing.T) {
	prog := mustProg(t, `tc(X, Y) :- edge(X, Y).`)
	db := storage.NewDatabase()
	db.Add("edge", ast.Sym("a"), ast.Sym("b"))
	zs := runRanked(t, prog, db)
	eng := New(prog, db)
	out, err := eng.ApplyZSetContext(context.Background(), zs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("no-op maintenance reported a delta: %v", out)
	}
	if eng.Stats() != (Stats{}) {
		t.Fatalf("no-op maintenance did work: %+v", eng.Stats())
	}
	// Redundant changes (insert present, delete absent) are also no-ops.
	out, err = eng.ApplyZSetContext(context.Background(), zs, map[string]*storage.ZSet{
		"edge": storage.ZSetOfChanges(
			[]storage.Tuple{storage.TupleOf(ast.Sym("a"), ast.Sym("b"))},
			[]storage.Tuple{storage.TupleOf(ast.Sym("x"), ast.Sym("y"))}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("redundant changes reported a delta: %v", out)
	}
}
