package eval

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/storage"
)

// TestZSetMixedBatchDifferential drives random MIXED batches (inserts
// and deletes applied in one ApplyZSetContext call) and checks, after
// every batch, that the maintained database is tuple-for-tuple
// identical to a from-scratch evaluation over the same final EDB, and
// that the reported IDB delta is exact.
func TestZSetMixedBatchDifferential(t *testing.T) {
	prog := mustProg(t, multiStratumSrc)
	rng := rand.New(rand.NewSource(11))
	const nodes = 12

	edge := map[string]storage.Tuple{}
	root := storage.TupleOf(ast.Sym("root"), ast.Sym("n0"))
	edge[root.Key()] = root

	db := storage.NewDatabase()
	db.Ensure("edge", 2).Insert(root)
	zs := runRanked(t, prog, db)

	for step := 0; step < 40; step++ {
		// Build one batch: a few inserts of absent edges, a few deletes
		// of present ones — disjoint by construction, as the service's
		// coalescer guarantees.
		var adds, dels []storage.Tuple
		touched := map[string]bool{}
		for i := 0; i < 1+rng.Intn(4); i++ {
			tu := edgeTuple(rng.Intn(nodes), rng.Intn(nodes))
			if _, present := edge[tu.Key()]; present || touched[tu.Key()] {
				continue
			}
			touched[tu.Key()] = true
			adds = append(adds, tu)
		}
		if len(edge) > 2 {
			keys := make([]string, 0, len(edge))
			for k := range edge {
				keys = append(keys, k)
			}
			for i := 0; i < 1+rng.Intn(2) && len(keys) > 0; i++ {
				k := keys[rng.Intn(len(keys))]
				if touched[k] {
					continue
				}
				touched[k] = true
				dels = append(dels, edge[k])
			}
		}
		if len(adds) == 0 && len(dels) == 0 {
			continue
		}
		for _, tu := range adds {
			edge[tu.Key()] = tu
		}
		for _, tu := range dels {
			delete(edge, tu.Key())
		}

		before := db.Snapshot()
		out, err := New(prog, db).ApplyZSetContext(context.Background(), zs,
			map[string]*storage.ZSet{"edge": storage.ZSetOfChanges(adds, dels)})
		if err != nil {
			t.Fatalf("step %d: ApplyZSetContext: %v", step, err)
		}
		checkReportedDelta(t, before, db, out, map[string]bool{"edge": true})

		var live []storage.Tuple
		for _, tu := range edge {
			live = append(live, tu)
		}
		want := fromScratch(t, prog, map[string][]storage.Tuple{"edge": live})
		if !db.Equal(want) {
			t.Fatalf("step %d: z-set state diverged from from-scratch\nadds=%v dels=%v\nmaintained:\n%s\nfrom-scratch:\n%s",
				step, adds, dels, db, want)
		}
	}
}

// TestZSetInsertOnlyBatch exercises a deletion-free batch: it must grow
// the fixpoint correctly and report a purely positive delta.
func TestZSetInsertOnlyBatch(t *testing.T) {
	prog := mustProg(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`)
	db := storage.NewDatabase()
	for _, tu := range []storage.Tuple{edgeTuple(0, 1), edgeTuple(1, 2)} {
		db.Ensure("edge", 2).Insert(tu)
	}
	zs := runRanked(t, prog, db)

	out, err := New(prog, db).ApplyZSetContext(context.Background(), zs, map[string]*storage.ZSet{
		"edge": storage.ZSetOfChanges([]storage.Tuple{edgeTuple(2, 3), edgeTuple(3, 4)}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	out["tc"].Each(func(tu storage.Tuple, w int64) {
		if w != 1 {
			t.Errorf("insert-only batch reported weight %d for tc(%s)", w, tu)
		}
	})
	want := fromScratch(t, prog, map[string][]storage.Tuple{
		"edge": {edgeTuple(0, 1), edgeTuple(1, 2), edgeTuple(2, 3), edgeTuple(3, 4)},
	})
	if !db.Equal(want) {
		t.Fatalf("insert-only batch diverged:\n%s\nwant:\n%s", db, want)
	}
}

// TestZSetNeedsRecomputeUntouched: the negation guard must refuse a
// mixed batch that reaches a negated predicate BEFORE touching the
// database — neither the inserts nor the deletes may be applied.
func TestZSetNeedsRecomputeUntouched(t *testing.T) {
	prog := mustProg(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		isolated(X) :- node(X), not tc(X, X).
	`)
	db := storage.NewDatabase()
	for _, tu := range []storage.Tuple{edgeTuple(0, 1)} {
		db.Ensure("edge", 2).Insert(tu)
	}
	db.Add("node", ast.Sym("n0"))
	db.Add("node", ast.Sym("n1"))
	zs := runRanked(t, prog, db)
	before := db.Snapshot()

	_, err := New(prog, db).ApplyZSetContext(context.Background(), zs, map[string]*storage.ZSet{
		"edge": storage.ZSetOfChanges([]storage.Tuple{edgeTuple(1, 0)}, []storage.Tuple{edgeTuple(0, 1)}),
	})
	if !errors.Is(err, ErrNeedsRecompute) {
		t.Fatalf("err = %v, want ErrNeedsRecompute", err)
	}
	if !db.Equal(before) {
		t.Fatalf("guard refused but the database changed:\n%s\nwant:\n%s", db, before)
	}
}

// TestZSetRejectsIDBChanges: changes naming a derived predicate are an
// error, reported before anything is mutated.
func TestZSetRejectsIDBChanges(t *testing.T) {
	prog := mustProg(t, `tc(X, Y) :- edge(X, Y).`)
	db := storage.NewDatabase()
	db.Add("edge", ast.Sym("a"), ast.Sym("b"))
	zs := runRanked(t, prog, db)
	before := db.Snapshot()
	_, err := New(prog, db).ApplyZSetContext(context.Background(), zs, map[string]*storage.ZSet{
		"tc": storage.ZSetOfChanges([]storage.Tuple{storage.TupleOf(ast.Sym("x"), ast.Sym("y"))}, nil),
	})
	if err == nil || errors.Is(err, ErrNeedsRecompute) {
		t.Fatalf("err = %v, want a derived-predicate rejection", err)
	}
	if !db.Equal(before) {
		t.Fatal("rejected change mutated the database")
	}
}
