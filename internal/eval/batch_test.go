package eval

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
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
	edge[root.String()] = root

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
			if _, present := edge[tu.String()]; present || touched[tu.String()] {
				continue
			}
			touched[tu.String()] = true
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
			edge[tu.String()] = tu
		}
		for _, tu := range dels {
			delete(edge, tu.String())
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

// TestZSetNeedsRecomputeUntouched: a mixed batch that reaches a negated
// predicate needs no recompute — one sweep applies both sides, reports
// the exact IDB delta (isolated flips for both nodes) and leaves the
// from-scratch state.
func TestZSetNeedsRecomputeUntouched(t *testing.T) {
	prog := mustProg(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
		isolated(X) :- node(X), not tc(X, X).
	`)
	db := storage.NewDatabase()
	db.Ensure("edge", 2).Insert(edgeTuple(0, 1))
	db.Ensure("edge", 2).Insert(edgeTuple(1, 1))
	n0, n1 := storage.TupleOf(ast.Sym("n0")), storage.TupleOf(ast.Sym("n1"))
	db.Ensure("node", 1).Insert(n0)
	db.Ensure("node", 1).Insert(n1)
	zs := runRanked(t, prog, db)
	before := db.Snapshot()

	eng := New(prog, db)
	out, err := eng.ApplyZSetContext(context.Background(), zs, map[string]*storage.ZSet{
		"edge": storage.ZSetOfChanges([]storage.Tuple{edgeTuple(0, 0)}, []storage.Tuple{edgeTuple(1, 1)}),
	})
	if err != nil {
		t.Fatalf("err = %v, want incremental maintenance", err)
	}
	checkReportedDelta(t, before, db, out, map[string]bool{"edge": true, "node": true})
	if z := out["isolated"]; z == nil || z.Weight(n0) != -1 || z.Weight(n1) != 1 {
		t.Fatalf("isolated delta = %v, want -n0 +n1", out)
	}
	want := fromScratch(t, prog, map[string][]storage.Tuple{
		"edge": {edgeTuple(0, 1), edgeTuple(0, 0)}, "node": {n0, n1},
	})
	if !db.Equal(want) {
		t.Fatalf("maintained:\n%s\nfrom scratch:\n%s", db, want)
	}
	// The negated occurrence fired under its own profile label.
	found := false
	for _, rp := range eng.Info().Rules {
		if strings.HasSuffix(rp.Label, "#zset-neg") && rp.Stats.RuleFirings > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no #zset-neg rule profile in %+v", eng.Info().Rules)
	}
}

// TestZSetRelationBornInBatch: a relation the batch creates is empty,
// not missing, in the frozen old state. With neither p nor q stored,
// +p(one) +q(one) must retract h(one): each negated occurrence's del
// plan checks the other negated literal against the OLD state, where it
// still held.
func TestZSetRelationBornInBatch(t *testing.T) {
	prog := mustProg(t, `h(X) :- a(X), not p(X), not q(X).`)
	one := storage.TupleOf(ast.Sym("one"))
	db := storage.NewDatabase()
	db.Ensure("a", 1).Insert(one)
	zs := runRanked(t, prog, db)
	if !db.Relation("h").Contains(one) {
		t.Fatal("h(one) should hold before the batch")
	}
	out, err := New(prog, db).ApplyZSetContext(context.Background(), zs, map[string]*storage.ZSet{
		"p": storage.ZSetOfChanges([]storage.Tuple{one}, nil),
		"q": storage.ZSetOfChanges([]storage.Tuple{one}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.Relation("h").Contains(one) {
		t.Fatal("h(one) survived +p(one) +q(one)")
	}
	if z := out["h"]; z == nil || z.Weight(one) != -1 {
		t.Fatalf("delta = %v, want -h(one)", out)
	}
}

// TestZSetNegatedArityMismatch: "not p(X, X)" over a stored p/1 holds
// whatever p contains (the fixpoint's negated check treats the arity
// clash as absence), so changes to p must neither move h nor be scanned
// as a delta of the wrong width.
func TestZSetNegatedArityMismatch(t *testing.T) {
	prog := mustProg(t, `h(X) :- a(X), not p(X, X).`)
	one := storage.TupleOf(ast.Sym("one"))
	db := storage.NewDatabase()
	db.Ensure("a", 1).Insert(one)
	db.Ensure("p", 1)
	zs := runRanked(t, prog, db)
	out, err := New(prog, db).ApplyZSetContext(context.Background(), zs, map[string]*storage.ZSet{
		"p": storage.ZSetOfChanges([]storage.Tuple{one}, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || !db.Relation("h").Contains(one) {
		t.Fatalf("delta = %v, h = %v; want no change", out, db.Relation("h").Tuples())
	}
}

// negGraphSrc puts negation everywhere a stratified program can: a
// negated EDB literal inside the recursion, strata that negate the
// recursive predicate (alone, and next to a positive occurrence of it),
// a second recursion above those, and two further levels of negation.
const negGraphSrc = `
	tc(X, Y) :- edge(X, Y), not blk(X).
	tc(X, Y) :- tc(X, Z), edge(Z, Y), not blk(Z).
	unreach(X, Y) :- node(X), node(Y), not tc(X, Y).
	oneway(X, Y) :- tc(X, Y), not tc(Y, X).
	up(X, Y) :- oneway(X, Y).
	up(X, Y) :- up(X, Z), oneway(Z, Y), not blk(Y).
	top(X) :- node(X), not up(X, X), not unreach(X, n0).
	odd(X) :- top(X), not blk(X).
	even(X) :- node(X), not odd(X).
`

// TestZSetNegationGraphDifferential drives random mixed batches over
// edge/2, node/1 and blk/1 through negGraphSrc on small dense graphs —
// deep recursion with many alternative supports, which the sparse
// random programs of TestZSetDifferentialRandomModes rarely reach — and
// checks the state against from-scratch evaluation and the reported
// delta against the actual difference after every batch.
func TestZSetNegationGraphDifferential(t *testing.T) {
	prog := mustProg(t, negGraphSrc)
	edb := map[string]bool{"edge": true, "node": true, "blk": true}
	node := func(i int) storage.Tuple { return storage.TupleOf(ast.Sym(fmt.Sprintf("n%d", i))) }
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4 + int(seed%7)
		state := map[string]map[string]storage.Tuple{"edge": {}, "node": {}, "blk": {}}
		db := storage.NewDatabase()
		put := func(p string, tu storage.Tuple) {
			state[p][tu.String()] = tu
			db.Ensure(p, len(tu)).Insert(tu)
		}
		for i := 0; i < nodes; i++ {
			if rng.Intn(4) != 0 {
				put("node", node(i))
			}
		}
		for i := 0; i < nodes*2; i++ {
			put("edge", edgeTuple(rng.Intn(nodes), rng.Intn(nodes)))
		}
		zs := runRanked(t, prog, db)

		for step := 0; step < 40; step++ {
			// Each drawn fact flips: present ones are deleted, absent
			// ones added, no fact twice in a batch.
			adds, dels := map[string][]storage.Tuple{}, map[string][]storage.Tuple{}
			touched := map[string]bool{}
			for i := 0; i < 1+rng.Intn(4); i++ {
				p, tu := "edge", edgeTuple(rng.Intn(nodes), rng.Intn(nodes))
				switch rng.Intn(6) {
				case 0:
					p, tu = "node", node(rng.Intn(nodes))
				case 1:
					p, tu = "blk", node(rng.Intn(nodes))
				}
				if touched[p+tu.String()] {
					continue
				}
				touched[p+tu.String()] = true
				if _, present := state[p][tu.String()]; present {
					dels[p] = append(dels[p], tu)
					delete(state[p], tu.String())
				} else {
					adds[p] = append(adds[p], tu)
					state[p][tu.String()] = tu
				}
			}
			changes := map[string]*storage.ZSet{}
			for p := range edb {
				if z := storage.ZSetOfChanges(adds[p], dels[p]); z.Len() > 0 {
					changes[p] = z
				}
			}
			before := db.Snapshot()
			out, err := New(prog, db).ApplyZSetContext(context.Background(), zs, changes)
			if err != nil {
				t.Fatalf("seed %d step %d: ApplyZSetContext: %v", seed, step, err)
			}
			checkReportedDelta(t, before, db, out, edb)

			live := map[string][]storage.Tuple{}
			for p, m := range state {
				for _, tu := range m {
					live[p] = append(live[p], tu)
				}
			}
			if want := fromScratch(t, prog, live); !db.Equal(want) || t.Failed() {
				t.Fatalf("seed %d step %d: z-set state diverged from from-scratch\nadds=%v dels=%v\nmaintained:\n%s\nfrom-scratch:\n%s",
					seed, step, adds, dels, db, want)
			}
		}
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
	if err == nil || !strings.Contains(err.Error(), "tc is derived by the program") {
		t.Fatalf("err = %v, want a derived-predicate rejection", err)
	}
	if !db.Equal(before) {
		t.Fatal("rejected change mutated the database")
	}
}
