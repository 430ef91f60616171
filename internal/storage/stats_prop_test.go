package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
)

// rebuilt recomputes stats from the relation's current tuples alone.
func rebuilt(r *Relation) *RelStats {
	s := newRelStats(r.Arity)
	for _, t := range r.Tuples() {
		s.add(t)
	}
	return s
}

// TestStatsIncrementalEqualsRebuild is the core property of the
// statistics sketches: under an arbitrary interleaving of inserts and
// removes — duplicates, misses, value reuse — the incrementally
// maintained sketch equals a from-scratch rebuild at every step.
func TestStatsIncrementalEqualsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	db := NewDatabase()
	rel := db.Ensure("p", 3)
	rel.EnsureStats()

	randTuple := func() Tuple {
		return TupleOf(
			ast.Sym(fmt.Sprintf("v%d", rng.Intn(6))),
			ast.Int(int64(rng.Intn(4))),
			ast.Sym(fmt.Sprintf("w%d", rng.Intn(3))),
		)
	}
	for step := 0; step < 3000; step++ {
		tp := randTuple()
		switch rng.Intn(4) {
		case 0:
			rel.Remove(tp) // may miss; stats must only count real removals
		default:
			rel.Insert(tp) // may duplicate; stats must not double-count
		}
		if step%250 == 0 || step == 2999 {
			if !rel.Stats().Equal(rebuilt(rel)) {
				t.Fatalf("step %d: incremental stats diverged (rows=%d, len=%d)",
					step, rel.Stats().Rows(), rel.Len())
			}
		}
	}
	if rel.Stats().Rows() != rel.Len() {
		t.Fatalf("stats rows %d != relation len %d", rel.Stats().Rows(), rel.Len())
	}
}

// TestStatsNotSharedWithViews pins the aliasing contract that makes the
// sketches safe without locks: snapshot views and clones never share a
// stats pointer with the live relation, so a concurrent reader can
// never observe a write-path mutation.
func TestStatsNotSharedWithViews(t *testing.T) {
	db := NewDatabase()
	db.Add("e", ast.Sym("a"), ast.Sym("b"))
	db.Add("e", ast.Sym("b"), ast.Sym("c"))
	rel := db.Relation("e")
	rel.EnsureStats()

	snap := db.Snapshot()
	if got := snap.Relation("e").Stats(); got != nil {
		t.Fatal("snapshot view carries a stats pointer; it must be nil")
	}
	clone := rel.Clone()
	if clone.Stats() != nil {
		t.Fatal("clone carries a stats pointer; it must be nil")
	}

	// Mutating the live relation after the snapshot must keep its own
	// sketch exact and leave the view untouched.
	rel.Insert(TupleOf(ast.Sym("c"), ast.Sym("d")))
	rel.Remove(TupleOf(ast.Sym("a"), ast.Sym("b")))
	if !rel.Stats().Equal(rebuilt(rel)) {
		t.Fatal("live stats diverged after post-snapshot writes")
	}
	if n := snap.Relation("e").Len(); n != 2 {
		t.Fatalf("snapshot view changed under writes: %d tuples", n)
	}
}
