package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The aliasing contract of the flat layout: At hands out a view of the
// container's own values, valid until its writer next mutates it, and
// every ingress path copies. These tests hold the storage code to the
// two halves of that contract that its own write paths depend on.

// rankedRelation builds an arity-2 relation indexed on both columns,
// with a rank on every tuple, plus the rank model checkRanks reads.
func rankedRelation(db *Database, n int) (*Relation, map[string]uint32) {
	r := db.Ensure("r", 2)
	r.EnsureIndex(0)
	r.EnsureIndex(1)
	ranks := map[string]uint32{}
	for i := int64(0); i < int64(n); i++ {
		tu := itup(i%23, i%37)
		if r.Insert(tu) {
			r.SetRank(r.Len()-1, uint32(i%5))
			ranks[tu.Key()] = uint32(i % 5)
		}
	}
	return r, ranks
}

// checkRebuilt verifies membership, ranks and every column index of r
// against a rebuild from its tuples.
func checkRebuilt(t *testing.T, what string, r *Relation, ranks map[string]uint32) {
	t.Helper()
	checkIndexed(t, what, r, r.Tuples(), []int{0, 1})
	checkRanks(t, what, r, ranks)
}

// TestRemoveOwnTuple: Remove(r.At(i)) passes a tuple whose values are
// the very ones the swap-removal overwrites with the last tuple's, so
// Remove must read its argument before moving anything. Membership,
// ranks and both column indexes must stay equal to a
// rebuild all the way down to the empty relation. Re-inserting a tuple
// taken from At is a no-op that must leave the same state.
func TestRemoveOwnTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r, ranks := rankedRelation(NewDatabase(), 400)
	for step := 0; r.Len() > 0; step++ {
		what := fmt.Sprintf("step %d", step)
		if r.Insert(r.At(rng.Intn(r.Len()))) {
			t.Fatalf("%s: re-Insert of a present tuple reported it new", what)
		}
		checkRebuilt(t, what+", re-insert", r, ranks)
		tu := r.At(rng.Intn(r.Len()))
		key := tu.Key()
		if !r.Remove(tu) {
			t.Fatalf("%s: Remove(At(i)) found nothing", what)
		}
		delete(ranks, key)
		checkRebuilt(t, what, r, ranks)
	}
}

// TestReinsertFromSnapshotView removes tuples named by a snapshot
// view's At and inserts them back from the view: the writer's detach
// must leave the view's values (which both calls read) untouched, and
// the relation must end where it began, as a rebuild sees it, with the
// re-inserted tuples unranked.
func TestReinsertFromSnapshotView(t *testing.T) {
	db := NewDatabase()
	r, ranks := rankedRelation(db, 300)
	view := db.Snapshot().Relation("r")
	for i := 0; i < view.Len(); i += 3 {
		if !r.Remove(view.At(i)) {
			t.Fatalf("Remove(view.At(%d)) found nothing", i)
		}
	}
	for i := 0; i < view.Len(); i += 3 {
		if !r.Insert(view.At(i)) {
			t.Fatalf("Insert(view.At(%d)) found it present", i)
		}
		ranks[view.At(i).Key()] = 0
	}
	checkRebuilt(t, "after re-insert", r, ranks)
	for i := 0; i < view.Len(); i++ {
		if !r.Contains(view.At(i)) {
			t.Fatalf("view tuple %v missing from the relation", view.At(i))
		}
	}
}

// TestViewsSurviveWriterMutations holds tuples read from a snapshot
// view (At) and from Z-sets (Each, Split) built from the live
// relation's own At views, then lets the writer insert and remove 200
// times — removal with At arguments included — while another goroutine
// keeps reading the view. Every held tuple must still equal the copy
// taken when it was read.
func TestViewsSurviveWriterMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := NewDatabase()
	r, _ := rankedRelation(db, 200)
	view := db.Snapshot().Relation("r")
	z := NewZSet()
	for pos := 0; pos < r.Len(); pos++ {
		z.Add(r.At(pos), int64(1-2*(pos%2)))
	}
	var held, want []Tuple
	hold := func(tu Tuple) {
		held = append(held, tu)
		want = append(want, append(Tuple(nil), tu...))
	}
	for pos := 0; pos < view.Len(); pos++ {
		hold(view.At(pos))
	}
	z.Each(func(tu Tuple, _ int64) { hold(tu) })
	adds, dels := z.Split()
	for _, tu := range append(adds, dels...) {
		hold(tu)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for pos := 0; pos < view.Len(); pos++ {
				if !view.Contains(view.At(pos)) {
					t.Errorf("view lost its own tuple %v", view.At(pos))
					return
				}
			}
		}
	}()
	for step := 0; step < 200; step++ {
		switch {
		case rng.Intn(2) == 0 && r.Len() > 0:
			r.Remove(r.At(rng.Intn(r.Len())))
		default:
			r.Insert(itup(rng.Int63n(50), rng.Int63n(50)))
		}
	}
	close(stop)
	wg.Wait()
	for i := range held {
		if !held[i].Equal(want[i]) {
			t.Fatalf("held tuple %d changed from %v to %v under writer mutations", i, want[i], held[i])
		}
	}
}
