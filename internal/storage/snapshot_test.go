package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ast"
)

func itup(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = InternInt(v)
	}
	return t
}

// checkRelation verifies the relation's membership index and column
// indexes against a brute-force scan of the tuple slice.
func checkRelation(t *testing.T, r *Relation, want map[string]bool) {
	t.Helper()
	if r.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(want))
	}
	seen := map[string]bool{}
	for _, tu := range r.Tuples() {
		k := tu.Key()
		if seen[k] {
			t.Fatalf("duplicate tuple %v in backing slice", tu)
		}
		seen[k] = true
		if !want[k] {
			t.Fatalf("unexpected tuple %v", tu)
		}
		if !r.Contains(tu) {
			t.Fatalf("index lost tuple %v", tu)
		}
	}
	for col := 0; col < r.Arity; col++ {
		for _, tu := range r.Tuples() {
			found := false
			for _, pos := range r.Lookup(col, tu[col]) {
				if r.At(pos).Equal(tu) {
					found = true
				}
			}
			if !found {
				t.Fatalf("column %d index lost tuple %v", col, tu)
			}
		}
	}
}

func TestRelationInterleavedAddRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := NewRelation("e", 2)
	r.EnsureIndex(0) // keep a column index live across the interleaving
	want := map[string]bool{}
	domain := int64(20)
	for step := 0; step < 2000; step++ {
		tu := itup(rng.Int63n(domain), rng.Int63n(domain))
		if rng.Intn(2) == 0 {
			if r.Insert(tu) != !want[tu.Key()] {
				t.Fatalf("step %d: Insert(%v) newness mismatch", step, tu)
			}
			want[tu.Key()] = true
		} else {
			if r.Remove(tu) != want[tu.Key()] {
				t.Fatalf("step %d: Remove(%v) presence mismatch", step, tu)
			}
			delete(want, tu.Key())
		}
	}
	checkRelation(t, r, want)
}

func TestTupleSetRemove(t *testing.T) {
	s := NewTupleSet()
	for i := int64(0); i < 10; i++ {
		s.Add(itup(i))
	}
	if s.Remove(itup(99)) {
		t.Fatal("removed absent tuple")
	}
	if !s.Remove(itup(3)) || s.Contains(itup(3)) {
		t.Fatal("Remove(3) failed")
	}
	// Removing the (swapped-in) last element exercises the pos==last path.
	if !s.Remove(itup(9)) || s.Contains(itup(9)) {
		t.Fatal("Remove(9) failed")
	}
	if s.Len() != 8 {
		t.Fatalf("Len = %d, want 8", s.Len())
	}
	for i := int64(0); i < 10; i++ {
		want := i != 3 && i != 9
		if s.Contains(itup(i)) != want {
			t.Fatalf("Contains(%d) = %v, want %v", i, !want, want)
		}
	}
	// Re-adding a removed tuple must work and dedup must survive.
	if !s.Add(itup(3)) || s.Add(itup(3)) {
		t.Fatal("re-Add after Remove broken")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	db := NewDatabase()
	for i := int64(0); i < 50; i++ {
		db.Add("e", ast.Int(i), ast.Int(i+1))
	}
	db.Relation("e").EnsureIndex(0)

	snap := db.Snapshot()
	if snap.Count("e") != 50 {
		t.Fatalf("snapshot count = %d, want 50", snap.Count("e"))
	}

	// Mutate the live database: inserts, removals, and a new relation.
	for i := int64(50); i < 80; i++ {
		db.Add("e", ast.Int(i), ast.Int(i+1))
	}
	db.Remove("e", ast.Int(0), ast.Int(1))
	db.Add("f", ast.Int(1))

	if db.Count("e") != 79 || db.Count("f") != 1 {
		t.Fatalf("live counts = e:%d f:%d", db.Count("e"), db.Count("f"))
	}
	// The snapshot still sees exactly the state at Snapshot() time.
	if snap.Count("e") != 50 || snap.Relation("f") != nil {
		t.Fatalf("snapshot leaked mutations: e:%d f:%v", snap.Count("e"), snap.Relation("f"))
	}
	if !snap.Relation("e").Contains(itup(0, 1)) {
		t.Fatal("snapshot lost tuple removed from live db")
	}
	if snap.Relation("e").Contains(itup(60, 61)) {
		t.Fatal("snapshot sees tuple inserted after Snapshot")
	}
	// Read-only lookup paths keep working on the snapshot.
	if positions, ok := snap.Relation("e").LookupNoBuild(0, InternInt(7)); !ok || len(positions) != 1 {
		t.Fatalf("snapshot LookupNoBuild = %v, %v", positions, ok)
	}
}

// TestSnapshotConcurrentReads publishes successive snapshots while a
// writer keeps mutating the live database; concurrent readers scan
// their snapshot and must always observe a consistent frozen view.
// Run with -race.
func TestSnapshotConcurrentReads(t *testing.T) {
	db := NewDatabase()
	for i := int64(0); i < 100; i++ {
		db.Add("e", ast.Int(i), ast.Int(i+1))
	}
	db.Relation("e").EnsureIndex(0)

	const readers = 4
	var wg sync.WaitGroup
	snaps := make(chan *Database, 256)
	done := make(chan struct{})

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for snap := range snaps {
				rel := snap.Relation("e")
				n := rel.Len()
				count := 0
				for _, tu := range rel.Tuples() {
					if !rel.Contains(tu) {
						t.Error("snapshot index inconsistent with tuples")
						return
					}
					if _, ok := rel.LookupNoBuild(0, tu[0]); !ok {
						t.Error("snapshot lost column index")
						return
					}
					count++
				}
				if count != n {
					t.Errorf("snapshot scan saw %d tuples, Len says %d", count, n)
					return
				}
			}
		}()
	}

	go func() {
		defer close(snaps)
		rng := rand.New(rand.NewSource(11))
		for step := 0; step < 500; step++ {
			tu := itup(rng.Int63n(200), rng.Int63n(200))
			if rng.Intn(3) == 0 {
				db.Relation("e").Remove(tu)
			} else {
				db.Relation("e").Insert(tu)
			}
			db.Relation("e").EnsureIndex(0)
			select {
			case snaps <- db.Snapshot():
			default: // readers are behind; skip publishing this state
			}
		}
		close(done)
	}()

	<-done
	wg.Wait()
}

func TestSnapshotOfSnapshotAndDetachChain(t *testing.T) {
	db := NewDatabase()
	db.Add("p", ast.Sym("a"))
	s1 := db.Snapshot()
	db.Add("p", ast.Sym("b")) // detaches live p
	s2 := db.Snapshot()
	// A reader indexes s2's view; the live relation it was taken from
	// must not see that index, and s2 must keep it through everything
	// that follows.
	if _, built := s2.Relation("p").LookupShared(0, Intern(ast.Sym("b"))); !built {
		t.Fatal("first LookupShared on a fresh view did not build")
	}
	if cols := db.Relation("p").IndexedColumns(); len(cols) != 0 {
		t.Fatalf("a reader's index on a view leaked to the live relation: columns %v", cols)
	}
	db.Add("p", ast.Sym("c"))
	for i, tc := range []struct {
		db   *Database
		want int
	}{{s1, 1}, {s2, 2}, {db, 3}} {
		if got := tc.db.Count("p"); got != tc.want {
			t.Fatalf("view %d: count = %d, want %d", i, got, tc.want)
		}
	}
	// A snapshot is itself snapshottable (it is just a Database), and
	// the copy is born with the reader-built index.
	s3 := s2.Snapshot()
	if s3.Count("p") != 2 {
		t.Fatalf("snapshot of snapshot count = %d, want 2", s3.Count("p"))
	}
	two := append([]Tuple(nil), s2.Relation("p").Tuples()...)
	checkIndexed(t, "snapshot of an indexed snapshot", s3.Relation("p"), two, []int{0})
	// Writing to the copy detaches it: it maintains its own index and
	// leaves the one s2's readers share untouched.
	s3.Add("p", ast.Sym("d"))
	s3.Remove("p", ast.Sym("a"))
	checkIndexed(t, "detached snapshot of a snapshot", s3.Relation("p"), s3.Relation("p").Tuples(), []int{0})
	checkIndexed(t, "indexed snapshot after its copy moved on", s2.Relation("p"), two, []int{0})
	checkIndexed(t, "oldest snapshot", s1.Relation("p"), two[:1], nil)
}

// TestLookupSharedBuildsOnce: readers that miss the same column of one
// fresh snapshot together cause exactly one build, and every one of
// them gets the complete answer. Run with -race: the index is published
// to readers that take no lock.
func TestLookupSharedBuildsOnce(t *testing.T) {
	db := NewDatabase()
	for i := int64(0); i < 20000; i++ {
		db.AddTuple("e", itup(i%50, i))
	}
	for round := 0; round < 5; round++ {
		rel := db.Snapshot().Relation("e")
		want := scanIndex(rel.Tuples(), 0)
		const readers = 16
		var builds atomic.Int32
		var start, done sync.WaitGroup
		start.Add(1)
		for g := 0; g < readers; g++ {
			done.Add(1)
			go func(g int) {
				defer done.Done()
				start.Wait()
				for k := 0; k < 50; k++ {
					v := InternInt(int64((g + k) % 50))
					got, built := rel.LookupShared(0, v)
					if built {
						builds.Add(1)
					}
					if !reflect.DeepEqual(got, want[v]) {
						t.Errorf("reader %d: LookupShared(0, %v) = %d positions, a scan finds %d", g, v, len(got), len(want[v]))
						return
					}
					if noBuild, ok := rel.LookupNoBuild(0, v); !ok || !reflect.DeepEqual(noBuild, got) {
						t.Errorf("reader %d: LookupNoBuild disagrees with LookupShared after the build", g)
						return
					}
				}
			}(g)
		}
		start.Done()
		done.Wait()
		if n := builds.Load(); n != 1 {
			t.Fatalf("round %d: %d readers missing one column built it %d times, want 1", round, readers, n)
		}
		if cols := rel.IndexedColumns(); !reflect.DeepEqual(cols, []int{0}) {
			t.Fatalf("IndexedColumns = %v, want the reader-built [0]", cols)
		}
		if cols := db.Relation("e").IndexedColumns(); len(cols) != 0 {
			t.Fatalf("live relation gained columns %v from its snapshot's readers", cols)
		}
	}
}

func TestRemoveRebuildsColumnIndexLazily(t *testing.T) {
	r := NewRelation("e", 2)
	for i := int64(0); i < 10; i++ {
		r.Insert(itup(i%3, i))
	}
	r.EnsureIndex(0)
	before := len(r.Lookup(0, InternInt(0)))
	if !r.Remove(itup(0, 0)) {
		t.Fatal("Remove failed")
	}
	after := len(r.Lookup(0, InternInt(0)))
	if after != before-1 {
		t.Fatalf("Lookup after Remove = %d positions, want %d", after, before-1)
	}
	for _, pos := range r.Lookup(0, InternInt(0)) {
		if tu := r.At(pos); tu[0] != InternInt(0) {
			t.Fatalf("stale index position %d -> %v", pos, tu)
		}
	}
}

// scanIndex is what a column index must hold: for every value of the
// column, the ascending positions of the tuples carrying it.
func scanIndex(tuples []Tuple, col int) map[Value][]int {
	idx := map[Value][]int{}
	for pos, tu := range tuples {
		idx[tu[col]] = append(idx[tu[col]], pos)
	}
	return idx
}

// frozenView is a snapshot plus a private copy of what it held when it
// was taken.
type frozenView struct {
	rel    *Relation
	tuples []Tuple
}

// checkIndexed verifies r's built column indexes against a scan of
// tuples (r's own, or the copy a snapshot was frozen with): exactly the
// columns in indexed are built, every position list is the ascending
// list a rebuild would produce, and no emptied list survives — the map
// size, which the planner's estimator reads as len(EnsureIndex(col)),
// is the column's distinct count.
func checkIndexed(t *testing.T, what string, r *Relation, tuples []Tuple, indexed []int) {
	t.Helper()
	if r.Len() != len(tuples) {
		t.Fatalf("%s: %d tuples, want %d", what, r.Len(), len(tuples))
	}
	for pos, tu := range tuples {
		if !r.At(pos).Equal(tu) || !r.Contains(tu) {
			t.Fatalf("%s: position %d holds %v, want %v", what, pos, r.At(pos), tu)
		}
	}
	if got := r.IndexedColumns(); !reflect.DeepEqual(got, indexed) {
		t.Fatalf("%s: indexed columns = %v, want %v", what, got, indexed)
	}
	for _, col := range indexed {
		want := scanIndex(tuples, col)
		for v, positions := range want {
			if got, ok := r.LookupNoBuild(col, v); !ok || !reflect.DeepEqual(got, positions) {
				t.Fatalf("%s: LookupNoBuild(%d, %v) = %v, %v; a scan finds %v", what, col, v, got, ok, positions)
			}
		}
		// Every scanned value matched; equal sizes leave no room for a
		// stale or emptied list.
		if got := len(r.EnsureIndex(col)); got != len(want) {
			t.Fatalf("%s: column %d index has %d keys, %d distinct values", what, col, got, len(want))
		}
	}
}

// checkRanks verifies r's rank column against a model of the ranks of
// the tuples r holds: Rank answers every present tuple's position and
// rank, and Ranked lists exactly the nonzero ones in relation order.
func checkRanks(t *testing.T, what string, r *Relation, model map[string]uint32) {
	t.Helper()
	var ranked []RankedTuple
	for pos, tu := range r.Tuples() {
		want, ok := model[tu.Key()]
		if !ok {
			t.Fatalf("%s: %v is present but not in the model", what, tu)
		}
		if p, got := r.Rank(tu); p != pos || got != want {
			t.Fatalf("%s: Rank(%v) = (%d, %d), want (%d, %d)", what, tu, p, got, pos, want)
		}
		if want != 0 {
			ranked = append(ranked, RankedTuple{T: tu, Rank: want})
		}
	}
	if got := r.Ranked(); len(got)+len(ranked) > 0 && !reflect.DeepEqual(got, ranked) {
		t.Fatalf("%s: Ranked() = %v, want %v", what, got, ranked)
	}
}

// checkUnranked verifies that r answers every tuple unranked, as a
// snapshot view or a clone must.
func checkUnranked(t *testing.T, what string, r *Relation) {
	t.Helper()
	for pos, tu := range r.Tuples() {
		if p, rank := r.Rank(tu); p != pos || rank != 0 {
			t.Fatalf("%s: Rank(%v) = (%d, %d), want (%d, 0)", what, tu, p, rank, pos)
		}
	}
	if got := r.Ranked(); len(got) != 0 {
		t.Fatalf("%s: Ranked() = %v, want none", what, got)
	}
}

// TestRemoveKeepsColumnIndexesUnderChurn drives Insert/Remove/SetRank/
// Snapshot over an arity-2 and an arity-3 relation that keep indexes on
// a subset of their columns. Remove maintains those indexes and the
// rank column in place, so after every step each index must equal a
// rebuild (its key count the column's distinct count, each list's
// length a value's count), and every present tuple's rank the
// model's — a tuple removed and inserted again comes back unranked.
// Every snapshot taken along the way must keep answering from its own
// frozen tuples and indexes, with no ranks, while the live side moves
// on; a clone carries no ranks either.
func TestRemoveKeepsColumnIndexesUnderChurn(t *testing.T) {
	for _, tc := range []struct {
		arity, domain int
		indexed       []int
	}{
		{arity: 2, domain: 8, indexed: []int{1}},
		{arity: 3, domain: 4, indexed: []int{0, 2}},
		{arity: 3, domain: 5, indexed: []int{0, 1, 2}},
	} {
		rng := rand.New(rand.NewSource(int64(31 * tc.arity)))
		db := NewDatabase()
		r := db.Ensure("r", tc.arity)
		for _, col := range tc.indexed {
			r.EnsureIndex(col)
		}
		ranks := map[string]uint32{}
		var views []frozenView
		for step := 0; step < 20000; step++ {
			tu := make(Tuple, tc.arity)
			for i := range tu {
				tu[i] = InternInt(rng.Int63n(int64(tc.domain)))
			}
			switch k := rng.Intn(200); {
			case k == 0:
				views = append(views, frozenView{db.Snapshot().Relation("r"), append([]Tuple(nil), r.Tuples()...)})
				if len(views) > 16 {
					views = views[1:]
				}
			case k < 100:
				if r.Insert(tu) {
					ranks[tu.Key()] = 0
				}
			case k < 130:
				// Rank a present tuple; a draw of 0 unranks it.
				if pos, _ := r.Rank(tu); pos >= 0 {
					rank := uint32(rng.Intn(4))
					r.SetRank(pos, rank)
					ranks[tu.Key()] = rank
				}
			default:
				if r.Remove(tu) {
					delete(ranks, tu.Key())
				}
			}
			what := fmt.Sprintf("arity %d step %d", tc.arity, step)
			checkIndexed(t, what, r, r.Tuples(), tc.indexed)
			checkRanks(t, what, r, ranks)
			if step%100 == 0 {
				for i, v := range views {
					what := fmt.Sprintf("%s, snapshot %d", what, i)
					checkIndexed(t, what, v.rel, v.tuples, tc.indexed)
					checkUnranked(t, what, v.rel)
				}
				checkUnranked(t, what+", clone", r.Clone())
			}
		}
		for i, v := range views {
			what := fmt.Sprintf("arity %d, final, snapshot %d", tc.arity, i)
			checkIndexed(t, what, v.rel, v.tuples, tc.indexed)
			checkUnranked(t, what, v.rel)
		}
	}
}

// Benchmark-ish sanity: snapshots are cheap relative to Clone.
func TestSnapshotIsShallow(t *testing.T) {
	db := NewDatabase()
	for i := int64(0); i < 1000; i++ {
		db.Add("e", ast.Int(i), ast.Int(i+1))
	}
	snap := db.Snapshot()
	// Shared backing: the snapshot's values alias the live ones until a
	// mutation detaches. (Pointer equality of first elements proves no
	// deep copy happened.)
	if &snap.Relation("e").At(0)[0] != &db.Relation("e").At(0)[0] {
		t.Fatal("Snapshot deep-copied tuple storage")
	}
}

// TestSnapshotGenerations: every snapshot gets a process-unique,
// strictly increasing generation; live databases and clones report 0.
// Uniqueness must survive the database being rebuilt (the service swaps
// in a fresh database on recompute), which is why the counter is
// package-level, not per-database.
func TestSnapshotGenerations(t *testing.T) {
	db := NewDatabase()
	db.Ensure("e", 1).Insert(itup(1))
	if g := db.Generation(); g != 0 {
		t.Fatalf("live database generation = %d, want 0", g)
	}

	s1 := db.Snapshot()
	s2 := db.Snapshot()
	if s1.Generation() == 0 || s2.Generation() == 0 {
		t.Fatal("snapshots must carry a nonzero generation")
	}
	if s2.Generation() <= s1.Generation() {
		t.Fatalf("generations not increasing: %d then %d", s1.Generation(), s2.Generation())
	}

	// A different database's snapshots never collide with ours.
	other := NewDatabase()
	other.Ensure("e", 1).Insert(itup(2))
	s3 := other.Snapshot()
	if s3.Generation() == s1.Generation() || s3.Generation() == s2.Generation() {
		t.Fatalf("generation collision across databases: %d", s3.Generation())
	}
	if s3.Generation() <= s2.Generation() {
		t.Fatalf("generations not globally increasing: %d then %d", s2.Generation(), s3.Generation())
	}
}
