// Package storage implements the extensional layer of the deductive
// database: set-semantics relations over ground tuples, per-column hash
// indexes, columnar sorted indexes for the Generic Join path, and a
// catalog (Database) keyed by predicate name.
//
// Tuples are fixed-width vectors of interned Values (see intern.go), so
// tuple hashing is one multiply-xor per column and equality is word
// comparison. Every tuple container — Relation, TupleSet, ZSet — stores
// its tuples flat: one arity-strided []Value plus an open-addressed
// membership table of positions. Nothing in that layout holds a pointer,
// so the garbage collector never traces a tuple and a copy-on-write
// detach is a memmove. At returns a capped view of the array without
// allocating; it stays valid until the container's writer next mutates
// it (forever, on a snapshot view). Insert and Add copy their argument
// in. Column indexes are created lazily by the join engine and
// maintained incrementally afterwards; sorted indexes catch up to
// appended tuples by merging (never a full rebuild).
//
// Concurrency discipline: a relation has one writer at a time (the
// evaluation engine, or the service's committer under the session
// mutex); published snapshots are shared between reader goroutines,
// which probe only through the read-only paths (Contains, Len, At,
// LookupNoBuild) and LookupShared. LookupShared is the one way a reader
// may add to a shared view: it builds a missing column index off to the
// side, under the view's build mutex, and publishes the finished map
// with one atomic store — other readers see no index or a complete one,
// and nothing they could already see is ever written.
// EnsureIndex/Lookup/EnsureSorted mutate the relation on first use and
// must only be called while the relation is not shared.
package storage

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
)

// Tuple is a ground sequence of interned values.
type Tuple []Value

// TupleOf interns the ground terms into a tuple. It panics on
// variables, like every storage ingest path.
func TupleOf(terms ...ast.Term) Tuple { return TupleOfTerms(terms) }

// TupleOfTerms interns a term slice into a tuple.
func TupleOfTerms(terms []ast.Term) Tuple {
	t := make(Tuple, len(terms))
	for i, v := range terms {
		t[i] = Intern(v)
	}
	return t
}

// LookupTuple maps ground terms to an existing tuple without growing
// the interner; ok is false when some term was never interned (in which
// case no stored tuple can equal it).
func LookupTuple(terms []ast.Term) (Tuple, bool) {
	t := make(Tuple, len(terms))
	for i, v := range terms {
		val, ok := LookupTerm(v)
		if !ok {
			return nil, false
		}
		t[i] = val
	}
	return t, true
}

// Terms resolves the tuple back to its ground terms.
func (t Tuple) Terms() []ast.Term {
	out := make([]ast.Term, len(t))
	for i, v := range t {
		out[i] = v.Term()
	}
	return out
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a 64-bit hash of the tuple, consistent with Equal. With
// interned values this is one xor-multiply per column — no string bytes
// are ever touched on the probe path.
func (t Tuple) Hash() uint64 {
	h := uint64(fnvOffset)
	for _, v := range t {
		h = (h ^ (uint64(v) + 1)) * fnvPrime
	}
	return h
}

// Equal reports component-wise equality — word compares on interned
// values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Less orders tuples lexicographically by term order (Int < Sym, then
// by value) — the deterministic-output order. The Generic Join path
// sorts by raw Value instead (see sorted.go).
func (t Tuple) Less(u Tuple) bool {
	for i := 0; i < len(t) && i < len(u); i++ {
		switch CompareValues(t[i], u[i]) {
		case -1:
			return true
		case 1:
			return false
		}
	}
	return len(t) < len(u)
}

// String renders the tuple as (a, b, c).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// tupleIndex is the membership table of the flat core: an
// open-addressed table mapping tuple hashes to positions in the flat
// value array. Each slot is one word: the low 32 bits of the tuple's
// hash above position+1, so 0 marks an empty slot. A table never has
// more than 2³² slots (grow refuses to), so a slot's home h & mask lies
// within the stored hash bits and growth and deletion rehash from the
// slot alone. Linear probing and backward-shift deletion keep the hot
// insert path on one flat array with no allocation — no Go map, no
// per-bucket slices — and make a clone one memmove of 8 B per slot.
// Distinct tuples that share a slot's hash bits simply occupy separate
// slots; equality is always confirmed against the stored values, so
// correctness never depends on hash quality. Every method takes the
// tuple's hash, so callers that hold one (the semi-naive inner loop
// does) never pay it twice.
type tupleIndex struct {
	slots []uint64 // slot → hash<<32 | position+1; 0 marks an empty slot
	used  int
}

// slotOf packs hash h and position pos into one slot word.
func slotOf(h uint64, pos int) uint64 { return h<<32 | uint64(uint32(pos+1)) }

// slotPos returns the position a live slot holds.
func slotPos(s uint64) int { return int(uint32(s)) - 1 }

// slotHome returns the home index of a live slot in a table of mask+1
// slots.
func slotHome(s, mask uint64) uint64 { return s >> 32 & mask }

// hashTag reports whether live slot s carries the hash bits of h.
func hashTag(s, h uint64) bool { return uint32(s>>32) == uint32(h) }

// insert records pos under hash h. The caller has established that no
// equal tuple is indexed.
func (ix *tupleIndex) insert(h uint64, pos int) {
	if (ix.used+1)*4 >= len(ix.slots)*3 {
		ix.grow()
	}
	mask := uint64(len(ix.slots) - 1)
	i := h & mask
	for ix.slots[i] != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = slotOf(h, pos)
	ix.used++
}

// newTupleIndex returns an empty table that holds n positions without
// growing.
func newTupleIndex(n int) tupleIndex {
	if n == 0 {
		return tupleIndex{}
	}
	size := 8
	for n*4 >= size*3 {
		size *= 2
	}
	return tupleIndex{slots: make([]uint64, size)}
}

// grow doubles the table and reinserts every live slot. The stored hash
// bits make the rehash a pure probe — tuples are never touched.
func (ix *tupleIndex) grow() {
	newCap := 8
	if len(ix.slots) > 0 {
		newCap = len(ix.slots) * 2
	}
	if uint64(newCap) > 1<<32 {
		panic("storage: a tuple set outgrew 2³² membership slots")
	}
	slots := make([]uint64, newCap)
	mask := uint64(newCap - 1)
	for _, s := range ix.slots {
		if s == 0 {
			continue
		}
		j := slotHome(s, mask)
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = s
	}
	ix.slots = slots
}

// clone copies the table (the copy-on-write detach path): one memmove.
func (ix *tupleIndex) clone() tupleIndex {
	out := tupleIndex{used: ix.used}
	if ix.slots != nil {
		out.slots = append([]uint64(nil), ix.slots...)
	}
	return out
}

// slotOfPos returns the index of the slot holding pos, probing from
// its hash h, or -1.
func (ix *tupleIndex) slotOfPos(h uint64, pos int) int {
	if ix.used == 0 {
		return -1
	}
	mask := uint64(len(ix.slots) - 1)
	want := uint32(pos + 1)
	for i := h & mask; ix.slots[i] != 0; i = (i + 1) & mask {
		if uint32(ix.slots[i]) == want {
			return int(i)
		}
	}
	return -1
}

// dropPos removes the slot holding pos, probing from its hash h, then
// backward-shifts displaced entries so later probes stay correct
// without tombstones.
func (ix *tupleIndex) dropPos(h uint64, pos int) {
	at := ix.slotOfPos(h, pos)
	if at < 0 {
		return
	}
	ix.used--
	mask := uint64(len(ix.slots) - 1)
	i := uint64(at)
	for {
		ix.slots[i] = 0
		j := i
		for {
			j = (j + 1) & mask
			if ix.slots[j] == 0 {
				return
			}
			// The entry at j stays put iff its home slot k lies in the
			// cyclic interval (i, j]; otherwise it fills the hole at i.
			k := slotHome(ix.slots[j], mask)
			stays := false
			if i <= j {
				stays = i < k && k <= j
			} else {
				stays = i < k || k <= j
			}
			if !stays {
				ix.slots[i] = ix.slots[j]
				i = j
				break
			}
		}
	}
}

// replacePos rewrites the slot holding old to new, probing from hash h.
// Positions are unique across the table, so the first match is the only
// one.
func (ix *tupleIndex) replacePos(h uint64, old, new int) {
	if at := ix.slotOfPos(h, old); at >= 0 {
		ix.slots[at] = slotOf(h, new)
	}
}

// flat is the storage core Relation, TupleSet and ZSet share: n tuples
// of one arity back to back in vals, and a membership table over their
// positions. The arity is fixed by the first tuple pushed (a Relation
// fixes it at construction), so the zero value is an empty set.
type flat struct {
	arity int
	n     int // tuples stored; arity-0 tuples occupy no values
	vals  []Value
	index tupleIndex
}

// Len returns the number of tuples.
func (f *flat) Len() int { return f.n }

// At returns the tuple at position pos: a capped view of the flat
// array, valid until the container's writer next mutates it.
func (f *flat) At(pos int) Tuple {
	i := pos * f.arity
	return Tuple(f.vals[i : i+f.arity : i+f.arity])
}

// Contains reports membership. Read-only.
func (f *flat) Contains(t Tuple) bool { return f.Pos(t) >= 0 }

// Pos returns the position of t, or -1 if absent. Read-only.
func (f *flat) Pos(t Tuple) int { return f.find(t, t.Hash()) }

// Tuples returns a copy of the tuples in position order, backed by one
// fresh array, so it outlives later mutations. It allocates the whole
// container: production paths walk Len and At instead.
func (f *flat) Tuples() []Tuple {
	vals := append([]Value(nil), f.vals...)
	out := make([]Tuple, f.n)
	for i := range out {
		out[i] = vals[i*f.arity : (i+1)*f.arity : (i+1)*f.arity]
	}
	return out
}

// find returns the position of t, or -1 if absent.
func (f *flat) find(t Tuple, h uint64) int {
	ix := &f.index
	if ix.used == 0 || len(t) != f.arity {
		return -1
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h & mask; ix.slots[i] != 0; i = (i + 1) & mask {
		if s := ix.slots[i]; hashTag(s, h) && f.At(slotPos(s)).Equal(t) {
			return slotPos(s)
		}
	}
	return -1
}

// push appends t, which the caller has established is absent, at
// position n, copying its values in.
func (f *flat) push(t Tuple, h uint64) {
	if f.n == 0 {
		f.arity = len(t)
	} else if len(t) != f.arity {
		panic(fmt.Sprintf("storage: tuple %v of arity %d added to a set of arity %d", t, len(t), f.arity))
	}
	f.index.insert(h, f.n)
	f.vals = append(f.vals, t...)
	f.n++
}

// removeAt deletes the tuple at pos (whose hash is h) by moving the
// last tuple's values into its place. Those values overwrite whatever
// At returned for pos.
func (f *flat) removeAt(pos int, h uint64) {
	last := f.n - 1
	f.index.dropPos(h, pos)
	if pos != last {
		moved := f.At(last)
		f.index.replacePos(moved.Hash(), last, pos)
		copy(f.vals[pos*f.arity:], moved)
	}
	f.vals = f.vals[:last*f.arity]
	f.n = last
}

// clone copies the core with room for headroom more values: the
// memmoves a copy-on-write detach costs.
func (f *flat) clone(headroom int) flat {
	vals := make([]Value, len(f.vals), len(f.vals)+headroom)
	copy(vals, f.vals)
	return flat{arity: f.arity, n: f.n, vals: vals, index: f.index.clone()}
}

// TupleSet is a standalone set of tuples with insertion-order
// iteration (Len, At) up to swap-removal.
type TupleSet struct{ flat }

// NewTupleSet returns an empty set.
func NewTupleSet() *TupleSet {
	return &TupleSet{}
}

// Add copies t in if absent and reports whether it was new.
func (s *TupleSet) Add(t Tuple) bool {
	h := t.Hash()
	if s.find(t, h) >= 0 {
		return false
	}
	s.push(t, h)
	return true
}

// Remove deletes t if present and reports whether it was. The set's
// iteration order is not preserved across removals: the last tuple is
// swapped into the vacated slot.
func (s *TupleSet) Remove(t Tuple) bool {
	h := t.Hash()
	pos := s.find(t, h)
	if pos >= 0 {
		s.removeAt(pos, h)
	}
	return pos >= 0
}

// Relation is a set of equal-arity tuples with optional per-column hash
// indexes and optional columnar sorted indexes (sorted.go).
type Relation struct {
	Name  string
	Arity int

	flat
	// ranks, when non-nil, is aligned with the tuples: ranks[pos] is the
	// derivation layer incremental maintenance certifies the tuple at
	// pos with (eval.ZState), 0 for an unranked tuple (a seed fact). It
	// is allocated by the first SetRank, so relations nobody ranks — the
	// EDB — carry no column. Only the writer reads or writes it: snapshot
	// views never carry it, so detach never copies it.
	ranks []uint32
	// colIndex[i] maps a column-i value to the ascending positions of
	// tuples holding it; nil until the column is first indexed. A slot is
	// an atomic pointer because readers of a shared snapshot view fill
	// empty slots (LookupShared); the writer of an unshared relation
	// pays one uncontended load per access.
	colIndex []atomic.Pointer[columnIndex]
	// buildMu serializes LookupShared's builds, so concurrent readers
	// that miss the same column build it once.
	buildMu sync.Mutex
	// sorted holds the columnar sorted indexes by column-permutation
	// signature; nil until EnsureSorted is called. Entries are immutable
	// objects — catch-up replaces an entry with a freshly merged one, so
	// snapshot holders can keep reading the old object.
	sorted map[string]*SortedIndex
	// cow marks the backing structures as shared with a snapshot
	// (Database.Snapshot). Every mutating method calls detach first,
	// which copies the shared state, so snapshot holders can read their
	// view without locks while the live relation keeps mutating.
	cow bool
}

// detach un-shares the relation's backing structures after a snapshot:
// the first mutation following Snapshot pays one copy, later mutations
// are free again. Read paths never call it. The values and the
// membership table are memmoves. The value copy keeps a sixteenth of
// append headroom, so a commit that inserts up to that share of the
// relation does not reallocate and copy it a second time.
//
// Each column index gets a map of its own, but no position is copied:
// every list stays shared with the snapshot until the writer changes
// it. A list whose capacity equals its length may be shared, so detach
// clips each list it hands the writer; Insert's append then reallocates
// a shared list by itself, and dropPosition and unindexSwap copy one
// before shifting it in place.
func (r *Relation) detach() {
	if !r.cow {
		return
	}
	r.flat = r.clone(len(r.vals)/16 + r.Arity)
	for i := range r.colIndex {
		idx := r.colIndex[i].Load()
		if idx == nil {
			continue
		}
		ci := maps.Clone(*idx)
		for v, positions := range ci {
			if cap(positions) != len(positions) {
				ci[v] = positions[:len(positions):len(positions)]
			}
		}
		r.colIndex[i].Store(&ci)
	}
	// Sorted indexes are immutable; a private map over the shared
	// objects suffices (catch-up installs new objects into it).
	r.sorted = maps.Clone(r.sorted)
	r.cow = false
}

// snapshotRef returns a read-only view sharing r's current backing
// structures and marks both sides copy-on-write. The view is immutable
// by contract (mutating it would detach it first, leaving r alone), so
// concurrent readers need no locking.
func (r *Relation) snapshotRef() *Relation {
	r.cow = true
	ci := make([]atomic.Pointer[columnIndex], len(r.colIndex))
	for i := range ci {
		ci[i].Store(r.colIndex[i].Load())
	}
	return &Relation{
		Name: r.Name, Arity: r.Arity,
		flat: r.flat, colIndex: ci,
		sorted: maps.Clone(r.sorted), cow: true,
	}
}

// NewRelation creates an empty relation.
func NewRelation(name string, arity int) *Relation {
	return &Relation{
		Name:     name,
		Arity:    arity,
		flat:     flat{arity: arity},
		colIndex: make([]atomic.Pointer[columnIndex], arity),
	}
}

// BuildRelation makes a relation of n tuples from their values, laid
// out flat in position order (arity values per tuple), and, when ranks
// is not nil, their rank column. The relation takes both slices over.
// Its membership table is sized once and filled in one pass over the
// positions, so a checkpoint restore pays no table growth and no
// per-tuple Insert. A tuple that occurs twice is an error.
func BuildRelation(name string, arity, n int, vals []Value, ranks []uint32) (*Relation, error) {
	if len(vals) != n*arity || ranks != nil && len(ranks) != n {
		panic(fmt.Sprintf("storage: %d values and %d ranks for %d tuples of arity %d", len(vals), len(ranks), n, arity))
	}
	r := NewRelation(name, arity)
	r.vals, r.n, r.ranks = vals, n, ranks
	ix := newTupleIndex(n)
	mask := uint64(len(ix.slots) - 1)
	for pos := 0; pos < n; pos++ {
		// One probe both looks for an equal tuple and finds the free slot.
		t := r.At(pos)
		h := t.Hash()
		i := h & mask
		for ; ix.slots[i] != 0; i = (i + 1) & mask {
			if s := ix.slots[i]; hashTag(s, h) && r.At(slotPos(s)).Equal(t) {
				return nil, fmt.Errorf("storage: tuple %v occurs twice in %s", t, name)
			}
		}
		ix.slots[i] = slotOf(h, pos)
	}
	ix.used = n
	r.index = ix
	return r, nil
}

// Insert copies t in if absent; it reports whether the tuple was new.
// The tuple must have the relation's arity.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("storage: arity mismatch inserting %v into %s/%d", t, r.Name, r.Arity))
	}
	h := t.Hash()
	if r.find(t, h) >= 0 {
		return false
	}
	r.detach()
	pos := r.n
	r.push(t, h)
	if r.ranks != nil {
		r.ranks = append(r.ranks, 0)
	}
	for col := range r.colIndex {
		if idx := r.colIndex[col].Load(); idx != nil {
			(*idx)[t[col]] = append((*idx)[t[col]], pos)
		}
	}
	return true
}

// Remove deletes t if present and reports whether it was. The
// swap-removal moves the last tuple into the vacated position; the
// membership index, the rank column and every built column index
// follow that renumbering in place, so a removal costs O(change), not a
// rebuild of each index on its next use. Sorted indexes are dropped
// (they rebuild lazily). Iteration order is not preserved across
// removals. Removal is a maintenance-time operation; it must not run
// during an evaluation round.
func (r *Relation) Remove(t Tuple) bool {
	h := t.Hash()
	pos := r.find(t, h)
	if pos < 0 {
		return false
	}
	// t may be At(pos) of this very relation, whose values the swap
	// overwrites: keep a private copy for the index updates.
	var buf [8]Value
	t = append(buf[:0], t...)
	r.detach()
	last := r.n - 1
	moved := r.At(last)
	r.removeAt(pos, h)
	if r.ranks != nil {
		r.ranks[pos] = r.ranks[last]
		r.ranks = r.ranks[:last]
	}
	for col := range r.colIndex {
		if idx := r.colIndex[col].Load(); idx != nil {
			unindexSwap(*idx, t[col], moved[col], pos, last)
		}
	}
	r.sorted = nil
	return true
}

// unindexSwap updates one column index for a swap-removal: the tuple at
// pos (column value gone) leaves, and the tuple at last (column value
// moved) now lives at pos. Position lists stay ascending — exactly what
// a rebuild would produce — which makes last, the largest position in
// the relation, the tail of its list. A list that empties is deleted,
// so len(index) stays the column's distinct count.
func unindexSwap(idx map[Value][]int, gone, moved Value, pos, last int) {
	if gone == moved {
		// One list loses a member and renames last to pos: whichever of
		// the two tuples was removed, the net effect is dropping the tail.
		dropPosition(idx, gone, last)
		return
	}
	dropPosition(idx, gone, pos)
	l := owned(idx, moved)
	i := sort.SearchInts(l, pos)
	copy(l[i+1:], l[i:len(l)-1])
	l[i] = pos
}

// dropPosition removes pos from v's ascending position list.
func dropPosition(idx map[Value][]int, v Value, pos int) {
	if len(idx[v]) == 1 {
		delete(idx, v)
		return
	}
	l := owned(idx, v)
	i := sort.SearchInts(l, pos)
	idx[v] = append(l[:i], l[i+1:]...)
}

// owned returns v's position list ready to be shifted in place. A list
// whose capacity equals its length may be shared with a snapshot (see
// detach), so it is first replaced by a private copy with one slot of
// headroom, which marks the copy as the writer's own.
func owned(idx map[Value][]int, v Value) []int {
	l := idx[v]
	if cap(l) == len(l) {
		l = append(make([]int, 0, len(l)+1), l...)
		idx[v] = l
	}
	return l
}

// RankedTuple is a tuple with its nonzero rank: the unit in which ranks
// leave a relation (checkpoints, replication bootstrap).
type RankedTuple struct {
	T    Tuple
	Rank uint32
}

// Rank answers "present?" and "rank?" with one probe: pos is t's
// position, -1 when t is absent, and rank is 0 when t is unranked. A
// snapshot view reports every tuple unranked.
func (r *Relation) Rank(t Tuple) (pos int, rank uint32) {
	pos = r.Pos(t)
	if pos >= 0 && r.ranks != nil {
		rank = r.ranks[pos]
	}
	return pos, rank
}

// SetRank sets the rank of the tuple at pos (0 unranks it). The column
// is the writer's alone, so no detach is needed.
func (r *Relation) SetRank(pos int, rank uint32) {
	if r.ranks == nil {
		if rank == 0 {
			return
		}
		r.ranks = make([]uint32, r.n)
	}
	r.ranks[pos] = rank
}

// RankColumn returns the rank column, aligned with the positions, or
// nil when nothing ever ranked the relation. It is the writer's view:
// the caller must not modify it, and it is valid until the relation's
// next mutation.
func (r *Relation) RankColumn() []uint32 { return r.ranks }

// Values returns the tuples' values back to back in position order,
// Arity per tuple: the flat array itself, under RankColumn's terms.
func (r *Relation) Values() []Value { return r.vals[: r.n*r.Arity : r.n*r.Arity] }

// Ranked returns the ranked tuples in relation order; the tuples are
// At views, valid until the relation's next mutation.
func (r *Relation) Ranked() []RankedTuple {
	out := make([]RankedTuple, 0, len(r.ranks))
	for pos, rank := range r.ranks {
		if rank != 0 {
			out = append(out, RankedTuple{T: r.At(pos), Rank: rank})
		}
	}
	return out
}

// columnIndex is one column's hash index: value → ascending positions.
type columnIndex = map[Value][]int

// buildColumnIndex scans the tuples into the index of column col at
// its exact size. The first pass numbers the distinct values and counts
// them, touching the hash table once per tuple; the second is pure
// array work, filling every position list inside one backing array.
// Each list's capacity is clipped to its length, so a later append to
// one list reallocates it instead of running into its neighbour, and a
// later in-place shift copies it first (see detach's sharing rule).
func (f *flat) buildColumnIndex(col int) columnIndex {
	ids := make(map[Value]int32)
	idOf := make([]int32, f.n) // tuple position → its value's number
	var vals []Value           // number → value
	var ends []int             // number → count, then end of its list
	for pos := range idOf {
		v := f.vals[pos*f.arity+col]
		id, ok := ids[v]
		if !ok {
			id = int32(len(vals))
			ids[v] = id
			vals = append(vals, v)
			ends = append(ends, 0)
		}
		idOf[pos] = id
		ends[id]++
	}
	sum := 0
	for id, n := range ends {
		sum += n
		ends[id] = sum - n // start of the list; advanced to its end below
	}
	backing := make([]int, f.n)
	for pos, id := range idOf {
		backing[ends[id]] = pos
		ends[id]++
	}
	idx := make(columnIndex, len(vals))
	start := 0
	for id, v := range vals {
		idx[v] = backing[start:ends[id]:ends[id]]
		start = ends[id]
	}
	return idx
}

// EnsureIndex builds (if needed) and returns the hash index on column
// col. It mutates the relation on first use, so it is for a relation's
// one writer; readers of a shared view use LookupShared.
//
// Building a missing index is safe on a copy-on-write relation without
// detaching: the colIndex slice itself is never shared (snapshotRef
// makes the view its own), and a freshly built map mutates nothing the
// other side can see. Only in-place updates of existing inner maps
// (Insert, and Remove's position renumbering) require detach.
func (r *Relation) EnsureIndex(col int) map[Value][]int {
	if idx := r.colIndex[col].Load(); idx != nil {
		return *idx
	}
	idx := r.buildColumnIndex(col)
	r.colIndex[col].Store(&idx)
	return idx
}

// Lookup returns the positions of tuples whose column col equals v,
// using (and building if necessary) the column index.
func (r *Relation) Lookup(col int, v Value) []int {
	return r.EnsureIndex(col)[v]
}

// Selectivity returns the fraction of tuples whose column col holds
// the constant t, read from the column index (built on first use): 0
// on an empty relation or for a constant no stored tuple can hold. It
// is the planner's frequency statistic, exact because the index is.
func (r *Relation) Selectivity(col int, t ast.Term) float64 {
	v, ok := LookupTerm(t)
	if !ok || r.n == 0 {
		return 0
	}
	return float64(len(r.Lookup(col, v))) / float64(r.n)
}

// LookupNoBuild returns the positions of tuples whose column col equals
// v if the column index already exists; ok is false when the index has
// not been built. It never mutates the relation, so concurrent readers
// of a published snapshot may call it.
func (r *Relation) LookupNoBuild(col int, v Value) (positions []int, ok bool) {
	idx := r.colIndex[col].Load()
	if idx == nil {
		return nil, false
	}
	return (*idx)[v], true
}

// LookupShared is Lookup for the concurrent readers of a published
// snapshot view: a missing index is built once, however many readers
// miss it together, and published with one atomic store, so a reader
// sees no index or a complete one. built reports that this call did the
// build. The index lives on this view only — the live relation the view
// was taken from never sees it (the service asks the writer to keep the
// column from its next publish on; see serve's session.publish).
func (r *Relation) LookupShared(col int, v Value) (positions []int, built bool) {
	idx := r.colIndex[col].Load()
	if idx == nil {
		r.buildMu.Lock()
		if idx = r.colIndex[col].Load(); idx == nil {
			m := r.buildColumnIndex(col)
			idx, built = &m, true
			r.colIndex[col].Store(idx)
		}
		r.buildMu.Unlock()
	}
	return (*idx)[v], built
}

// IndexedColumns returns the columns that currently have a hash index
// (whoever built it: the writer, or a reader of this view), in
// ascending order. Observability only: stats reports use it to show
// which probe paths a run had available.
func (r *Relation) IndexedColumns() []int {
	var cols []int
	for i := range r.colIndex {
		if r.colIndex[i].Load() != nil {
			cols = append(cols, i)
		}
	}
	return cols
}

// Sorted returns a copy of the tuples (see Tuples) in lexicographic
// term order — the deterministic-printing order, stable across process
// restarts (unlike raw Value order, which depends on interning order).
func (r *Relation) Sorted() []Tuple {
	out := r.Tuples()
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Clone returns a deep copy of the tuples and their membership table:
// column and sorted indexes are not copied (they rebuild lazily) and
// neither are ranks (every tuple is unranked).
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.Name, r.Arity)
	out.flat = r.clone(0)
	return out
}

// snapshotGen issues process-wide unique, monotonically increasing
// snapshot generation numbers. A package-level counter (rather than a
// per-database one) keeps generations unique even when a service
// rebuilds a session database from scratch and resumes snapshotting
// from the fresh copy — a cache keyed by generation can never confuse
// a new database's snapshot with an older one's.
var snapshotGen atomic.Uint64

// BumpGeneration raises the process-wide generation counter to at
// least min. Crash recovery calls this with the generation recorded in
// a checkpoint, so generations stay strictly increasing across process
// restarts and a generation-keyed cache can never alias a pre-crash
// snapshot with a post-recovery one.
func BumpGeneration(min uint64) {
	for {
		cur := snapshotGen.Load()
		if cur >= min || snapshotGen.CompareAndSwap(cur, min) {
			return
		}
	}
}

// Database is a catalog of relations keyed by predicate name.
type Database struct {
	rels map[string]*Relation
	// gen is the generation stamp assigned when this database was
	// produced by Snapshot; 0 on live (mutable) databases and clones.
	gen uint64
}

// Generation returns the snapshot generation stamp: a process-wide
// unique, strictly increasing number assigned by Snapshot. Live
// databases report 0. Two snapshots with equal generation are the same
// snapshot, so a cached result tagged with a generation stays valid
// exactly while that snapshot is the published one.
func (db *Database) Generation() uint64 { return db.gen }

// NewDatabase creates an empty database.
func NewDatabase() *Database { return &Database{rels: make(map[string]*Relation)} }

// Relation returns the relation for pred, or nil if absent.
func (db *Database) Relation(pred string) *Relation { return db.rels[pred] }

// Ensure returns the relation for pred, creating it with the given
// arity if absent. It panics on an arity clash, which indicates an
// inconsistent program. A new relation keeps a copy of pred, so pred
// may be a substring of a larger text.
func (db *Database) Ensure(pred string, arity int) *Relation {
	if r, ok := db.rels[pred]; ok {
		if r.Arity != arity {
			panic(fmt.Sprintf("storage: predicate %s used with arities %d and %d", pred, r.Arity, arity))
		}
		return r
	}
	r := NewRelation(strings.Clone(pred), arity)
	db.rels[r.Name] = r
	return r
}

// Replace installs rel under its name, overwriting any existing
// relation. It is used by repair utilities that rebuild a relation
// without some tuples (relations have no delete, matching Datalog's
// monotone evaluation).
func (db *Database) Replace(rel *Relation) { db.rels[rel.Name] = rel }

// Add interns the ground terms and inserts the tuple for pred,
// creating the relation on first use. It reports whether the tuple was
// new.
func (db *Database) Add(pred string, vals ...ast.Term) bool {
	return db.Ensure(pred, len(vals)).Insert(TupleOfTerms(vals))
}

// AddTuple inserts an already-interned tuple for pred, creating the
// relation on first use.
func (db *Database) AddTuple(pred string, t Tuple) bool {
	return db.Ensure(pred, len(t)).Insert(t)
}

// AddFact inserts a ground atom.
func (db *Database) AddFact(a ast.Atom) bool {
	if !a.IsGround() {
		panic(fmt.Sprintf("storage: non-ground fact %s", a))
	}
	return db.Add(a.Pred, a.Args...)
}

// Preds returns the predicate names present, sorted.
func (db *Database) Preds() []string {
	out := make([]string, 0, len(db.rels))
	for p := range db.rels {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of tuples stored for pred (0 if absent).
func (db *Database) Count(pred string) int {
	if r := db.rels[pred]; r != nil {
		return r.Len()
	}
	return 0
}

// Sizes returns the tuple count of every relation, keyed by predicate.
// Stats and profiling reports use it to snapshot relation growth.
func (db *Database) Sizes() map[string]int {
	out := make(map[string]int, len(db.rels))
	for p, r := range db.rels {
		out[p] = r.Len()
	}
	return out
}

// TotalTuples returns the number of tuples across all relations.
func (db *Database) TotalTuples() int {
	n := 0
	for _, r := range db.rels {
		n += r.Len()
	}
	return n
}

// Remove deletes a tuple for pred if present and reports whether it
// was. A missing relation is not an error.
func (db *Database) Remove(pred string, vals ...ast.Term) bool {
	if r := db.rels[pred]; r != nil {
		t, ok := LookupTuple(vals)
		if !ok {
			return false
		}
		return r.Remove(t)
	}
	return false
}

// RemoveTuple deletes an already-interned tuple for pred if present.
func (db *Database) RemoveTuple(pred string, t Tuple) bool {
	if r := db.rels[pred]; r != nil {
		return r.Remove(t)
	}
	return false
}

// Snapshot returns a copy-on-write view of the database: an O(number of
// relations) operation that shares every relation's backing storage
// with the live database. The snapshot is immutable by contract and
// safe for concurrent lock-free reads (Contains, Len, At,
// LookupNoBuild, LookupShared, Sorted, String); the live database stays fully
// mutable — its first mutation of each shared relation detaches a
// private copy, leaving the snapshot's view frozen at its tuple
// count as of this call. The long-running service publishes one
// snapshot per committed update batch and serves all reads from it.
func (db *Database) Snapshot() *Database {
	out := NewDatabase()
	out.gen = snapshotGen.Add(1)
	for p, r := range db.rels {
		out.rels[p] = r.snapshotRef()
	}
	return out
}

// Clone deep-copies the database.
func (db *Database) Clone() *Database {
	out := NewDatabase()
	for p, r := range db.rels {
		out.rels[p] = r.Clone()
	}
	return out
}

// Equal reports whether two databases hold exactly the same relations
// and tuples (insertion order ignored).
func (db *Database) Equal(other *Database) bool {
	return db.subset(other) && other.subset(db)
}

func (db *Database) subset(other *Database) bool {
	for p, r := range db.rels {
		o := other.rels[p]
		for pos := 0; pos < r.n; pos++ {
			if o == nil || !o.Contains(r.At(pos)) {
				return false
			}
		}
	}
	return true
}

// String renders the database deterministically, one fact per line.
func (db *Database) String() string {
	var sb strings.Builder
	for _, p := range db.Preds() {
		for _, t := range db.rels[p].Sorted() {
			sb.WriteString(p)
			sb.WriteString(t.String())
			sb.WriteString(".\n")
		}
	}
	return sb.String()
}
