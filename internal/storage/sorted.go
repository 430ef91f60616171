package storage

import (
	"sort"
	"strconv"
	"strings"
)

// This file implements columnar sorted indexes: per-relation, per-
// column-permutation structures the Generic Join path probes with
// binary search and leapfrog intersection. An index over permutation
// (c0, c1, ...) stores the relation's tuples sorted lexicographically
// by (t[c0], t[c1], ...) under raw Value order, laid out column-wise —
// cols[k][i] is column perm[k] of the i-th tuple in sorted order, so a
// leapfrog pass over one join variable touches one contiguous []Value.
//
// Indexes are immutable once built. A relation keeps them in a map
// keyed by the permutation signature; growing the relation leaves the
// installed index stale, and EnsureSorted catches it up by sorting only
// the appended suffix and merging it with the existing runs into a new
// object (O(n + delta) after the delta sort, never a full re-sort).
// Immutability is what makes snapshot sharing trivial: snapshotRef and
// detach copy the map, not the indexes, and a catch-up on the live side
// installs a new object into the live map while snapshot holders keep
// the one they saw.
//
// Like EnsureIndex, EnsureSorted mutates the relation (the map) and
// must only be called while the relation is not shared between
// goroutines — the engine calls it at the start of a rule firing.

// SortedIndex is an immutable columnar view of a relation's tuples
// sorted by a column permutation. See the file comment for layout and
// sharing rules.
type SortedIndex struct {
	perm []int
	n    int
	cols [][]Value
}

// Len returns the number of tuples covered. Equal to the relation's
// size at the last EnsureSorted call.
func (ix *SortedIndex) Len() int { return ix.n }

// Perm returns the column permutation (callers must not mutate it).
func (ix *SortedIndex) Perm() []int { return ix.perm }

// Col returns the values of permuted column k in sorted order (callers
// must not mutate it).
func (ix *SortedIndex) Col(k int) []Value { return ix.cols[k] }

// SeekGE returns the first position in [lo, hi) whose column-k value is
// >= v, or hi if none. Within any range fixed by columns 0..k-1, column
// k is sorted, so this is a binary search.
func (ix *SortedIndex) SeekGE(k, lo, hi int, v Value) int {
	col := ix.cols[k]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if col[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SeekGT returns the first position in [lo, hi) whose column-k value is
// > v, or hi if none.
func (ix *SortedIndex) SeekGT(k, lo, hi int, v Value) int {
	col := ix.cols[k]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if col[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Narrow restricts [lo, hi) to the sub-range where column k equals v.
// An empty range (lo == hi) means v is absent.
func (ix *SortedIndex) Narrow(k, lo, hi int, v Value) (int, int) {
	start := ix.SeekGE(k, lo, hi, v)
	return start, ix.SeekGT(k, start, hi, v)
}

// permKey builds the map signature of a permutation.
func permKey(perm []int) string {
	var sb strings.Builder
	for i, c := range perm {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(c))
	}
	return sb.String()
}

// buildSorted sorts the tuple range [from, to) of f by perm and
// returns the columnar result.
func (f *flat) buildSorted(from, to int, perm []int) [][]Value {
	n := to - from
	order := make([]int, n)
	for i := range order {
		order[i] = from + i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := f.At(order[a]), f.At(order[b])
		for _, c := range perm {
			if ta[c] != tb[c] {
				return ta[c] < tb[c]
			}
		}
		return false
	})
	cols := make([][]Value, len(perm))
	for k, c := range perm {
		col := make([]Value, n)
		for i, pos := range order {
			col[i] = f.vals[pos*f.arity+c]
		}
		cols[k] = col
	}
	return cols
}

// mergeSorted merges two columnar sorted runs into one.
func mergeSorted(a, b [][]Value, perm []int) [][]Value {
	na, nb := 0, 0
	if len(a) > 0 {
		na = len(a[0])
	}
	if len(b) > 0 {
		nb = len(b[0])
	}
	out := make([][]Value, len(perm))
	for k := range out {
		out[k] = make([]Value, 0, na+nb)
	}
	i, j := 0, 0
	for i < na && j < nb {
		if !lessCols2(b, j, a, i) { // a <= b
			for k := range out {
				out[k] = append(out[k], a[k][i])
			}
			i++
		} else {
			for k := range out {
				out[k] = append(out[k], b[k][j])
			}
			j++
		}
	}
	for ; i < na; i++ {
		for k := range out {
			out[k] = append(out[k], a[k][i])
		}
	}
	for ; j < nb; j++ {
		for k := range out {
			out[k] = append(out[k], b[k][j])
		}
	}
	return out
}

// lessCols2 orders row i of x against row j of y lexicographically.
func lessCols2(x [][]Value, i int, y [][]Value, j int) bool {
	for k := range x {
		a, b := x[k][i], y[k][j]
		if a != b {
			return a < b
		}
	}
	return false
}

// EnsureSorted builds (or catches up) and returns the sorted index over
// the given column permutation. The permutation must cover a subset of
// the relation's columns with no repeats; GJ always passes all columns
// of the atom in probe order. Catch-up sorts only the tuples appended
// since the index was built and merges them with the existing runs —
// the delta-aware maintenance path incremental evaluation relies on.
//
// Mutates the relation's index map; single-threaded callers only.
func (r *Relation) EnsureSorted(perm []int) *SortedIndex {
	key := permKey(perm)
	if r.sorted == nil {
		r.sorted = make(map[string]*SortedIndex)
	}
	ix := r.sorted[key]
	if ix != nil && ix.n == r.n {
		return ix
	}
	p := append([]int(nil), perm...)
	var cols [][]Value
	if ix == nil || ix.n == 0 {
		cols = r.buildSorted(0, r.n, p)
	} else {
		delta := r.buildSorted(ix.n, r.n, p)
		cols = mergeSorted(ix.cols, delta, p)
	}
	nix := &SortedIndex{perm: p, n: r.n, cols: cols}
	r.sorted[key] = nix
	return nix
}
