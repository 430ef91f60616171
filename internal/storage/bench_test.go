package storage

import (
	"fmt"
	"testing"
)

// benchTuples builds n distinct arity-2 tuples over a domain of
// interned symbols, cycling so column values repeat the way graph
// workloads do.
func benchTuples(n int) []Tuple {
	dom := make([]Value, 256)
	for i := range dom {
		dom[i] = InternSym(fmt.Sprintf("c%d", i))
	}
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{dom[i%len(dom)], dom[(i*7+3)%len(dom)]}
	}
	return out
}

func BenchmarkTupleHash(b *testing.B) {
	ts := benchTuples(1024)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= ts[i%len(ts)].Hash()
	}
	_ = sink
}

func BenchmarkInsert(b *testing.B) {
	ts := benchTuples(b.N)
	r := NewRelation("e", 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Insert(ts[i])
	}
}

func BenchmarkLookupNoBuild(b *testing.B) {
	ts := benchTuples(4096)
	r := NewRelation("e", 2)
	for _, t := range ts {
		r.Insert(t)
	}
	r.EnsureIndex(0)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		pos, ok := r.LookupNoBuild(0, ts[i%len(ts)][0])
		if !ok {
			b.Fatal("index missing")
		}
		n += len(pos)
	}
	_ = n
}

// BenchmarkEnsureIndex builds one column index over a relation shaped
// like a transitive closure: many tuples, few distinct values a column.
func BenchmarkEnsureIndex(b *testing.B) {
	r := NewRelation("tc", 2)
	for i := int64(0); i < 100000; i++ {
		r.Insert(Tuple{InternInt(i % 800), InternInt(i)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.colIndex[0].Store(nil)
		if len(r.EnsureIndex(0)) != 800 {
			b.Fatal("index lost values")
		}
	}
}

func BenchmarkEnsureSortedBuild(b *testing.B) {
	ts := benchTuples(4096)
	perm := []int{0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRelation("e", 2)
		for _, t := range ts {
			r.Insert(t)
		}
		b.StartTimer()
		r.EnsureSorted(perm)
	}
}

// BenchmarkEnsureSortedCatchUp measures the delta-aware merge: the
// index exists, a small suffix of new tuples arrived, and EnsureSorted
// sorts only the suffix and 2-way merges.
func BenchmarkEnsureSortedCatchUp(b *testing.B) {
	ts := benchTuples(4096 + 64)
	perm := []int{0, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRelation("e", 2)
		for _, t := range ts[:4096] {
			r.Insert(t)
		}
		r.EnsureSorted(perm)
		for _, t := range ts[4096:] {
			r.Insert(t)
		}
		b.StartTimer()
		r.EnsureSorted(perm)
	}
}

func BenchmarkSortedSeekGE(b *testing.B) {
	ts := benchTuples(4096)
	r := NewRelation("e", 2)
	for _, t := range ts {
		r.Insert(t)
	}
	idx := r.EnsureSorted([]int{0, 1})
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n += idx.SeekGE(0, 0, idx.Len(), ts[i%len(ts)][0])
	}
	_ = n
}

func BenchmarkSortedNarrow(b *testing.B) {
	ts := benchTuples(4096)
	r := NewRelation("e", 2)
	for _, t := range ts {
		r.Insert(t)
	}
	idx := r.EnsureSorted([]int{0, 1})
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		lo, hi := idx.Narrow(0, 0, idx.Len(), ts[i%len(ts)][0])
		n += hi - lo
	}
	_ = n
}

// BenchmarkRelationRemoveIndexed is the storage share of a deleting
// commit: remove one tuple from a 4096-tuple relation indexed on both
// columns, make sure both indexes are usable again (what the sweep's
// prepareIndexes and the planner's estimator do next), and put the
// tuple back so the size stays fixed. With indexes maintained in place
// the EnsureIndex calls find them built.
func BenchmarkRelationRemoveIndexed(b *testing.B) {
	// A 64-node complete graph: 4096 distinct tuples, 64 per value.
	var ts []Tuple
	for i := 0; i < 4096; i++ {
		ts = append(ts, Tuple{InternSym(fmt.Sprintf("c%d", i%64)), InternSym(fmt.Sprintf("c%d", i/64))})
	}
	r := NewRelation("e", 2)
	for _, t := range ts {
		r.Insert(t)
	}
	r.EnsureIndex(0)
	r.EnsureIndex(1)
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		t := ts[(i*31)%len(ts)]
		if !r.Remove(t) {
			b.Fatal("tuple missing")
		}
		n += len(r.EnsureIndex(0)) + len(r.EnsureIndex(1))
		r.Insert(t)
	}
	_ = n
}

// BenchmarkSnapshotDetach is the storage share of publishing a commit:
// one op is a Snapshot plus one Insert into an arity-2 relation with a
// column index on its first column, so every Insert pays the
// copy-on-write detach of the values, the membership table and the
// index. 6.2k tuples is write_sweep's tc, 258k read_point's.
func BenchmarkSnapshotDetach(b *testing.B) {
	for _, n := range []int{6200, 258000} {
		b.Run(fmt.Sprintf("tuples=%d", n), func(b *testing.B) {
			db := NewDatabase()
			r := db.Ensure("tc", 2)
			for i := int64(0); i < int64(n); i++ {
				r.Insert(Tuple{InternInt(i % 200), InternInt(i)})
			}
			r.EnsureIndex(0)
			adds := make([]Tuple, b.N)
			for i := range adds {
				adds[i] = Tuple{InternInt(int64(i % 200)), InternInt(int64(n + i))}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Snapshot()
				r.Insert(adds[i])
			}
		})
	}
}
