package durable

import (
	"fmt"
	"testing"

	"repro/internal/storage"
)

var benchEncoded []byte

// BenchmarkEncodeSnapshot encodes a checkpoint shaped like read_point's:
// one 250 000-tuple derived relation over 500 symbols, every tuple
// ranked in its rank column, beside a 1 500-tuple base relation.
func BenchmarkEncodeSnapshot(b *testing.B) {
	const width = 500
	db := storage.NewDatabase()
	edge, tc := db.Ensure("edge", 2), db.Ensure("tc", 2)
	for i := 0; i < width; i++ {
		for j := 0; j < width; j++ {
			t := tup(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", j))
			if j < 3 {
				edge.Insert(t)
			}
			tc.Insert(t)
			tc.SetRank(tc.Len()-1, uint32(tc.Len()))
		}
	}
	snap := &Snapshot{
		Meta: Meta{Session: "bench", Seq: 1, HasRanks: true},
		DB:   db,
		Seed: map[string]*storage.Relation{},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := EncodeSnapshot(snap)
		if err != nil {
			b.Fatal(err)
		}
		benchEncoded = out
	}
	b.SetBytes(int64(len(benchEncoded)))
}
