package eval_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/storage"
)

var benchSnapshot *storage.Database

// BenchmarkZSetCommit replays the eval-layer share of one dlogd commit
// on the shapes benchmark/gen.go gives write_sweep (tc: 10 layers of 20
// nodes) and write_negation (tc+unreach: 6 layers, every node in
// node/1): a layered DAG whose offset-0 edges are fixed and whose
// offset-1 and offset-3 edges the writer toggles, half of them present.
// One op is a balanced 4-fact batch — two absent pool edges added, two
// present ones deleted — applied by a fresh engine, plus the Snapshot a
// commit publishes, so the copy-on-write detach that publication forces
// on the next commit is inside the measurement. delta-tuples/op is the
// size of the returned IDB delta.
func BenchmarkZSetCommit(b *testing.B) {
	const tcRules = `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`
	for _, bc := range []struct {
		name   string
		src    string
		layers int
		nodes  bool
	}{
		{"tc", tcRules, 10, false},
		{"tc+unreach", tcRules + `unreach(X, Y) :- node(X), node(Y), not tc(X, Y).`, 6, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const width = 20
			prog := ztProg(b, bc.src)
			rng := rand.New(rand.NewSource(1))
			label := func(i int) ast.Term { return ast.Sym(fmt.Sprintf("n%d", i)) }
			db := storage.NewDatabase()
			edges := db.Ensure("edge", 2)
			var pool []storage.Tuple
			for a := 0; a < (bc.layers-1)*width; a++ {
				to := func(offset int) storage.Tuple {
					return storage.TupleOf(label(a), label((a/width+1)*width+(a%width+offset)%width))
				}
				edges.Insert(to(0))
				pool = append(pool, to(1), to(3))
			}
			rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			present, absent := pool[:len(pool)/2:len(pool)/2], append([]storage.Tuple(nil), pool[len(pool)/2:]...)
			for _, tu := range present {
				edges.Insert(tu)
			}
			if bc.nodes {
				for i := 0; i < bc.layers*width; i++ {
					db.Ensure("node", 1).Insert(storage.TupleOf(label(i)))
				}
			}
			zs := eval.NewZState()
			e := eval.New(prog, db)
			e.SetRankSink(zs.Record)
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			benchSnapshot = db.Snapshot()

			// draw moves two random tuples out of from and returns them.
			draw := func(from *[]storage.Tuple) []storage.Tuple {
				s := *from
				for j := 0; j < 2; j++ {
					i, last := rng.Intn(len(s)-j), len(s)-1-j
					s[i], s[last] = s[last], s[i]
				}
				out := append([]storage.Tuple(nil), s[len(s)-2:]...)
				*from = s[:len(s)-2]
				return out
			}
			delta := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adds, dels := draw(&absent), draw(&present)
				out, err := eval.New(prog, db).ApplyZSetContext(context.Background(), zs,
					map[string]*storage.ZSet{"edge": storage.ZSetOfChanges(adds, dels)})
				if err != nil {
					b.Fatal(err)
				}
				benchSnapshot = db.Snapshot()
				present, absent = append(present, adds...), append(absent, dels...)
				for _, z := range out {
					delta += z.Len()
				}
			}
			b.ReportMetric(float64(delta)/float64(b.N), "delta-tuples/op")
		})
	}
}
