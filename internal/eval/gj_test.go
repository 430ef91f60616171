package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/storage"
)

// triangleDB builds a random directed graph with enough density that
// the triangle query has work to do.
func triangleDB(nodes, edges int, seed int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	db := storage.NewDatabase()
	for i := 0; i < edges; i++ {
		db.Add("e",
			ast.Sym(fmt.Sprintf("v%d", rng.Intn(nodes))),
			ast.Sym(fmt.Sprintf("v%d", rng.Intn(nodes))))
	}
	return db
}

const triangleSrc = `
tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(X, Z).
`

// skewedTriangleDB builds the canonical instance where the binary
// pipeline's intermediate blows past the output: u_i -> w -> v_j for
// all i, j (k² two-step paths through the hub w) but only the k closing
// edges u_i -> v_i, so only k triangles exist. The binary plan touches
// every path; Generic Join intersects away the dead ones at the Z
// level.
func skewedTriangleDB(k int) *storage.Database {
	db := storage.NewDatabase()
	w := ast.Sym("hub")
	for i := 0; i < k; i++ {
		u := ast.Sym(fmt.Sprintf("u%d", i))
		v := ast.Sym(fmt.Sprintf("v%d", i))
		db.Add("e", u, w)
		db.Add("e", w, v)
		db.Add("e", u, v)
	}
	return db
}

// The acceptance criterion of the Generic Join path: on a cyclic body
// (the triangle), GJ computes the identical fixpoint with strictly
// fewer probes than the binary pipeline.
func TestTriangleGJFewerProbes(t *testing.T) {
	prog := mustProgram(t, triangleSrc)
	base := skewedTriangleDB(120)

	dBin := base.Clone()
	eBin := New(prog, dBin)
	eBin.SetJoinMode(JoinBinary)
	if err := eBin.Run(); err != nil {
		t.Fatal(err)
	}
	dGJ := base.Clone()
	eGJ := New(prog, dGJ)
	eGJ.SetJoinMode(JoinGJ)
	if err := eGJ.Run(); err != nil {
		t.Fatal(err)
	}

	if !dBin.Equal(dGJ) {
		t.Fatalf("fixpoints differ: binary tri=%d, gj tri=%d", dBin.Count("tri"), dGJ.Count("tri"))
	}
	if eBin.Stats().Inserted != eGJ.Stats().Inserted {
		t.Fatalf("Inserted differs: binary %d, gj %d", eBin.Stats().Inserted, eGJ.Stats().Inserted)
	}
	if eGJ.Stats().GJFirings == 0 {
		t.Fatal("forced gj mode never fired the Generic Join path")
	}
	if eBin.Stats().GJFirings != 0 {
		t.Fatal("binary mode fired the Generic Join path")
	}
	if eGJ.Stats().Probes >= eBin.Stats().Probes {
		t.Fatalf("gj probes %d not strictly fewer than binary probes %d",
			eGJ.Stats().Probes, eBin.Stats().Probes)
	}
	t.Logf("triangle: binary probes=%d, gj probes=%d (%.1fx fewer), tri=%d",
		eBin.Stats().Probes, eGJ.Stats().Probes,
		float64(eBin.Stats().Probes)/float64(eGJ.Stats().Probes), dGJ.Count("tri"))
}

// BenchmarkTriangleJoin times the triangle query on a uniform random
// graph (600 nodes, 8,000 edges) and on the skewed hub instance
// (skewedTriangleDB(2000)), forced binary against JoinAuto steered by
// the cost model as a planned session's engine is. Both graphs exceed
// gjMinRows, so auto takes Generic Join on both: it wins on the skewed
// graph and loses on the uniform one.
func BenchmarkTriangleJoin(b *testing.B) {
	prog, err := parser.ParseProgram(triangleSrc)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []struct {
		name string
		db   *storage.Database
	}{
		{"uniform", triangleDB(600, 8000, 1)},
		{"skewed", skewedTriangleDB(2000)},
	} {
		for _, m := range []struct {
			name string
			mode JoinMode
		}{{"binary", JoinBinary}, {"auto", JoinAuto}} {
			b.Run(g.name+"/"+m.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					db := g.db.Clone()
					e := New(prog, db)
					e.SetJoinMode(m.mode)
					e.SetCostModel(StatsCostModel{DB: db})
					b.StartTimer()
					if err := e.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// JoinAuto sends cyclic bodies through GJ and leaves acyclic bodies on
// the binary pipeline.
func TestJoinAutoPlannerDecision(t *testing.T) {
	db := triangleDB(30, 150, 11)
	eTri := New(mustProgram(t, triangleSrc), db.Clone())
	if err := eTri.Run(); err != nil {
		t.Fatal(err)
	}
	if eTri.Stats().GJFirings == 0 {
		t.Error("auto mode did not route the cyclic triangle body through GJ")
	}

	// An acyclic chain body stays binary under auto.
	ePath := New(mustProgram(t, `
p(X, Z) :- e(X, Y), e(Y, Z).
`), db.Clone())
	if err := ePath.Run(); err != nil {
		t.Fatal(err)
	}
	if ePath.Stats().GJFirings != 0 {
		t.Errorf("auto mode routed an acyclic body through GJ (%d firings)", ePath.Stats().GJFirings)
	}

	// Recursive transitive closure is acyclic per round as well.
	eTC := New(mustProgram(t, `
tc(X, Y) :- e(X, Y).
tc(X, Y) :- tc(X, Z), e(Z, Y).
`), db.Clone())
	if err := eTC.Run(); err != nil {
		t.Fatal(err)
	}
	if eTC.Stats().GJFirings != 0 {
		t.Errorf("auto mode routed acyclic tc through GJ (%d firings)", eTC.Stats().GJFirings)
	}
}

// Forced GJ agrees with binary on curated programs covering recursion,
// constants, repeated variables, comparisons, and negation.
func TestForcedGJEquivalence(t *testing.T) {
	cases := []struct {
		name string
		src  string
		db   func() *storage.Database
	}{
		{"tc-chain", `
tc(X, Y) :- edge(X, Y).
tc(X, Y) :- tc(X, Z), edge(Z, Y).
`, func() *storage.Database { return chainDB(40) }},
		{"triangle-recursive", `
tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(X, Z).
grow(X, Z) :- tri(X, Y, Z).
grow(X, Z) :- grow(X, Y), e(Y, Z).
`, func() *storage.Database { return triangleDB(40, 300, 3) }},
		{"repeated-vars", `
loop(X) :- e(X, X).
two(X, Y) :- e(X, Y), e(Y, X).
`, func() *storage.Database { return triangleDB(20, 120, 5) }},
		{"constants-and-filters", `
from(Y, Z) :- e(v1, Y), e(Y, Z), Y != Z.
`, func() *storage.Database { return triangleDB(10, 80, 9) }},
		{"negation", `
cand(X, Z) :- e(X, Y), e(Y, Z), e(X, Z).
miss(X, Z) :- e(X, Y), e(Y, Z), not e(X, Z).
`, func() *storage.Database { return triangleDB(25, 160, 13) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := mustProgram(t, c.src)
			dBin := c.db()
			eBin := New(prog, dBin)
			eBin.SetJoinMode(JoinBinary)
			if err := eBin.Run(); err != nil {
				t.Fatal(err)
			}
			dGJ := c.db()
			eGJ := New(prog, dGJ)
			eGJ.SetJoinMode(JoinGJ)
			if err := eGJ.Run(); err != nil {
				t.Fatal(err)
			}
			if !dBin.Equal(dGJ) {
				t.Fatalf("fixpoints differ\nbinary:\n%s\ngj:\n%s", dBin, dGJ)
			}
			if eBin.Stats().Inserted != eGJ.Stats().Inserted {
				t.Fatalf("Inserted differs: binary %d, gj %d",
					eBin.Stats().Inserted, eGJ.Stats().Inserted)
			}
		})
	}
}

// Bodies with equality binds are rejected by compileGJ and keep running
// binary even under forced GJ.
func TestForcedGJFallsBackOnBindSteps(t *testing.T) {
	prog := mustProgram(t, `
p(X, Y) :- e(X, Y), Z = X, e(Z, Y).
`)
	db := triangleDB(15, 60, 17)
	dGJ := db.Clone()
	eGJ := New(prog, dGJ)
	eGJ.SetJoinMode(JoinGJ)
	if err := eGJ.Run(); err != nil {
		t.Fatal(err)
	}
	dBin := db.Clone()
	eBin := New(prog, dBin)
	eBin.SetJoinMode(JoinBinary)
	if err := eBin.Run(); err != nil {
		t.Fatal(err)
	}
	if !dGJ.Equal(dBin) {
		t.Fatal("fallback fixpoint differs from binary")
	}
}

func benchmarkTriangle(b *testing.B, mode JoinMode) {
	prog, err := parser.ParseProgram(triangleSrc)
	if err != nil {
		b.Fatal(err)
	}
	prog.EnsureLabels()
	base := skewedTriangleDB(300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := base.Clone()
		b.StartTimer()
		e := New(prog, db)
		e.SetJoinMode(mode)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriangleBinary(b *testing.B) { benchmarkTriangle(b, JoinBinary) }
func BenchmarkTriangleGJ(b *testing.B)     { benchmarkTriangle(b, JoinGJ) }
