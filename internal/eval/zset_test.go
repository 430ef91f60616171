package eval_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/testutil"
)

func ztProg(t testing.TB, src string) *ast.Program {
	t.Helper()
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	prog.EnsureLabels()
	return prog
}

func ztSym(a, b string) storage.Tuple {
	return storage.TupleOf(ast.Sym(a), ast.Sym(b))
}

// ztRandTuple draws a tuple from the same constant domain RandDB uses.
func ztRandTuple(rng *rand.Rand, arity, domain int) storage.Tuple {
	terms := make([]ast.Term, arity)
	for j := range terms {
		if rng.Intn(4) == 0 {
			terms[j] = ast.Int(rng.Intn(domain))
		} else {
			terms[j] = ast.Sym(fmt.Sprintf("c%d", rng.Intn(domain)))
		}
	}
	return storage.TupleOf(terms...)
}

// zsetModes are the engine configurations the Z-set differential runs
// under: the base fixpoint (which ranks what it derives) and the
// maintenance sweep must agree with each other and across modes.
var zsetModes = []struct {
	name string
	mode eval.JoinMode
}{
	{"binary", eval.JoinBinary},
	{"gj", eval.JoinGJ},
	{"auto", eval.JoinAuto},
}

// deltaFingerprint renders a reported IDB delta into a canonical string
// so deltas can be compared across modes.
func deltaFingerprint(out map[string]*storage.ZSet) string {
	var lines []string
	for p, z := range out {
		z.Each(func(tu storage.Tuple, w int64) {
			lines = append(lines, fmt.Sprintf("%+d %s%s", w, p, tu))
		})
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// actualDelta fingerprints the real difference between two database
// states over the derived predicates, in deltaFingerprint's format.
func actualDelta(before, after *storage.Database, idb map[string]bool) string {
	var lines []string
	diff := func(a, b *storage.Database, sign string) {
		for _, p := range a.Preds() {
			if !idb[p] {
				continue
			}
			for _, tu := range a.Relation(p).Tuples() {
				if rb := b.Relation(p); rb == nil || !rb.Contains(tu) {
					lines = append(lines, fmt.Sprintf("%s1 %s%s", sign, p, tu))
				}
			}
		}
	}
	diff(after, before, "+")
	diff(before, after, "-")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestZSetDifferentialRandomModes is the tentpole differential: random
// programs, random mixed insert/delete interleavings, and — after every
// batch — the Z-set-maintained database must be tuple-identical to a
// from-scratch recompute over the tracked EDB and the returned Z-set
// must be the actual before/after difference of every derived
// predicate, under every join mode. Programs with stratified negation
// run longer sequences that include unary EDB changes (node/1).
func TestZSetDifferentialRandomModes(t *testing.T) {
	for _, tc := range []struct {
		name            string
		seed            int64
		rounds, batches int
		negation        bool
	}{
		{"positive", 909, 8, 6, false},
		{"negation", 1807, 6, 25, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			for round := 0; round < tc.rounds; round++ {
				zsetDifferentialRound(t, rng, round, tc.batches, tc.negation)
			}
		})
	}
}

func zsetDifferentialRound(t *testing.T, rng *rand.Rand, round, nBatches int, negation bool) {
	prog, arities := testutil.RandProgram(rng, testutil.RandProgramConfig{
		Arity:     2,
		EDBPreds:  2,
		RecRules:  1 + rng.Intn(2),
		ExitRules: 1,
		Negation:  negation,
	})
	base := testutil.RandDB(rng, arities, 5, 12)
	idb := prog.IDBPreds()

	// Track the live EDB as pred -> key -> tuple.
	type edbState map[string]map[string]storage.Tuple
	mkState := func(db *storage.Database) edbState {
		st := edbState{}
		for p := range arities {
			st[p] = map[string]storage.Tuple{}
			if rel := db.Relation(p); rel != nil {
				for _, tu := range rel.Tuples() {
					st[p][tu.String()] = tu
				}
			}
		}
		return st
	}

	// Pre-generate the batch sequence so every mode replays the
	// identical interleaving.
	type batch struct{ adds, dels map[string][]storage.Tuple }
	var batches []batch
	{
		sim := mkState(base.Clone())
		preds := make([]string, 0, len(arities))
		for p := range arities {
			preds = append(preds, p)
		}
		sort.Strings(preds)
		for b := 0; b < nBatches; b++ {
			adds := map[string][]storage.Tuple{}
			dels := map[string][]storage.Tuple{}
			for i := 0; i < 1+rng.Intn(4); i++ {
				p := preds[rng.Intn(len(preds))]
				tu := ztRandTuple(rng, arities[p], 5)
				if _, ok := sim[p][tu.String()]; ok {
					continue
				}
				sim[p][tu.String()] = tu
				adds[p] = append(adds[p], tu)
			}
			for i := 0; i < rng.Intn(3); i++ {
				p := preds[rng.Intn(len(preds))]
				if len(sim[p]) == 0 {
					continue
				}
				keys := make([]string, 0, len(sim[p]))
				for k := range sim[p] {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				k := keys[rng.Intn(len(keys))]
				// Skip tuples this batch just added: the service
				// coalescer cancels those before maintenance.
				already := false
				for _, a := range adds[p] {
					if a.String() == k {
						already = true
					}
				}
				if already {
					continue
				}
				dels[p] = append(dels[p], sim[p][k])
				delete(sim[p], k)
			}
			batches = append(batches, batch{adds: adds, dels: dels})
		}
	}

	fingerprints := make([][]string, len(batches))
	for _, mc := range zsetModes {
		// Z-set-maintained engine state.
		zdb := base.Clone()
		e := eval.New(prog, zdb)
		e.SetJoinMode(mc.mode)
		if err := e.Run(); err != nil {
			t.Fatalf("round %d (%s): base run: %v\n%s", round, mc.name, err, prog)
		}

		live := mkState(base.Clone())
		for bi, b := range batches {
			for p, ts := range b.adds {
				for _, tu := range ts {
					live[p][tu.String()] = tu
				}
			}
			for p, ts := range b.dels {
				for _, tu := range ts {
					delete(live[p], tu.String())
				}
			}

			// Z-set path: one uniform mixed application.
			changes := map[string]*storage.ZSet{}
			for p := range arities {
				if z := storage.ZSetOfChanges(b.adds[p], b.dels[p]); z.Len() > 0 {
					changes[p] = z
				}
			}
			before := zdb.Snapshot()
			eng := eval.New(prog, zdb)
			eng.SetJoinMode(mc.mode)
			out, err := eng.ApplyZSetContext(context.Background(), nil, changes)
			if err != nil {
				t.Fatalf("round %d (%s) batch %d: ApplyZSet: %v\n%s", round, mc.name, bi, err, prog)
			}
			fp := deltaFingerprint(out)
			fingerprints[bi] = append(fingerprints[bi], fp)
			if want := actualDelta(before, zdb, idb); fp != want {
				t.Fatalf("round %d (%s) batch %d: reported delta is not the actual difference\nprogram:\n%s\nbatch adds=%v dels=%v\nreported:\n%s\nactual:\n%s",
					round, mc.name, bi, prog, b.adds, b.dels, fp, want)
			}

			// From-scratch recompute over the tracked EDB.
			fresh := storage.NewDatabase()
			for p, m := range live {
				fresh.Ensure(p, arities[p])
				for _, tu := range m {
					fresh.Relation(p).Insert(tu)
				}
			}
			if err := eval.New(prog, fresh).Run(); err != nil {
				t.Fatalf("round %d (%s) batch %d: from-scratch: %v", round, mc.name, bi, err)
			}
			if !zdb.Equal(fresh) {
				var diffs []string
				seen := map[string]bool{}
				for _, p := range append(zdb.Preds(), fresh.Preds()...) {
					if !seen[p] && !testutil.SamePredicate(zdb, fresh, p) {
						diffs = append(diffs, p+": "+testutil.Diff(zdb, fresh, p))
					}
					seen[p] = true
				}
				t.Fatalf("round %d (%s) batch %d: z-set state diverged from from-scratch\nprogram:\n%s\n%s\nbatch adds=%v dels=%v",
					round, mc.name, bi, prog, strings.Join(diffs, "\n"), b.adds, b.dels)
			}
		}
	}
	// The reported delta is mode-independent.
	for bi, fps := range fingerprints {
		for i := 1; i < len(fps); i++ {
			if fps[i] != fps[0] {
				t.Fatalf("round %d batch %d: delta differs between %s and %s:\n%q\nvs\n%q",
					round, bi, zsetModes[0].name, zsetModes[i].name, fps[0], fps[i])
			}
		}
	}
}

// TestZSetDeleteHeavyBeatsRecompute asserts the acceptance criterion
// with counters: on a delete-heavy mixed workload over a
// transitive-closure program with redundant support paths, the Z-set
// sweep derives at most half of what a cold fixpoint over the
// post-batch EDB derives, and reaches the same state.
func TestZSetDeleteHeavyBeatsRecompute(t *testing.T) {
	prog := ztProg(t, `
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`)
	// A ladder: two parallel rails with rungs, so most reachability
	// facts have several derivations and survive single deletions.
	var edges []storage.Tuple
	const n = 30
	sym := func(s string, i int) storage.Tuple {
		return ztSym(fmt.Sprintf("%s%d", s, i), fmt.Sprintf("%s%d", s, i+1))
	}
	for i := 0; i < n; i++ {
		edges = append(edges, sym("a", i))
		edges = append(edges, ztSym(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i+1)))
		edges = append(edges, ztSym(fmt.Sprintf("b%d", i), fmt.Sprintf("a%d", i+1)))
		edges = append(edges, sym("b", i))
	}
	mk := func() *storage.Database {
		db := storage.NewDatabase()
		for _, tu := range edges {
			db.Ensure("edge", 2).Insert(tu)
		}
		return db
	}
	// Delete-heavy batch: every fourth rung, plus two fresh edges.
	var dels []storage.Tuple
	for i := 0; i < n; i += 4 {
		dels = append(dels, ztSym(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i+1)))
	}
	adds := []storage.Tuple{
		ztSym("z0", "a0"),
		ztSym(fmt.Sprintf("a%d", n), "z1"),
	}

	zdb := mk()
	if err := eval.New(prog, zdb).Run(); err != nil {
		t.Fatal(err)
	}
	zeng := eval.New(prog, zdb)
	if _, err := zeng.ApplyZSetContext(context.Background(), nil,
		map[string]*storage.ZSet{"edge": storage.ZSetOfChanges(adds, dels)}); err != nil {
		t.Fatal(err)
	}

	cdb := mk()
	for _, tu := range dels {
		cdb.Relation("edge").Remove(tu)
	}
	for _, tu := range adds {
		cdb.Relation("edge").Insert(tu)
	}
	cold := eval.New(prog, cdb)
	if err := cold.Run(); err != nil {
		t.Fatal(err)
	}
	if !zdb.Equal(cdb) {
		t.Fatal("z-set and from-scratch results differ")
	}

	zD, cD := zeng.Stats().Derived, cold.Stats().Derived
	if zD*2 > cD {
		t.Errorf("z-set derived %d, cold fixpoint derived %d; want at most half", zD, cD)
	}
	t.Logf("delete-heavy maintenance: z-set derived %d, cold fixpoint %d (%.1fx)", zD, cD, float64(cD)/float64(zD))
}
