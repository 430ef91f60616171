package eval_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/storage"
	"repro/internal/testutil"
)

// Naive and semi-naive evaluation agree on random in-class programs and
// random databases — the core fixpoint invariant, checked beyond the
// curated examples.
func TestQuickNaiveEqualsSemiNaiveOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for round := 0; round < 30; round++ {
		prog, arities := testutil.RandProgram(rng, testutil.RandProgramConfig{
			Arity:     2 + rng.Intn(2),
			EDBPreds:  2 + rng.Intn(2),
			RecRules:  1 + rng.Intn(2),
			ExitRules: 1 + rng.Intn(2),
		})
		db := testutil.RandDB(rng, arities, 5, 12)
		d1 := db.Clone()
		e1 := eval.New(prog, d1)
		if err := e1.Run(); err != nil {
			t.Fatalf("round %d: semi-naive: %v\n%s", round, err, prog)
		}
		d2 := db.Clone()
		e2 := eval.New(prog, d2)
		e2.UseNaive()
		if err := e2.Run(); err != nil {
			t.Fatalf("round %d: naive: %v", round, err)
		}
		if !d1.Equal(d2) {
			t.Fatalf("round %d: fixpoints differ\nprogram:\n%s\nsemi-naive p=%d naive p=%d",
				round, prog, d1.Count("p"), d2.Count("p"))
		}
		// Semi-naive never derives more raw tuples than naive.
		if e1.Stats().Derived > e2.Stats().Derived {
			t.Errorf("round %d: semi-naive derived %d > naive %d",
				round, e1.Stats().Derived, e2.Stats().Derived)
		}
	}
}

// Semi-naive and naive evaluation agree on random programs: identical
// final relations and identical Inserted counts. Iterations, Probes,
// and Derived may legitimately differ between strategies, but the
// fixpoint and the number of genuinely new tuples must not.
func TestQuickNaiveEqualsSemiNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(558))
	for round := 0; round < 25; round++ {
		prog, arities := testutil.RandProgram(rng, testutil.RandProgramConfig{
			Arity:     2 + rng.Intn(2),
			EDBPreds:  2 + rng.Intn(2),
			RecRules:  1 + rng.Intn(2),
			ExitRules: 1 + rng.Intn(2),
		})
		db := testutil.RandDB(rng, arities, 5, 12)

		dSeq := db.Clone()
		eSeq := eval.New(prog, dSeq)
		if err := eSeq.Run(); err != nil {
			t.Fatalf("round %d: semi-naive: %v\n%s", round, err, prog)
		}
		dNaive := db.Clone()
		eNaive := eval.New(prog, dNaive)
		eNaive.UseNaive()
		if err := eNaive.Run(); err != nil {
			t.Fatalf("round %d: naive: %v", round, err)
		}

		if !dSeq.Equal(dNaive) {
			t.Fatalf("round %d: naive fixpoint differs from semi-naive\nprogram:\n%s", round, prog)
		}
		if eSeq.Stats().Inserted != eNaive.Stats().Inserted {
			t.Fatalf("round %d: Inserted differs: semi-naive %d, naive %d\nprogram:\n%s",
				round, eSeq.Stats().Inserted, eNaive.Stats().Inserted, prog)
		}
	}
}

// Forced Generic Join agrees with the binary pipeline on random
// programs — tuple-identical fixpoints and identical Inserted counts.
// Together with the planner's fallback
// (shapes compileGJ rejects keep gj == nil), this pins the two
// execution paths to the same semantics over the whole program class.
func TestQuickGJEqualsBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(559))
	for round := 0; round < 25; round++ {
		prog, arities := testutil.RandProgram(rng, testutil.RandProgramConfig{
			Arity:     2 + rng.Intn(2),
			EDBPreds:  2 + rng.Intn(2),
			RecRules:  1 + rng.Intn(2),
			ExitRules: 1 + rng.Intn(2),
		})
		db := testutil.RandDB(rng, arities, 5, 12)

		run := func(mode eval.JoinMode) (*storage.Database, eval.Stats) {
			d := db.Clone()
			e := eval.New(prog, d)
			e.SetJoinMode(mode)
			if err := e.Run(); err != nil {
				t.Fatalf("round %d (%v): %v\n%s", round, mode, err, prog)
			}
			return d, e.Stats()
		}
		dBin, stBin := run(eval.JoinBinary)
		for _, mode := range []eval.JoinMode{eval.JoinGJ, eval.JoinAuto} {
			d, st := run(mode)
			if !dBin.Equal(d) {
				t.Fatalf("round %d: fixpoint (%v) differs from binary\nprogram:\n%s", round, mode, prog)
			}
			if st.Inserted != stBin.Inserted {
				t.Fatalf("round %d: Inserted (%v) = %d, binary = %d\nprogram:\n%s",
					round, mode, st.Inserted, stBin.Inserted, prog)
			}
		}
	}
}

// Incremental maintenance under forced Generic Join reaches the same
// state as from-scratch binary evaluation: random base database, random
// insert batch, maintained with ApplyZSetContext under each join mode.
func TestQuickGJIncrementalMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(560))
	for round := 0; round < 15; round++ {
		prog, arities := testutil.RandProgram(rng, testutil.RandProgramConfig{
			Arity:     2,
			EDBPreds:  2,
			RecRules:  1 + rng.Intn(2),
			ExitRules: 1,
		})
		base := testutil.RandDB(rng, arities, 5, 10)
		extra := testutil.RandDB(rng, arities, 5, 4)
		changed := map[string][]storage.Tuple{}
		full := base.Clone()
		for _, pred := range extra.Preds() {
			for _, tp := range extra.Relation(pred).Tuples() {
				if full.AddTuple(pred, tp) {
					changed[pred] = append(changed[pred], tp)
				}
			}
		}
		want := full.Clone()
		if err := eval.New(prog, want).Run(); err != nil {
			t.Fatalf("round %d: from-scratch: %v\n%s", round, err, prog)
		}

		for _, mode := range []eval.JoinMode{eval.JoinBinary, eval.JoinGJ} {
			db := base.Clone()
			e := eval.New(prog, db)
			e.SetJoinMode(mode)
			if err := e.Run(); err != nil {
				t.Fatalf("round %d (%v): base run: %v\n%s", round, mode, err, prog)
			}
			changes := map[string]*storage.ZSet{}
			for pred, ts := range changed {
				changes[pred] = storage.ZSetOfChanges(ts, nil)
			}
			eng := eval.New(prog, db)
			eng.SetJoinMode(mode)
			if _, err := eng.ApplyZSetContext(context.Background(), nil, changes); err != nil {
				t.Fatalf("round %d (%v): ApplyZSet: %v\n%s", round, mode, err, prog)
			}
			if !db.Equal(want) {
				t.Fatalf("round %d (%v): incremental state diverged from from-scratch\nprogram:\n%s",
					round, mode, prog)
			}
		}
	}
}

// Monotonicity: adding EDB tuples never removes IDB answers.
func TestQuickMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(556))
	for round := 0; round < 20; round++ {
		prog, arities := testutil.RandProgram(rng, testutil.RandProgramConfig{
			Arity: 2, EDBPreds: 2, RecRules: 1, ExitRules: 1,
		})
		small := testutil.RandDB(rng, arities, 4, 6)
		big := small.Clone()
		extra := testutil.RandDB(rng, arities, 4, 6)
		for _, pred := range extra.Preds() {
			for _, tp := range extra.Relation(pred).Tuples() {
				big.AddTuple(pred, tp)
			}
		}
		dSmall := small.Clone()
		if err := eval.New(prog, dSmall).Run(); err != nil {
			t.Fatal(err)
		}
		dBig := big.Clone()
		if err := eval.New(prog, dBig).Run(); err != nil {
			t.Fatal(err)
		}
		rs := dSmall.Relation("p")
		rb := dBig.Relation("p")
		if rs == nil {
			continue
		}
		for _, tp := range rs.Tuples() {
			if rb == nil || !rb.Contains(tp) {
				t.Fatalf("round %d: lost tuple p%s after adding facts\n%s", round, tp, prog)
			}
		}
	}
}

// Explain succeeds for every derived tuple of random programs, with
// and without negation, and every explanation passes the derivation
// checker.
func TestQuickExplainTotalOnDerived(t *testing.T) {
	rng := rand.New(rand.NewSource(557))
	for round := 0; round < 12; round++ {
		prog, arities := testutil.RandProgram(rng, testutil.RandProgramConfig{
			Arity: 2, EDBPreds: 2, RecRules: 1, ExitRules: 1, Negation: round%2 == 1,
		})
		db := testutil.RandDB(rng, arities, 4, 8)
		mustRun(t, prog, db)
		checkExplanations(t, prog, db, eval.New(prog, db).Explain)
	}
}
