package experiments

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/storage"
)

// E12MixedMaintenance — incremental maintenance of a materialized
// transitive closure under mixed insert/delete batches: the Z-set
// sweep (DESIGN.md §15) against the service's rebuild rung, a fresh
// copy of the post-batch EDB evaluated from scratch (session.recompute
// in internal/serve). The workload is a ladder graph (two rails plus
// crossing rungs), chosen because most reachability facts have several
// derivations, so a deletion retracts little and the sweep's
// rank-local checks pay off. Both paths apply the same batch sequence
// and must land on tuple-identical databases; the work metric is
// Derived (head tuples enumerated), since the sweep's many tiny check
// plans make plan-invocation counts meaningless.
func E12MixedMaintenance(cfg Config) Table {
	t := Table{
		ID:      "E12",
		Title:   "Mixed-batch maintenance: Z-set sweep vs from-scratch recompute",
		Claim:   "signed-multiplicity maintenance with rank certificates does measurably fewer derivations than recomputing the post-batch fixpoint from scratch",
		Columns: []string{"rungs", "batches", "zset ms", "zset derived", "recompute ms", "recompute derived", "derived ratio"},
	}
	prog, err := parser.ParseProgram(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`)
	if err != nil {
		t.Notes = append(t.Notes, err.Error())
		return t
	}
	sizes := []int{20, 40}
	if cfg.Quick {
		sizes = []int{12}
	}
	for _, n := range sizes {
		base, batches := ladderBatches(n)
		edb := storage.NewDatabase()
		for _, tu := range base {
			edb.Ensure("edge", 2).Insert(tu)
		}

		// Z-set path: seed the rank state from the initial fixpoint,
		// then one ApplyZSetContext per batch.
		zdb := edb.Clone()
		zs := eval.NewZState()
		seed := eval.New(prog, zdb)
		seed.SetRankSink(zs.Record)
		if err := seed.Run(); err != nil {
			t.Notes = append(t.Notes, err.Error())
			return t
		}
		var zDerived int64
		var zStrata []StratumRecord
		zStart := time.Now()
		for _, b := range batches {
			e := eval.New(prog, zdb)
			e.SetTracer(cfg.Tracer)
			if _, err := e.ApplyZSetContext(context.Background(), zs,
				map[string]*storage.ZSet{"edge": storage.ZSetOfChanges(b.adds, b.dels)}); err != nil {
				t.Notes = append(t.Notes, err.Error())
				return t
			}
			zDerived += e.Stats().Derived
			zStrata = addStrata(zStrata, e.Info())
		}
		zDur := time.Since(zStart)

		// Recompute path: apply the batch to the EDB, then evaluate a
		// fresh copy of it from scratch, recording ranks as the
		// service's rebuild does so maintenance could resume from it.
		var rdb *storage.Database
		var rDerived int64
		var rStrata []StratumRecord
		var rDur time.Duration
		for _, b := range batches {
			rel := edb.Relation("edge")
			for _, tu := range b.dels {
				rel.Remove(tu)
			}
			for _, tu := range b.adds {
				rel.Insert(tu)
			}
			start := time.Now()
			rdb = edb.Clone()
			e := eval.New(prog, rdb)
			e.SetTracer(cfg.Tracer)
			e.SetRankSink(eval.NewZState().Record)
			if err := e.Run(); err != nil {
				t.Notes = append(t.Notes, err.Error())
				return t
			}
			rDur += time.Since(start)
			rDerived += e.Stats().Derived
			rStrata = addStrata(rStrata, e.Info())
		}

		if !zdb.Equal(rdb) {
			t.Notes = append(t.Notes, fmt.Sprintf("rungs=%d: z-set and recompute databases DIFFER", n))
		}
		lab := fmt.Sprintf("ladder=%d,batches=%d", n, len(batches))
		for _, rec := range []struct {
			path    string
			dur     time.Duration
			derived int64
			strata  []StratumRecord
		}{{"zset", zDur, zDerived, zStrata}, {"recompute", rDur, rDerived, rStrata}} {
			cfg.Rec.add(BenchRecord{
				Experiment: "E12", Label: lab + "/" + rec.path,
				GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
				Engine:  "binary",
				NsPerOp: rec.dur.Nanoseconds(),
				Stats:   eval.Stats{Derived: rec.derived},
				Strata:  rec.strata,
			})
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(len(batches)),
			ms(zDur), fmt.Sprint(zDerived),
			ms(rDur), fmt.Sprint(rDerived),
			fmt.Sprintf("%.1fx", float64(rDerived)/float64(zDerived)),
		})
	}
	return t
}

// addStrata folds one engine's per-stratum rounds and wall time into
// sum, matching strata by their predicates: a maintained sequence runs
// one engine per batch, and its record reports the totals.
func addStrata(sum []StratumRecord, info eval.RunInfo) []StratumRecord {
next:
	for _, rec := range strataRecords(info) {
		for i := range sum {
			if slices.Equal(sum[i].Preds, rec.Preds) {
				sum[i].Rounds += rec.Rounds
				sum[i].Ns += rec.Ns
				continue next
			}
		}
		sum = append(sum, rec)
	}
	return sum
}

type mixedBatch struct {
	adds, dels []storage.Tuple
}

// ladderBatches builds a 2×n ladder EDB (rails a0→…→an, b0→…→bn,
// rungs both ways at every level) plus a deterministic sequence of
// mixed batches: each deletes a spread of rungs and extends a fresh
// chain hanging off the ladder, so every batch has both signs and the
// deletions hit tuples with surviving alternate derivations.
func ladderBatches(n int) (base []storage.Tuple, batches []mixedBatch) {
	sym := func(a, b string) storage.Tuple {
		return storage.Tuple{storage.InternSym(a), storage.InternSym(b)}
	}
	at := func(s string, i int) string { return fmt.Sprintf("%s%d", s, i) }
	for i := 0; i < n; i++ {
		base = append(base, sym(at("a", i), at("a", i+1)))
		base = append(base, sym(at("b", i), at("b", i+1)))
		base = append(base, sym(at("a", i), at("b", i+1)))
		base = append(base, sym(at("b", i), at("a", i+1)))
	}
	const nBatches = 4
	for j := 0; j < nBatches; j++ {
		var b mixedBatch
		// Every nBatches-th a→b rung, staggered so batches touch
		// disjoint rungs.
		for i := j; i < n; i += 2 * nBatches {
			b.dels = append(b.dels, sym(at("a", i), at("b", i+1)))
		}
		// Grow a fresh tail off the last rail node: recursion extends
		// the closure incrementally on the add side.
		from := at("a", n)
		if j > 0 {
			from = at("z", j-1)
		}
		b.adds = append(b.adds, sym(from, at("z", j)))
		batches = append(batches, b)
	}
	return base, batches
}
