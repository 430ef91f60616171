package eval

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/workload"
)

// runTraced evaluates prog over a clone of db and returns the computed
// database, the counters, and the per-rule breakdown.
func runTraced(t *testing.T, prog *ast.Program, db *storage.Database, tr *obs.Tracer) (*storage.Database, Stats, RunInfo) {
	t.Helper()
	work := db.Clone()
	e := New(prog, work)
	e.SetTracer(tr)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return work, e.Stats(), e.Info()
}

func ruleStats(info RunInfo) map[string]Stats {
	out := make(map[string]Stats, len(info.Rules))
	for _, r := range info.Rules {
		out[r.Label] = r.Stats
	}
	return out
}

// TestTracingDifferential pins the core observability contract: turning
// the tracer on must not change the fixpoint, the counters, or the
// per-rule counters. Only timings may differ.
func TestTracingDifferential(t *testing.T) {
	s := workload.Organization()
	rng := rand.New(rand.NewSource(7))
	db := workload.OrgDB(rng, 2, 6, 2, 0.5)
	t.Run("sequential", func(t *testing.T) {
		dbOff, stOff, infoOff := runTraced(t, s.Program, db, nil)
		dbOn, stOn, infoOn := runTraced(t, s.Program, db, obs.New())
		if got, want := dbOn.String(), dbOff.String(); got != want {
			t.Fatal("fixpoint differs with tracing enabled")
		}
		if stOn != stOff {
			t.Errorf("stats differ with tracing enabled:\n on: %+v\noff: %+v", stOn, stOff)
		}
		if stOff.Inserted == 0 {
			t.Fatal("workload derived nothing; the comparison is vacuous")
		}
		// Every derivation is either inserted or a duplicate.
		if stOff.Derived != stOff.Inserted+stOff.Deduped {
			t.Errorf("derived=%d != inserted=%d + deduped=%d",
				stOff.Derived, stOff.Inserted, stOff.Deduped)
		}
		rOff, rOn := ruleStats(infoOff), ruleStats(infoOn)
		if len(rOff) != len(rOn) {
			t.Fatalf("rule profile count: on=%d off=%d", len(rOn), len(rOff))
		}
		for label, off := range rOff {
			on, ok := rOn[label]
			if !ok {
				t.Errorf("rule %s missing from traced profile", label)
				continue
			}
			if on != off {
				t.Errorf("rule %s counters differ:\n on: %+v\noff: %+v", label, on, off)
			}
		}
	})
}

// benchOrg is the E1 organization workload (Example 4.1) evaluated to
// fixpoint — the benchmark pair below guards the nil-tracer overhead:
//
//	go test ./internal/eval/ -bench 'Tracer' -benchmem
//
// The two numbers should be within noise of each other; the traced run
// shows what full span collection costs.
func benchOrg(b *testing.B, tr *obs.Tracer) {
	s := workload.Organization()
	rng := rand.New(rand.NewSource(1))
	db := workload.OrgDB(rng, 2, 6, 2, 0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := db.Clone()
		e := New(s.Program, work)
		e.SetTracer(tr)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrgNilTracer(b *testing.B) { benchOrg(b, nil) }

func BenchmarkOrgTraced(b *testing.B) { benchOrg(b, obs.New()) }
