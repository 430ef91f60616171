package eval

import (
	"context"
	"errors"
	"testing"

	"repro/internal/parser"
	"repro/internal/workload"
)

// tcEngine builds a transitive-closure engine over a chain long enough
// to need many fixpoint rounds.
func tcEngine(t *testing.T, n int) *Engine {
	t.Helper()
	prog, err := parser.ParseProgram(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return New(prog, workload.ChainDB(n))
}

func TestRunContextCancelSequential(t *testing.T) {
	e := tcEngine(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	e.IterationHook = func(round int) {
		if round >= 3 {
			cancel()
		}
	}
	err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	// The run stopped mid-fixpoint: strictly fewer tuples than the full
	// closure (50*51/2 = 1275 tc tuples).
	if got := e.DB().Count("tc"); got >= 1275 {
		t.Fatalf("cancelled run still computed full closure (%d tuples)", got)
	}
}

func TestRunContextCancelNaive(t *testing.T) {
	e := tcEngine(t, 30)
	e.UseNaive()
	ctx, cancel := context.WithCancel(context.Background())
	e.IterationHook = func(round int) {
		if round >= 2 {
			cancel()
		}
	}
	if err := e.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	e := tcEngine(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if got := e.DB().Count("tc"); got != 0 {
		t.Fatalf("pre-cancelled run derived %d tuples", got)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	a := tcEngine(t, 20)
	if err := a.Run(); err != nil {
		t.Fatal(err)
	}
	b := tcEngine(t, 20)
	if err := b.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !a.DB().Equal(b.DB()) {
		t.Fatal("Run and RunContext(Background) disagree")
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats(), b.Stats())
	}
}
