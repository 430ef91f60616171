package serve

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/durable"
	"repro/internal/workload"
)

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// loadLayered loads read_point's program over a layers×20 DAG into
// session "g" of srv and returns the number of derived tuples.
func loadLayered(tb testing.TB, srv *Server, layers int) int {
	tb.Helper()
	resp, err := srv.LoadSession(context.Background(), "g", LoadRequest{Program: layeredTC(layers, 20)})
	if err != nil {
		tb.Fatal(err)
	}
	return resp.IDBTuples
}

// BenchmarkLoadDurable: a durable load of read_point's 41×20 layered
// DAG — parse, fixpoint with ranks, checkpoint encode and write,
// publish. retained-B/tuple is the heap the loaded session keeps live,
// per derived tuple, after a forced collection.
func BenchmarkLoadDurable(b *testing.B) {
	srv := New(Config{Durability: &durable.Options{Dir: b.TempDir()}})
	defer srv.Close()
	base := liveHeap()
	tuples := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuples = loadLayered(b, srv, 41) // a reload replaces the last state
	}
	b.StopTimer()
	b.ReportMetric(float64(liveHeap()-base)/float64(tuples), "retained-B/tuple")
	runtime.KeepAlive(srv)
}

// TestLoadRetainedHeapPerTuple bounds what a durably loaded session
// keeps live per derived tuple after read_point's 41×20 load: the
// tuple's values in its relation's flat array, its one-word slot in the
// membership table, its place in the join's column index, and its rank
// — 28.7 B with Go 1.24. A relation of separately allocated tuples
// retained 69 B on the same load, with ranks in a string-keyed map
// 133 B; the bound sits well below the first with room for the
// membership table's load factor to swing (a table half as full costs
// about 5 B more here).
func TestLoadRetainedHeapPerTuple(t *testing.T) {
	const bound = 48
	srv := New(Config{Durability: &durable.Options{Dir: t.TempDir()}})
	defer srv.Close()
	base := liveHeap()
	tuples := loadLayered(t, srv, 41)
	perTuple := float64(liveHeap()-base) / float64(tuples)
	runtime.KeepAlive(srv)
	t.Logf("%d derived tuples, %.1f B retained per tuple", tuples, perTuple)
	if perTuple > bound {
		t.Fatalf("the loaded session retains %.1f B per derived tuple, more than %d", perTuple, bound)
	}
}

// BenchmarkColdCycle is one cycle of the cold-load workload, in
// process: the seven programs of workload.ColdLoad loaded durably with
// plan=auto, then dropped, which deletes their directories.
func BenchmarkColdCycle(b *testing.B) {
	srv := New(Config{Durability: &durable.Options{Dir: b.TempDir()}})
	defer srv.Close()
	progs := workload.ColdLoad(1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lt := range progs {
			if _, err := srv.LoadSession(ctx, lt.Name, LoadRequest{Program: lt.Src, Plan: "auto", Goal: lt.Goal}); err != nil {
				b.Fatalf("%s: %v", lt.Name, err)
			}
		}
		for _, lt := range progs {
			if !srv.dropSession(lt.Name) {
				b.Fatalf("%s was not loaded", lt.Name)
			}
		}
	}
}

// BenchmarkColdLoadScenario is BenchmarkColdCycle one program at a
// time: a durable plan=auto load of one workload.ColdLoad program and
// its drop, so a cycle that got slower names the program that did.
func BenchmarkColdLoadScenario(b *testing.B) {
	for _, lt := range workload.ColdLoad(1) {
		b.Run(lt.Name, func(b *testing.B) {
			srv := New(Config{Durability: &durable.Options{Dir: b.TempDir()}})
			defer srv.Close()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.LoadSession(ctx, lt.Name, LoadRequest{Program: lt.Src, Plan: "auto", Goal: lt.Goal}); err != nil {
					b.Fatal(err)
				}
				if !srv.dropSession(lt.Name) {
					b.Fatal("the session was not loaded")
				}
			}
		})
	}
}

// BenchmarkRecover is the restart of read_point's session: a durable
// 41×20 loadLayered, closed, then RecoverSessions on a fresh server
// over the same directory — the checkpoint read, decoded and installed
// as the serving state, with no WAL tail to replay.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	srv := New(Config{Durability: &durable.Options{Dir: dir}})
	tuples := loadLayered(b, srv, 41)
	srv.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := New(Config{Durability: &durable.Options{Dir: dir}})
		reports, err := fresh.RecoverSessions(ctx)
		b.StopTimer()
		if err != nil || len(reports) != 1 || reports[0].Err != "" {
			b.Fatalf("recover = %+v, %v", reports, err)
		}
		if got := fresh.session("g").snap.Load().db.TotalTuples(); got < tuples {
			b.Fatalf("recovered %d tuples, the load derived %d", got, tuples)
		}
		fresh.Close()
		b.StartTimer()
	}
}
