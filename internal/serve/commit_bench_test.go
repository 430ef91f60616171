package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/durable"
)

// BenchmarkCommit is one write commit through the handler, on the
// shapes benchmark/gen.go gives write_sweep (tc over a 10×20 layered
// DAG) and write_negation (6×20, tc plus unreach over node/1). Offset-0
// edges are fixed; the offset-1 and offset-3 edges form a pool, half of
// it present. One op is POST /v1/sessions/g/changes adding two absent
// pool edges and deleting two present ones, on a durable session that
// fsyncs every batch and checkpoints every 256: parse, Z-set sweep,
// copy-on-write detach and publish, WAL append and fsync, and every
// 256th op a checkpoint.
func BenchmarkCommit(b *testing.B) {
	for _, bc := range []struct {
		name     string
		layers   int
		negation bool
	}{
		{"sweep", 10, false},
		{"negation", 6, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const width = 20
			rng := rand.New(rand.NewSource(1))
			label := func(i int) string { return fmt.Sprintf("n%d", i) }
			edge := func(a, c int) string { return fmt.Sprintf("edge(%s, %s)", label(a), label(c)) }
			var prog strings.Builder
			prog.WriteString("tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\n")
			if bc.negation {
				prog.WriteString("unreach(X, Y) :- node(X), node(Y), not tc(X, Y).\n")
				for i := 0; i < bc.layers*width; i++ {
					fmt.Fprintf(&prog, "node(%s).\n", label(i))
				}
			}
			var pool []string
			for a := 0; a < (bc.layers-1)*width; a++ {
				to := func(offset int) int { return (a/width+1)*width + (a%width+offset)%width }
				fmt.Fprintf(&prog, "%s.\n", edge(a, to(0)))
				pool = append(pool, edge(a, to(1)), edge(a, to(3)))
			}
			rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
			present := append([]string(nil), pool[:len(pool)/2]...)
			absent := append([]string(nil), pool[len(pool)/2:]...)
			for _, e := range present {
				fmt.Fprintf(&prog, "%s.\n", e)
			}

			srv := New(Config{Durability: &durable.Options{Dir: b.TempDir(), Fsync: true, CheckpointEvery: 256}})
			defer srv.Close()
			if _, err := srv.LoadSession(context.Background(), "g", LoadRequest{Program: prog.String()}); err != nil {
				b.Fatal(err)
			}

			// draw moves two random edges out of from and returns them.
			draw := func(from *[]string) []string {
				s := *from
				for j := 0; j < 2; j++ {
					i, last := rng.Intn(len(s)-j), len(s)-1-j
					s[i], s[last] = s[last], s[i]
				}
				out := append([]string(nil), s[len(s)-2:]...)
				*from = s[:len(s)-2]
				return out
			}
			bodies := make([]string, b.N)
			for i := range bodies {
				adds, dels := draw(&absent), draw(&present)
				bodies[i] = fmt.Sprintf(`{"adds": ["%s", "%s"], "dels": ["%s", "%s"]}`, adds[0], adds[1], dels[0], dels[1])
				present, absent = append(present, adds...), append(absent, dels...)
			}

			h, w := srv.Handler(), &sinkWriter{h: http.Header{}}
			req := httptest.NewRequest("POST", "/v1/sessions/g/changes", nil)
			req.Header.Set("Content-Type", "application/json")
			body := rewindBody{strings.NewReader("")}
			req.Body = body
			b.ReportAllocs()
			b.ResetTimer()
			for _, src := range bodies {
				body.Reset(src)
				w.status = 0
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("commit answered %d", w.status)
				}
			}
		})
	}
}
