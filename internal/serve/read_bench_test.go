package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// layeredTC is the benchmark's read_point program: transitive closure
// over a layered DAG in which node i of one layer has edges to nodes
// i, i+1 and i+2 (mod width) of the next. 41 layers of 20 nodes close
// to 258 380 tc tuples; every node reaches, and is reached by, a few
// hundred others.
func layeredTC(layers, width int) string {
	var sb strings.Builder
	sb.WriteString("tc(X, Y) :- edge(X, Y).\ntc(X, Y) :- tc(X, Z), edge(Z, Y).\n")
	for l := 0; l+1 < layers; l++ {
		for i := 0; i < width; i++ {
			for o := 0; o < 3; o++ {
				fmt.Fprintf(&sb, "edge(n%d_%d, n%d_%d).\n", l, i, l+1, (i+o)%width)
			}
		}
	}
	return sb.String()
}

// sinkWriter is a ResponseWriter that keeps nothing: unlike
// httptest.ResponseRecorder it never copies the body, so what a handler
// allocates under it is the handler's own doing.
type sinkWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *sinkWriter) Header() http.Header         { return w.h }
func (w *sinkWriter) WriteHeader(code int)        { w.status = code }
func (w *sinkWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// rewindBody is a request body that can be served again and again.
type rewindBody struct{ *strings.Reader }

func (rewindBody) Close() error { return nil }

// queryDriver sends one fixed query straight into the server's handler
// (mux, telemetry middleware and all), with no listener in between.
type queryDriver struct {
	h   http.Handler
	w   *sinkWriter
	req *http.Request
	src string
}

func newQueryDriver(srv *Server, session, body string) *queryDriver {
	d := &queryDriver{h: srv.Handler(), w: &sinkWriter{h: http.Header{}}, src: body}
	d.req = httptest.NewRequest("POST", "/v1/sessions/"+session+"/query", nil)
	d.req.Header.Set("Content-Type", "application/json")
	d.req.Body = rewindBody{strings.NewReader(body)}
	return d
}

// do serves the query once and returns the status and body size.
func (d *queryDriver) do() (status, bytes int) {
	d.req.Body.(rewindBody).Reset(d.src)
	d.w.status, d.w.n = 0, 0
	d.h.ServeHTTP(d.w, d.req)
	return d.w.status, d.w.n
}

// benchServer loads the read_point relation into a fresh server.
func benchServer(b *testing.B, cfg Config) *Server {
	b.Helper()
	srv := New(cfg)
	b.Cleanup(srv.Close)
	if _, err := srv.LoadSession(context.Background(), "g", LoadRequest{Program: layeredTC(41, 20)}); err != nil {
		b.Fatal(err)
	}
	return srv
}

// BenchmarkQueryHit: a cached bound read of a 250k-tuple relation — a
// map lookup, a head and tail, and a write of bytes rendered once.
func BenchmarkQueryHit(b *testing.B) {
	srv := benchServer(b, Config{})
	d := newQueryDriver(srv, "g", `{"goal":"tc(n3_7, Y)"}`)
	d.do() // the miss that fills the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, _ := d.do(); status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
	}
	b.StopTimer()
	if hits := srv.mQueryPath[pathHit].Load(); hits != int64(b.N) {
		b.Fatalf("%d of %d reads hit the cache", hits, b.N)
	}
}

// BenchmarkQueryMiss: the same read with the cache off, so every
// request probes the column index, filters and renders its answer.
func BenchmarkQueryMiss(b *testing.B) {
	srv := benchServer(b, Config{QueryCache: -1})
	goals := []string{`{"goal":"tc(n3_7, Y)"}`, `{"goal":"tc(X, n30_2)"}`, `{"goal":"tc(n3_7, n30_2)"}`}
	drivers := make([]*queryDriver, len(goals))
	for i, g := range goals {
		drivers[i] = newQueryDriver(srv, "g", g)
		drivers[i].do() // builds the column's index, outside the timer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if status, _ := drivers[i%len(drivers)].do(); status != http.StatusOK {
			b.Fatalf("status %d", status)
		}
	}
	b.StopTimer()
	if scans := srv.mQueryPath[pathScan].Load(); scans != 0 {
		b.Fatalf("%d bound reads scanned the relation", scans)
	}
}
