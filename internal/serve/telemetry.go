package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Request-scoped telemetry: every HTTP request gets a numeric ID that
// is (a) returned to the client in an X-Request-Id header, (b) stamped
// on the request's serve span and access-log line, and (c) carried
// through the commit queue into the batch committer, which emits one
// serve.commit span per request with the same ID. Loading an exported
// trace (-trace / -events) therefore links a client-visible header to
// the enqueue wait, the coalesced batch, the maintenance fixpoint, and
// the WAL sequence number that made the write durable.

// reqIDs is the process-wide request-ID source. Seeded from the clock
// at startup so IDs from consecutive daemon runs don't collide in
// aggregated logs; uniqueness within a run comes from the increment.
// The top bit is kept clear so an ID survives the int64 trace-span
// args unchanged — parsing the X-Request-Id header as hex yields the
// exact number exported in the commit.request span's "req" arg.
var reqIDs atomic.Uint64

func init() {
	reqIDs.Store(uint64(time.Now().UnixNano()) << 16 & (1<<63 - 1))
}

func nextRequestID() uint64 { return reqIDs.Add(1) }

// formatRequestID renders an ID the way it appears in X-Request-Id
// headers and log lines. Fixed-width hex sorts lexically by issue
// order within a run, which keeps grepped log slices chronological.
func formatRequestID(id uint64) string { return fmt.Sprintf("%016x", id) }

type reqIDKey struct{}

func withRequestID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqIDKey{}, id)
}

// requestIDFrom recovers the request ID anywhere the request's context
// flows — in particular inside the committer, whose commitReq carries
// the originating context. 0 means "no ID" (internal work).
func requestIDFrom(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(reqIDKey{}).(uint64)
	return id
}

// statusWriter records the status code and body size a handler sent,
// for the access log and the serve.requests{route,code} family.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the wrapped writer's Flusher so streaming handlers
// (the replication stream) can push each frame as it is written instead
// of waiting for the chunked writer's buffer to fill.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// jsonLog serializes structured log records as one JSON object per
// line. A nil receiver (no Config.AccessLog) drops everything, so
// handlers log unconditionally. The mutex makes concurrent handler
// writes atomic at line granularity — interleaved half-lines would
// defeat every downstream JSON-lines consumer.
type jsonLog struct {
	mu sync.Mutex
	w  io.Writer
}

func newJSONLog(w io.Writer) *jsonLog {
	if w == nil {
		return nil
	}
	return &jsonLog{w: w}
}

func (l *jsonLog) log(rec any) {
	if l == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return // a log record must never take a request down
	}
	b = append(b, '\n')
	l.mu.Lock()
	l.w.Write(b) //nolint:errcheck // best effort to a log sink
	l.mu.Unlock()
}

// accessRecord is one access-log line: who asked what, what they got,
// and the ID linking the line to the request's trace spans.
type accessRecord struct {
	Type      string  `json:"type"` // "access"
	TS        string  `json:"ts"`
	RequestID string  `json:"request_id"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Route     string  `json:"route"` // the registered pattern, stable across path params
	Status    int     `json:"status"`
	DurMS     float64 `json:"dur_ms"`
	Bytes     int64   `json:"bytes"`
}

// slowQueryRecord is one slow-query-log line, emitted when a query
// handler exceeds Config.SlowQuery. It captures what a latency
// investigation needs without re-running anything: the goal, the
// snapshot generation it ran against, whether the result cache was
// hit, how the match executed (indexed probe vs full scan and how many
// tuples it touched), and the session's cumulative fixpoint rounds as
// context for how much derived state the snapshot holds.
type slowQueryRecord struct {
	Type       string  `json:"type"` // "slow_query"
	TS         string  `json:"ts"`
	RequestID  string  `json:"request_id"`
	Session    string  `json:"session"`
	Goal       string  `json:"goal"`
	Generation uint64  `json:"generation"`
	DurMS      float64 `json:"dur_ms"`
	Total      int     `json:"total"`
	Cached     bool    `json:"cached"`
	Probes     int     `json:"probes"`
	Indexed    bool    `json:"indexed"`
	Rounds     int64   `json:"rounds"`
}

// metricsSnapshot is the one serializer behind every metrics surface:
// GET /metrics and GET /v1/stats both render its output, so the two
// can never drift. Point-in-time gauges (queue depth, cache size, live
// sessions, admission-gate occupancy) are refreshed here rather than on
// every mutation — they are derived values, and scrape time is the only
// moment their freshness matters.
func (s *Server) metricsSnapshot() *obs.MetricsSnapshot {
	var depth int64
	var cacheSize, cacheBytes int64
	var walSeq, ckptAge, lag, slots, slotDepth int64
	now := time.Now().UnixNano()
	sessions := s.allSessions()
	for _, sess := range sessions {
		depth += int64(len(sess.queue))
		entries, bytes := sess.cache.size()
		cacheSize += int64(entries)
		cacheBytes += bytes
		if sq := int64(sess.seq.Load()); sq > walSeq {
			walSeq = sq
		}
		if t := sess.lastCkptNano.Load(); t > 0 {
			if age := (now - t) / int64(time.Second); age > ckptAge {
				ckptAge = age
			}
		}
		nSlots, nDepth := sess.slots.gauges()
		slots += int64(nSlots)
		slotDepth += int64(nDepth)
		// Lag: a leader's worst backlog toward any follower stream, a
		// follower's distance behind its leader. Both read 0 when idle
		// and caught up.
		if int64(nDepth) > lag {
			lag = int64(nDepth)
		}
		if rs := sess.repl.Load(); rs != nil {
			if d := int64(rs.lag(sess.snap.Load().seq)); d > lag {
				lag = d
			}
		}
	}
	s.gQueueDepth.Set(depth)
	s.gCacheSize.Set(cacheSize)
	s.gCacheBytes.Set(cacheBytes)
	s.gSessions.Set(int64(len(sessions)))
	s.gInflight.Set(int64(len(s.gate)))
	s.gWALSeq.Set(walSeq)
	s.gCkptAge.Set(ckptAge)
	s.gReplLag.Set(lag)
	s.gSlots.Set(slots)
	s.gSlotDepth.Set(slotDepth)
	s.gSubs.Set(s.subscribers.Load())
	s.gHeapInuse.Set(heapInuseBytes())
	s.gRSSPeak.Set(rssPeakBytes())
	return s.metrics.SnapshotAll()
}

// heapInuseBytes is the runtime's in-use heap spans (MemStats.HeapInuse),
// read without stopping the world.
func heapInuseBytes() int64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64() + s[1].Value.Uint64())
}

// rssPeakBytes is the process's peak resident set size, the VmHWM line
// of /proc/self/status; 0 where that file does not exist.
func rssPeakBytes() int64 {
	b, _ := os.ReadFile("/proc/self/status") // absent off Linux: reads as 0
	_, rest, _ := strings.Cut(string(b), "VmHWM:")
	var kb int64
	fmt.Sscan(rest, &kb) //nolint:errcheck // no such line: 0
	return kb << 10
}

// handleMetrics serves the Prometheus text exposition of the shared
// registry snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metricsSnapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, snap) //nolint:errcheck // best effort to a live conn
}
