package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/storage"
)

// Config tunes a Server.
type Config struct {
	// MaxConcurrentQueries bounds in-flight query requests; excess
	// requests are refused with 503 instead of queueing. <= 0 means
	// DefaultMaxConcurrentQueries.
	MaxConcurrentQueries int
	// MaxPendingWrites bounds each session's commit queue; a write
	// arriving at a full queue is refused with 503 and a depth-derived
	// Retry-After. <= 0 means DefaultMaxPendingWrites.
	MaxPendingWrites int
	// MaxBatch caps how many queued writes one maintenance pass may
	// group-commit. <= 0 means DefaultMaxBatch; 1 disables grouping.
	MaxBatch int
	// QueryCache is the per-session query-result cache capacity in
	// entries: 0 means DefaultQueryCacheEntries, negative disables
	// caching.
	QueryCache int
	// MaxBodyBytes caps a request body. <= 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Tracer, when non-nil, records a span per request plus the engine
	// spans of every evaluation.
	Tracer *obs.Tracer
	// Metrics receives the serve.* pipeline counters; nil allocates a
	// private registry (exposed via GET /metrics and GET /v1/stats
	// either way).
	Metrics *obs.Metrics
	// AccessLog, when non-nil, receives one JSON line per request (and
	// per slow query, see SlowQuery). Lines are written whole under a
	// lock, so the writer needs no locking of its own.
	AccessLog io.Writer
	// SlowQuery, when positive, logs any query handler taking at least
	// this long to the access-log sink as a slow_query record.
	SlowQuery time.Duration
	// Durability, when non-nil, persists every session under
	// Durability.Dir: committed batches are write-ahead logged before
	// acknowledgement and the database is checkpointed periodically.
	// Call RecoverSessions at startup to restore what a previous
	// process left behind. Nil keeps the server fully in-memory.
	Durability *durable.Options
	// Follow, when non-empty, runs this server as a read-only replica
	// of the leader at that base URL: sessions are discovered from the
	// leader, bootstrapped from its checkpoints, and fed committed WAL
	// batches; every write surface answers 403 not_leader. Requires
	// Durability. Call StartFollower after RecoverSessions.
	Follow string
	// ReadyMaxLag is the batch-sequence lag at or under which a
	// follower reports ready on GET /readyz (0 = fully caught up).
	ReadyMaxLag uint64
	// FollowPoll is the follower's session-discovery interval. <= 0
	// means DefaultFollowPoll.
	FollowPoll time.Duration
	// Heartbeat is the leader's idle-stream heartbeat interval, also
	// used for idle change-feed subscriptions. <= 0 means
	// DefaultHeartbeat.
	Heartbeat time.Duration
	// MaxSubscribers bounds concurrently open change-feed subscriptions
	// (GET /v1/sessions/{name}/subscribe) across all sessions; excess
	// subscribers are refused with 429 and a Retry-After. <= 0 means
	// DefaultMaxSubscribers.
	MaxSubscribers int
	// Plan is the default plan-selection mode for loads that do not set
	// LoadRequest.Plan: "" evaluates each program as written, "auto"
	// runs the cost-based planner, any variant name pins that plan. See
	// internal/planner.
	Plan string
	// ReplanEvery, when positive, re-runs the planner every that many
	// committed write batches on sessions loaded with plan=auto,
	// feeding the incumbent's live measured cost into the decision; a
	// changed verdict rebuilds the fixpoint under the new plan and
	// swaps it atomically. 0 disables adaptive re-planning.
	ReplanEvery int
}

const (
	// DefaultMaxConcurrentQueries is the admission-gate width when the
	// config leaves it unset.
	DefaultMaxConcurrentQueries = 64
	// DefaultMaxPendingWrites is the per-session commit-queue depth.
	DefaultMaxPendingWrites = 256
	// DefaultMaxBatch is the group-commit size cap.
	DefaultMaxBatch = 64
	// DefaultQueryCacheEntries is the per-session query-cache capacity.
	DefaultQueryCacheEntries = 1024
	// DefaultMaxBodyBytes caps request bodies at 8 MiB.
	DefaultMaxBodyBytes = 8 << 20
	// DefaultQueryLimit is the page size when a query sets no limit.
	DefaultQueryLimit = 10000
	// MaxQueryLimit is the largest page a query may request.
	MaxQueryLimit = 10000
	// DefaultFollowPoll is the follower's session-discovery interval.
	DefaultFollowPoll = 2 * time.Second
	// DefaultHeartbeat is the leader's idle replication-stream
	// heartbeat interval.
	DefaultHeartbeat = time.Second
	// DefaultMaxSubscribers is the server-wide cap on open change-feed
	// subscriptions.
	DefaultMaxSubscribers = 64
	// statusClientClosedRequest mirrors nginx's non-standard 499.
	statusClientClosedRequest = 499
)

// Server is the dlogd request handler: a registry of named sessions,
// each with its own program, write pipeline, and published snapshot.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	gate  chan struct{}
	start time.Time

	metrics        *obs.Metrics
	mBatches       *obs.Counter
	mBatchedWrites *obs.Counter
	mMaxBatch      *obs.Counter
	mGroupCommits  *obs.Counter
	mCacheHits     *obs.Counter
	mCacheMisses   *obs.Counter
	mCacheEvicts   *obs.Counter
	mIndexBuilds   *obs.Counter                     // column indexes built for reads (by a reader, or at publish)
	mQueryPath     [len(readPathNames)]*obs.Counter // serve.query_path{path}, by readPath

	// Latency histograms over the pipeline's hot spots (log2 buckets,
	// nanoseconds unless named otherwise).
	hQuery      *obs.Histogram // query handler, admission to reply
	hCommit     *obs.Histogram // one commit group under the session mutex
	hCommitWait *obs.Histogram // enqueue-to-commit-start wait per write
	hBatchSize  *obs.Histogram // write requests per commit group
	hFsync      *obs.Histogram // WAL fsync per logged batch
	hCheckpoint *obs.Histogram // snapshot checkpoint write
	hReplay     *obs.Histogram // recovery WAL replay per session

	// Point-in-time gauges, refreshed by metricsSnapshot at scrape time.
	gQueueDepth *obs.Gauge
	gCacheSize  *obs.Gauge
	gCacheBytes *obs.Gauge
	gSessions   *obs.Gauge
	gInflight   *obs.Gauge
	gWALSeq     *obs.Gauge // durable.wal_seq: max durable seq across sessions
	gCkptAge    *obs.Gauge // durable.checkpoint_age_seconds: max age across sessions
	gReplLag    *obs.Gauge // replication.lag_seqs: max lag across sessions (either role)
	gSlots      *obs.Gauge // replication.slots: connected follower streams
	gSlotDepth  *obs.Gauge // replication.slot_depth: live batches buffered, all slots
	gSubs       *obs.Gauge // serve.subscribers: open change-feed subscriptions
	gHeapInuse  *obs.Gauge // process.heap_inuse_bytes: heap spans in use
	gRSSPeak    *obs.Gauge // process.rss_peak_bytes: peak resident set (VmHWM)

	// hSubLag observes, per delivered change-feed frame, how many
	// sequence numbers the subscriber was behind the session head at
	// send time (serve.subscribe_lag_seqs).
	hSubLag *obs.Histogram

	// Replication counters.
	mReconnects    *obs.Counter // follower stream (re)connects
	mSnapshotBytes *obs.Counter // bootstrap snapshot bytes shipped (leader)
	mShipped       *obs.Counter // batches shipped to followers (leader)
	mApplied       *obs.Counter // batches applied from the leader (follower)
	mSlotOverflows *obs.Counter // slow-follower slot disconnects (leader)

	// Labeled families.
	vRequests   *obs.CounterVec // {route, code}
	vCache      *obs.CounterVec // {session, event=hit|miss|evict}
	vPlanner    *obs.CounterVec // {mode=gj|binary} per-plan join decisions
	vPlanChoice *obs.CounterVec // {variant} cost-based plan selections
	vRejections *obs.CounterVec // {kind=query|write} admission refusals

	accessLog *jsonLog

	// durable mirrors cfg.Durability != nil; durOpts is the normalized
	// copy every store is opened with.
	durable bool
	durOpts durable.Options

	regMu    sync.RWMutex
	sessions map[string]*session
	closed   bool

	// follower holds the replication manager's state when cfg.Follow is
	// set; nil on a leader.
	follower *followerState

	rejected      atomic.Int64 // query-gate refusals
	writeRejected atomic.Int64 // commit-queue refusals
	subscribers   atomic.Int64 // open change-feed subscriptions (all sessions)

	// testBeforeCommit, when set, is invoked by the committer with the
	// group size before it takes the session mutex; tests use it to pin
	// batch boundaries deterministically.
	testBeforeCommit func(batchSize int)
	// testBeforePublish, when set, is invoked by the committer between
	// the query-cache purge and the snapshot publish of a commit; the
	// ack-ordering test uses it to observe that no writer has been
	// answered yet.
	testBeforePublish func()
	// testFollowerApply, when set, is invoked by the follower apply path
	// with each leader batch's sequence just before the batch lands;
	// tests use it to record the order batches land in.
	testFollowerApply func(name string, seq uint64)
}

// New builds a Server. Use Handler to mount it and Close to stop the
// session committers on shutdown.
func New(cfg Config) *Server {
	if cfg.MaxConcurrentQueries <= 0 {
		cfg.MaxConcurrentQueries = DefaultMaxConcurrentQueries
	}
	if cfg.MaxPendingWrites <= 0 {
		cfg.MaxPendingWrites = DefaultMaxPendingWrites
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	switch {
	case cfg.QueryCache == 0:
		cfg.QueryCache = DefaultQueryCacheEntries
	case cfg.QueryCache < 0:
		cfg.QueryCache = 0 // normalized: 0 means disabled from here on
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewMetrics()
	}
	if cfg.FollowPoll <= 0 {
		cfg.FollowPoll = DefaultFollowPoll
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.MaxSubscribers <= 0 {
		cfg.MaxSubscribers = DefaultMaxSubscribers
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		gate:     make(chan struct{}, cfg.MaxConcurrentQueries),
		start:    time.Now(),
		metrics:  cfg.Metrics,
		sessions: map[string]*session{},
	}
	if cfg.Durability != nil {
		s.durable = true
		s.durOpts = cfg.Durability.Norm()
	}
	s.mBatches = s.metrics.Counter("serve.batches")
	s.mBatchedWrites = s.metrics.Counter("serve.batched_writes")
	s.mMaxBatch = s.metrics.Counter("serve.max_batch")
	s.mGroupCommits = s.metrics.Counter("serve.group_commits")
	s.mCacheHits = s.metrics.Counter("serve.cache_hits")
	s.mCacheMisses = s.metrics.Counter("serve.cache_misses")
	s.mCacheEvicts = s.metrics.Counter("serve.cache_evictions")
	s.mIndexBuilds = s.metrics.Counter("serve.index_builds")
	for p, name := range readPathNames {
		s.mQueryPath[p] = s.metrics.CounterVec("serve.query_path", "path").With(name)
	}
	s.hQuery = s.metrics.Histogram("serve.query_ns")
	s.hCommit = s.metrics.Histogram("serve.commit_ns")
	s.hCommitWait = s.metrics.Histogram("serve.commit_wait_ns")
	s.hBatchSize = s.metrics.Histogram("serve.batch_size")
	s.hFsync = s.metrics.Histogram("durable.fsync_ns")
	s.hCheckpoint = s.metrics.Histogram("durable.checkpoint_ns")
	s.hReplay = s.metrics.Histogram("durable.replay_ns")
	s.gQueueDepth = s.metrics.Gauge("serve.queue_depth")
	s.gCacheSize = s.metrics.Gauge("serve.cache_size")
	s.gCacheBytes = s.metrics.Gauge("serve.cache_bytes")
	s.gSessions = s.metrics.Gauge("serve.sessions")
	s.gInflight = s.metrics.Gauge("serve.inflight_queries")
	s.gWALSeq = s.metrics.Gauge("durable.wal_seq")
	s.gCkptAge = s.metrics.Gauge("durable.checkpoint_age_seconds")
	s.gReplLag = s.metrics.Gauge("replication.lag_seqs")
	s.gSlots = s.metrics.Gauge("replication.slots")
	s.gSlotDepth = s.metrics.Gauge("replication.slot_depth")
	s.gSubs = s.metrics.Gauge("serve.subscribers")
	s.gHeapInuse = s.metrics.Gauge("process.heap_inuse_bytes")
	s.gRSSPeak = s.metrics.Gauge("process.rss_peak_bytes")
	s.hSubLag = s.metrics.Histogram("serve.subscribe_lag_seqs")
	s.mReconnects = s.metrics.Counter("replication.reconnects")
	s.mSnapshotBytes = s.metrics.Counter("replication.snapshot_bytes")
	s.mShipped = s.metrics.Counter("replication.batches_shipped")
	s.mApplied = s.metrics.Counter("replication.batches_applied")
	s.mSlotOverflows = s.metrics.Counter("replication.slot_overflows")
	s.vRequests = s.metrics.CounterVec("serve.requests", "route", "code")
	s.vCache = s.metrics.CounterVec("serve.cache", "session", "event")
	s.vPlanner = s.metrics.CounterVec("serve.planner_rules", "mode")
	s.vPlanChoice = s.metrics.CounterVec("serve.planner_choice", "variant")
	s.vRejections = s.metrics.CounterVec("serve.rejections", "kind")
	s.accessLog = newJSONLog(cfg.AccessLog)

	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /v1/stats", s.handleServerStats)
	s.route("GET /v1/sessions", s.handleSessionList)
	s.route("POST /v1/sessions/{name}", s.handleLoad)
	s.route("DELETE /v1/sessions/{name}", s.handleSessionDrop)
	s.route("POST /v1/sessions/{name}/query", s.handleQuery)
	s.route("POST /v1/sessions/{name}/changes", s.handleChanges)
	s.route("GET /v1/sessions/{name}/subscribe", s.handleSubscribe)
	s.route("GET /v1/sessions/{name}/stats", s.handleSessionStats)
	s.route("POST /v1/sessions/{name}/checkpoint", s.handleCheckpoint)
	s.route("GET /v1/sessions/{name}/replicate", s.handleReplicate)

	if cfg.Follow != "" {
		s.follower = newFollowerState()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// route registers a handler wrapped in the request-telemetry
// middleware. The pattern is passed through explicitly (rather than
// recovered from the request) so the serve.requests family and the
// access log aggregate by route template, not by concrete path —
// /v1/sessions/a/query and /v1/sessions/b/query are one series.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.traced(pattern, h))
}

// traced is the per-request telemetry middleware: it mints the request
// ID, answers it in X-Request-Id, stores it in the request context
// (commitChanges carries that context into the commit queue, so the
// committer's serve.commit span bears the same ID), opens the request
// span, and on completion bumps serve.requests{route,code} and writes
// the access-log line.
func (s *Server) traced(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := nextRequestID()
		w.Header().Set("X-Request-Id", formatRequestID(id))
		r = r.WithContext(withRequestID(r.Context(), id))
		start := time.Now()
		sp := s.cfg.Tracer.Start("serve", route)
		sp.Arg("req", int64(id))
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		sp.End()
		s.vRequests.With(route, strconv.Itoa(sw.code())).Inc()
		if s.accessLog != nil {
			dur := time.Since(start)
			s.accessLog.log(accessRecord{
				Type:      "access",
				TS:        time.Now().UTC().Format(time.RFC3339Nano),
				RequestID: formatRequestID(id),
				Method:    r.Method,
				Path:      r.URL.Path,
				Route:     route,
				Status:    sw.code(),
				DurMS:     float64(dur) / float64(time.Millisecond),
				Bytes:     sw.bytes,
			})
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // best effort to a live conn
}

func writeErr(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: ErrorDetail{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// decode parses a JSON request body with a size cap and a Content-Type
// check (absent Content-Type is tolerated for curl ergonomics; a wrong
// one is refused).
func decode[T any](w http.ResponseWriter, r *http.Request, maxBody int64) (T, bool) {
	var req T
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != "application/json" {
			writeErr(w, http.StatusUnsupportedMediaType, CodeUnsupportedMedia,
				"Content-Type must be application/json, got %q", ct)
			return req, false
		}
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return req, false
		}
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return req, false
	}
	return req, true
}

// retryAfterSeconds derives a Retry-After hint from the depth of the
// contended resource: deeper backlog, longer back-off, capped at 30s.
// perSecond is a rough drain-rate guess for the resource.
func retryAfterSeconds(depth, perSecond int) string {
	secs := 1 + depth/perSecond
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// missingSession answers a request addressed at a session that does
// not exist (or has published nothing yet): 404 no_session.
func missingSession(w http.ResponseWriter, name string) {
	writeErr(w, http.StatusNotFound, CodeNoSession, "no session %q", name)
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if s.rejectNotLeader(w) {
		return
	}
	req, ok := decode[LoadRequest](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	resp, err := s.LoadSession(r.Context(), r.PathValue("name"), req)
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			writeErr(w, statusClientClosedRequest, CodeCancelled, "load: %v", err)
		case errors.Is(err, errSessionClosed):
			writeErr(w, http.StatusConflict, CodeSessionClosed, "load: %v", err)
		default:
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "load: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleQuery admits, decodes and parses a read; answer serves it.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	select {
	case s.gate <- struct{}{}:
		defer func() { <-s.gate }()
	default:
		s.rejected.Add(1)
		s.vRejections.With("query").Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(cap(s.gate), 16))
		writeErr(w, http.StatusServiceUnavailable, CodeOverloaded,
			"query admission gate full (%d in flight)", cap(s.gate))
		return
	}
	start := time.Now()
	defer func() { s.hQuery.ObserveSince(start) }()
	req, ok := decode[QueryRequest](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	name := r.PathValue("name")
	sess := s.session(name)
	if sess == nil {
		missingSession(w, name)
		return
	}
	goal, err := parser.ParseAtom(req.Goal)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadGoal, "bad goal: %v", err)
		return
	}
	s.answer(w, r, sess, goal, req, start)
}

// answer serves one parsed read. It never takes a session mutex: the
// goal is matched against the snapshot that was current when it began,
// giving every query a consistent point-in-time view even while
// updates land concurrently. Results are paginated and, when the cache
// is enabled, memoized per snapshot generation.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, sess *session, goal ast.Atom, req QueryRequest, start time.Time) {
	// One load: the reply's Seq names exactly the state it answers from.
	pub := sess.snap.Load()
	db := pub.db
	if db == nil {
		missingSession(w, sess.name)
		return
	}
	gen := db.Generation()

	// A hit is a map lookup and a write of bytes rendered once; a miss
	// matches, and renders the whole result only when it can be cached —
	// otherwise just the page asked for.
	var m match
	var err error
	key := canonicalGoal(goal)
	rows := sess.cache.get(key, gen)
	hit := rows != nil
	if hit {
		sess.cacheHits.Add(1)
		s.mCacheHits.Inc()
		sess.cacheHitVec.Inc()
		m.total = rows.len()
	} else {
		if m, err = querySnapshot(db, goal); err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadGoal, "query: %v", err)
			return
		}
		if m.built {
			s.mIndexBuilds.Inc()
			sess.wantIndex(goal.Pred, m.col)
		}
		if sess.cache != nil {
			sess.cacheMisses.Add(1)
			s.mCacheMisses.Inc()
			sess.cacheMissVec.Inc()
			if m.total <= MaxQueryLimit {
				rows = renderRows(&m, 0, m.total)
				sess.cache.put(key, gen, rows)
			}
		}
	}
	s.mQueryPath[m.path].Inc()

	limit := req.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	if limit > MaxQueryLimit {
		limit = MaxQueryLimit
	}
	offset := 0
	if req.Cursor != "" {
		offset, err = strconv.Atoi(req.Cursor)
		if err != nil || offset < 0 {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad cursor %q", req.Cursor)
			return
		}
	}
	offset = min(offset, m.total)
	end := min(offset+limit, m.total)
	var page []byte
	if rows != nil {
		page = rows.page(offset, end)
	} else {
		page = renderRows(&m, offset, end).page(0, end-offset)
	}

	sess.queries.Add(1)
	if s.cfg.SlowQuery > 0 && s.accessLog != nil {
		if dur := time.Since(start); dur >= s.cfg.SlowQuery {
			sess.statsMu.Lock()
			rounds := sess.evalStats.Iterations
			sess.statsMu.Unlock()
			s.accessLog.log(slowQueryRecord{
				Type:       "slow_query",
				TS:         time.Now().UTC().Format(time.RFC3339Nano),
				RequestID:  formatRequestID(requestIDFrom(r.Context())),
				Session:    sess.name,
				Goal:       goal.String(),
				Generation: gen,
				DurMS:      float64(dur) / float64(time.Millisecond),
				Total:      m.total,
				Cached:     hit,
				Probes:     m.probes,
				Indexed:    m.path == pathContains || m.path == pathIndex,
				Rounds:     rounds,
			})
		}
	}
	resp := QueryResponse{
		Goal:       goal.String(),
		Count:      end - offset,
		Total:      m.total,
		Generation: gen,
		Cached:     hit,
		Seq:        pub.seq,
	}
	if end < m.total {
		resp.NextCursor = strconv.Itoa(end)
	}
	writeQueryReply(w, resp, page)
}

// handleChanges serves POST /v1/sessions/{name}/changes: adds and dels
// committed together as one batch under one sequence number.
func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) {
	if s.rejectNotLeader(w) {
		return
	}
	req, ok := decode[ChangesRequest](w, r, s.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	adds, err := parseFactList(req.Adds)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "adds: %v", err)
		return
	}
	dels, err := parseFactList(req.Dels)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "dels: %v", err)
		return
	}
	s.commitChanges(w, r, r.PathValue("name"), adds, dels)
}

// parseFactList parses the entries of a ChangesRequest side. Each
// entry is one or more facts in source syntax; the trailing period may
// be omitted.
func parseFactList(entries []string) ([]groundFact, error) {
	var out []groundFact
	for _, e := range entries {
		src := strings.TrimSpace(e)
		if src == "" {
			continue
		}
		if !strings.HasSuffix(src, ".") {
			src += "."
		}
		facts, err := parseFactsSrc(src)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", e, err)
		}
		out = append(out, facts...)
	}
	return out, nil
}

// commitChanges pre-validates a write against the published snapshot,
// enqueues it onto the session's commit queue, and waits for the
// committer's verdict. Obviously bad requests fail fast without a
// queue slot; the committer re-validates against the authoritative
// database at commit time.
func (s *Server) commitChanges(w http.ResponseWriter, r *http.Request, name string, adds, dels []groundFact) {
	sess := s.session(name)
	if sess == nil {
		missingSession(w, name)
		return
	}
	adds, dels, dups, err := validateChanges(sess.prog.Load(), sess.snap.Load().db, nil, adds, dels)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}

	creq := &commitReq{
		id:   requestIDFrom(r.Context()),
		enq:  time.Now(),
		adds: adds,
		dels: dels,
		dups: dups,
		ctx:  r.Context(),
		done: make(chan commitResult, 1),
	}
	if err := sess.enqueue(creq); err != nil {
		if errors.Is(err, errQueueFull) {
			s.writeRejected.Add(1)
			s.vRejections.With("write").Inc()
			w.Header().Set("Retry-After", retryAfterSeconds(len(sess.queue), 8))
			writeErr(w, http.StatusServiceUnavailable, CodeOverloaded,
				"write queue full (%d pending)", cap(sess.queue))
			return
		}
		writeErr(w, http.StatusConflict, CodeSessionClosed, "%v", err)
		return
	}
	// The committer replies exactly once, even to cancelled requests
	// (it observes ctx itself), so this receive cannot leak.
	res := <-creq.done
	if res.err != nil {
		// On failure the committer rolled the authoritative database
		// back to the pre-request fixpoint (rebuilding from the EDB when
		// maintenance had already mutated it); if even that repair
		// failed, the session is dirty and the next update recomputes
		// first. Readers are unaffected: the old snapshot stays
		// published.
		writeErr(w, res.status, res.code, "update: %v", res.err)
		return
	}
	writeJSON(w, http.StatusOK, res.resp)
}

func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sess := s.session(name)
	if sess == nil {
		missingSession(w, name)
		return
	}
	writeJSON(w, http.StatusOK, sess.stats())
}

func (s *Server) handleServerStats(w http.ResponseWriter, r *http.Request) {
	resp := ServerStatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Rejected:      s.rejected.Load(),
		WriteRejected: s.writeRejected.Load(),
		Metrics:       s.metricsSnapshot(),
	}
	for _, sess := range s.allSessions() {
		resp.Sessions = append(resp.Sessions, sess.stats())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	names := s.sessionNames()
	if names == nil {
		names = []string{}
	}
	writeJSON(w, http.StatusOK, SessionListResponse{Sessions: names})
}

func (s *Server) handleSessionDrop(w http.ResponseWriter, r *http.Request) {
	if s.rejectNotLeader(w) {
		return
	}
	name := r.PathValue("name")
	if !s.dropSession(name) {
		missingSession(w, name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// readPath names how a read was answered; serve.query_path counts
// each. Only pathScan costs more than the answer.
type readPath int

const (
	pathHit      readPath = iota // served from the query cache
	pathContains                 // ground goal: one membership probe
	pathIndex                    // a bound column: that column's hash index
	pathScan                     // no bound column: a walk of the relation
)

var readPathNames = [...]string{"hit", "contains", "index", "scan"}

// match is what querySnapshot found and what finding it cost.
type match struct {
	rel    *storage.Relation // the snapshot relation the answer lives in
	pos    []int             // the answer's positions in rel, ascending; nil: all of rel
	total  int               // the answer's row count, or the cached result's on a hit
	path   readPath
	probes int  // candidate tuples examined
	col    int  // pathIndex: the column probed
	built  bool // pathIndex: this call built that column's index on the snapshot
}

// querySnapshot matches a goal against a published snapshot at a cost
// proportional to the answer whenever the goal binds anything: a ground
// goal is one membership probe, a goal with a constant probes that
// column's hash index, and only a goal of nothing but variables walks
// the relation. A bound column nobody has indexed yet is indexed here,
// once, through storage's LookupShared — the one mutation a reader may
// make to a snapshot other readers share.
func querySnapshot(db *storage.Database, goal ast.Atom) (m match, err error) {
	rel := db.Relation(goal.Pred)
	if rel != nil && rel.Arity != len(goal.Args) {
		return m, fmt.Errorf("%s has arity %d, goal has %d", goal.Pred, rel.Arity, len(goal.Args))
	}
	g := storage.LowerGoal(goal.Args)
	m.path = pathIndex
	if g.Bound == len(goal.Args) {
		m.path = pathContains
	} else if g.Bound == 0 {
		m.path = pathScan
	}
	if rel == nil || !g.Known {
		return m, nil
	}
	m.rel = rel
	filter := func(pos int) {
		if g.Match(rel.At(pos)) {
			m.pos = append(m.pos, pos)
		}
	}
	switch m.path {
	case pathContains:
		m.probes = 1
		if pos := rel.Pos(g.Consts); pos >= 0 {
			m.pos = []int{pos}
		}
	case pathIndex:
		m.col = g.FirstBound()
		var positions []int
		positions, m.built = rel.LookupShared(m.col, g.Consts[m.col])
		m.probes = len(positions)
		m.pos = make([]int, 0, len(positions))
		for _, pos := range positions {
			filter(pos)
		}
	case pathScan:
		m.probes = rel.Len()
		if !g.Repeats() {
			m.total = rel.Len() // every tuple matches: m.pos stays nil
			return m, nil
		}
		m.pos = []int{} // non-nil: an empty answer is not all of rel
		for pos := 0; pos < rel.Len(); pos++ {
			filter(pos)
		}
	}
	m.total = len(m.pos)
	return m, nil
}

// row returns the i-th answer tuple, a view of the snapshot relation.
func (m *match) row(i int) storage.Tuple {
	if m.pos == nil {
		return m.rel.At(i)
	}
	return m.rel.At(m.pos[i])
}

// canonicalGoal is the cache key of goal: its predicate and arguments
// with the variables numbered by first occurrence, so goals that differ
// only in variable names share one entry while repeated variables stay
// repeated. Every token is self-delimiting and "$" starts no constant
// (one that prints with it is quoted), so distinct goals get distinct
// keys.
func canonicalGoal(goal ast.Atom) string {
	b := make([]byte, 0, 64)
	b = append(b, ast.QuoteName(goal.Pred)...)
	var seen []ast.Var
	for _, arg := range goal.Args {
		b = append(b, ',')
		v, ok := arg.(ast.Var)
		if !ok {
			b = append(b, arg.String()...)
			continue
		}
		n := slices.Index(seen, v)
		if n < 0 {
			n = len(seen)
			seen = append(seen, v)
		}
		b = append(b, '$')
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return string(b)
}
