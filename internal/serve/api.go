// Package serve is the long-running Datalog service behind cmd/dlogd.
//
// A server hosts a registry of named sessions, each an independently
// loaded program with its own materialized IDB, published snapshot,
// and write pipeline. Loading a session parses the source, picks its
// evaluation plan when the load (or the server default) names a plan
// mode — the paper's semantic-optimization pipeline (§3–§4) is one
// candidate in that space — evaluates the IDB to fixpoint, and
// publishes an immutable copy-on-write snapshot of the database
// together with the sequence number it was taken at. From then on:
//
//   - queries are served lock-free against the session's latest
//     snapshot, with pagination and an optional snapshot-generation
//     keyed result cache for hot repeated goals; every reply carries
//     the sequence of the snapshot that served it;
//   - writes (POST /changes with {adds, dels}) enqueue onto the
//     session's commit queue; a single committer goroutine per session
//     drains the queue, coalesces concurrent requests to their net
//     effect, and runs ONE Z-set maintenance pass for the whole batch
//     (session.applyDelta) before publishing one snapshot and only
//     then fanning the responses back out — every commit gets a
//     sequence number, durable or not;
//   - the pass is total: updates that reach a negated predicate are
//     swept like any other, and a from-scratch rebuild happens only to
//     heal a session an earlier failure left dirty;
//   - change-feed subscribers (GET /subscribe, SSE or long-poll)
//     receive each committed batch as a {seq, adds, dels} delta frame,
//     resumable from any replayable sequence via ?from=.
//
// Sessions are addressed by name under /v1; beside it the server
// answers only /healthz, /readyz and /metrics. See README.md.
package serve

import (
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/planner"
)

// Stable machine-readable error codes carried by every non-2xx reply.
const (
	// CodeBadRequest covers malformed bodies, unparsable fact payloads,
	// and semantically invalid updates (non-ground facts, IDB writes,
	// arity clashes).
	CodeBadRequest = "bad_request"
	// CodeBadGoal marks an unparsable or arity-mismatched query goal.
	CodeBadGoal = "bad_goal"
	// CodeNoSession: the named session does not exist.
	CodeNoSession = "no_session"
	// CodeOverloaded: an admission gate or write queue is full; the
	// Retry-After header is computed from the current depth.
	CodeOverloaded = "overloaded"
	// CodeCancelled: the client went away before the request committed.
	CodeCancelled = "cancelled"
	// CodeTooLarge: the request body exceeded the configured limit.
	CodeTooLarge = "too_large"
	// CodeUnsupportedMedia: Content-Type was set but not JSON.
	CodeUnsupportedMedia = "unsupported_media_type"
	// CodeSessionClosed: the session was deleted while the request was
	// queued.
	CodeSessionClosed = "session_closed"
	// CodeInternal: unexpected evaluation failure; the write was rolled
	// back to the pre-request fixpoint.
	CodeInternal = "internal"
	// CodeNotDurable: a durability operation (explicit checkpoint) was
	// requested but the server runs without a data directory.
	CodeNotDurable = "not_durable"
	// CodeDurability: the write-ahead log or a checkpoint failed; the
	// write was rolled back so memory never runs ahead of disk.
	CodeDurability = "durability"
	// CodeNotLeader: this daemon is a read-only replica; the error's
	// Leader field names the leader every write must go to.
	CodeNotLeader = "not_leader"
	// CodeCursorTruncated: a subscription's ?from= cursor predates the
	// oldest replayable sequence (checkpoint GC folded the WAL below it,
	// or the session is in-memory and keeps no history). The error's
	// OldestSeq field names the oldest cursor still served; resume from
	// there after re-reading current state.
	CodeCursorTruncated = "cursor_truncated"
	// CodeSubscriberLimit: the server is at -max-subscribers open change
	// feeds; retry after the Retry-After hint.
	CodeSubscriberLimit = "subscriber_limit"
	// CodeCursorAhead: a subscription's ?from= cursor is beyond the
	// session's newest committed sequence.
	CodeCursorAhead = "cursor_ahead"
)

// ErrorDetail is the structured error body: a stable machine-readable
// code plus a human-readable message.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Leader is set on not_leader errors: the base URL of the leader
	// this read-only replica follows.
	Leader string `json:"leader,omitempty"`
	// OldestSeq is set on cursor_truncated errors: the oldest sequence
	// number a new subscription can still resume from.
	OldestSeq uint64 `json:"oldest_seq,omitempty"`
}

// ErrorResponse is the envelope of every non-2xx reply.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// LoadRequest loads (or replaces) a session's program. The source may
// contain rules, facts and integrity constraints in the paper's
// notation.
type LoadRequest struct {
	Program string `json:"program"`
	// SmallPreds names database predicates treated as small relations
	// for §4(2) atom introduction.
	SmallPreds []string `json:"small_preds,omitempty"`
	// Plan selects the session's evaluation plan from the rewrite
	// space: "auto" (cost-based), "orig", "iso", "opt", "magic" or
	// "bounded". Empty falls back to the server's configured default;
	// if that is empty too, the program is evaluated as written.
	Plan string `json:"plan,omitempty"`
	// Goal is a query goal atom (e.g. `reach(a, Y)`) scoping the
	// session to that goal's answers; a goal binding at least one
	// argument makes the magic-sets plan available to the planner.
	Goal string `json:"goal,omitempty"`
}

// LoadResponse reports the loaded program and its initial fixpoint.
type LoadResponse struct {
	Session   string `json:"session,omitempty"`
	Rules     int    `json:"rules"`
	ICs       int    `json:"ics"`
	Optimized bool   `json:"optimized"`
	// Plan reports the planner's decision when the load ran plan
	// selection (LoadRequest.Plan or the server default).
	Plan      *planner.Decision `json:"plan,omitempty"`
	EDBTuples int               `json:"edb_tuples"`
	IDBTuples int               `json:"idb_tuples"`
	Stats     eval.Stats        `json:"stats"`
}

// QueryRequest asks for the tuples matching a goal atom, e.g.
// "anc(ann, Y)". Constants filter; repeated variables force equality.
type QueryRequest struct {
	Goal string `json:"goal"`
	// Limit caps the rows returned in one page. 0 (or negative) means
	// DefaultQueryLimit; values above MaxQueryLimit are clamped. Total
	// is always reported, so a query over a large IDB never
	// materializes an unbounded JSON body.
	Limit int `json:"limit,omitempty"`
	// Cursor resumes a paginated result from a previous response's
	// NextCursor. Cursors are only meaningful against the same snapshot
	// generation; across writes the pagination restarts best-effort.
	Cursor string `json:"cursor,omitempty"`
}

// QueryResponse lists one page of matching tuples, each rendered as
// its terms in source syntax.
type QueryResponse struct {
	Goal  string `json:"goal"`
	Count int    `json:"count"` // rows in this page
	Total int    `json:"total"` // rows matching the goal
	// NextCursor, when non-empty, fetches the next page.
	NextCursor string     `json:"next_cursor,omitempty"`
	Tuples     [][]string `json:"tuples"`
	// Generation identifies the snapshot this page was served from.
	Generation uint64 `json:"generation"`
	// Cached reports whether the result came from the session's
	// query-result cache.
	Cached bool `json:"cached,omitempty"`
	// Seq is the sequence number of the commit that produced the
	// snapshot this page was served from (the durable WAL sequence when
	// a data directory is configured): the answer is exactly the
	// session's state at Seq. On a follower it tells the client how far
	// behind the leader this read may be, together with the session's
	// replication stats.
	Seq uint64 `json:"seq,omitempty"`
}

// ChangesRequest is the write payload of POST
// /v1/sessions/{name}/changes: facts to add and facts to delete,
// committed together as ONE batch under one sequence number, restored
// to fixpoint by one Z-set maintenance pass. Each entry is a ground
// fact in source syntax ("edge(a, b)", trailing period optional; an
// entry may also carry several period-separated facts). Only
// extensional predicates may be updated, and a fact may not appear on
// both sides of one request.
type ChangesRequest struct {
	Adds []string `json:"adds,omitempty"`
	Dels []string `json:"dels,omitempty"`
}

// UpdateResponse reports one committed POST /changes request.
type UpdateResponse struct {
	// Applied counts facts that effectively changed the EDB (adds of
	// absent tuples, dels of present ones); Ignored counts the rest.
	// Both are computed against the request's position in its commit
	// group, so they match what sequential per-request application
	// would have reported.
	Applied int `json:"applied"`
	Ignored int `json:"ignored"`
	// Mode is "incremental" when the Z-set maintenance pass ran (it
	// serves every update, negation included), "recompute" when the
	// write healed a dirty session by rebuilding the IDB from scratch,
	// "noop" when the committed group changed nothing. For
	// group-committed requests the mode describes the batch's single
	// maintenance pass.
	Mode string `json:"mode"`
	// Batched is the number of write requests group-committed in the
	// same maintenance pass as this one (1 = committed alone).
	Batched int `json:"batched,omitempty"`
	// Seq is the sequence number of the commit that carried this
	// request (the session's current sequence for pure no-ops). A
	// subscription resumed with ?from=Seq streams every change after
	// this write.
	Seq uint64 `json:"seq"`
	// Stats are the engine counters of the maintenance pass that
	// committed this request (shared across a batch).
	Stats eval.Stats `json:"stats"`
}

// DeltaFrame is one committed batch on the change feed (GET
// /v1/sessions/{name}/subscribe): the net extensional change that
// committed under Seq, each fact rendered in source syntax. Frames are
// emitted in strictly increasing Seq order with no gaps.
type DeltaFrame struct {
	Seq  uint64   `json:"seq"`
	Adds []string `json:"adds"`
	Dels []string `json:"dels"`
}

// SubscribeResponse is the long-poll (non-SSE) subscription reply: the
// frames after the request's cursor, and the cursor to resume from.
type SubscribeResponse struct {
	Session string       `json:"session"`
	Frames  []DeltaFrame `json:"frames"`
	// NextFrom is the ?from= value of the follow-up request: the Seq of
	// the last frame, or the cursor unchanged when Frames is empty.
	NextFrom uint64 `json:"next_from"`
}

// SessionStats is one session's observability snapshot.
type SessionStats struct {
	Name       string `json:"name"`
	Rules      int    `json:"rules"`
	Optimized  bool   `json:"optimized"`
	Generation uint64 `json:"generation"`
	Queries    int64  `json:"queries"`
	// Changes counts the write requests (POST /changes) a commit group
	// carried to a verdict.
	Changes int64 `json:"changes"`
	// Incremental + Recomputes is the number of maintenance fixpoints
	// actually run; under group commit it is strictly less than Changes
	// whenever batching kicked in.
	Incremental int64 `json:"incremental"`
	Recomputes  int64 `json:"recomputes"`
	// Batches counts commit groups; BatchedWrites the write requests
	// they carried; MaxBatch the largest group observed.
	Batches       int64 `json:"batches"`
	BatchedWrites int64 `json:"batched_writes"`
	MaxBatch      int64 `json:"max_batch"`
	QueueDepth    int   `json:"queue_depth"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	// CacheEvictions counts entries dropped by LRU pressure or on-sight
	// stale-generation eviction (whole-cache purges after commits are
	// not evictions).
	CacheEvictions int64          `json:"cache_evictions"`
	CacheSize      int            `json:"cache_size"`
	Relations      map[string]int `json:"relations,omitempty"`
	// Eval accumulates the engine counters of every evaluation the
	// session has run (load, maintenance, recompute).
	Eval eval.Stats `json:"eval"`
	// Planner is present when the session was loaded through plan
	// selection: the chosen variant, why, and every candidate's cost.
	Planner *PlannerStats `json:"planner,omitempty"`
	// Durability is present only on sessions backed by a durable store
	// (see DurabilityStats).
	Durability *DurabilityStats `json:"durability,omitempty"`
	// Replication is present when the session ships (leader with live
	// slots) or receives (follower) a replication stream.
	Replication *ReplicationStats `json:"replication,omitempty"`
}

// PlannerStats surfaces a session's plan-selection state in
// /v1/sessions/{name}/stats: what was requested, what the planner
// chose and why, every candidate's estimate, and how often the
// adaptive path has re-planned.
type PlannerStats struct {
	// Requested is the plan mode the load asked for ("auto" or a
	// pinned variant).
	Requested string `json:"requested"`
	Chosen    string `json:"chosen"`
	Reason    string `json:"reason"`
	Goal      string `json:"goal,omitempty"`
	// Candidates carries each variant's estimated (or measured) cost;
	// unavailable candidates report why instead. Absent on sessions
	// recovered from a checkpoint (the decision is not persisted).
	Candidates []planner.Candidate `json:"candidates,omitempty"`
	CompileNs  int64               `json:"compile_ns,omitempty"`
	// Replans counts adaptive plan swaps since load.
	Replans int64 `json:"replans"`
}

// CheckpointResponse reports an explicit checkpoint request: the
// snapshot now on disk covers every batch up to Seq.
type CheckpointResponse struct {
	Session string `json:"session"`
	Seq     uint64 `json:"seq"`
}

// ServerStatsResponse is the /v1/stats snapshot: server-wide counters
// plus per-session breakdowns.
type ServerStatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Rejected counts query-gate refusals; WriteRejected counts writes
	// refused because a session's commit queue was full.
	Rejected      int64          `json:"rejected"`
	WriteRejected int64          `json:"write_rejected"`
	Sessions      []SessionStats `json:"sessions"`
	// Metrics is the full obs registry snapshot (serve.* and durable.*
	// counters, gauges, histograms, and labeled families) — the JSON
	// twin of the GET /metrics Prometheus exposition, rendered from the
	// same Server.metricsSnapshot call.
	Metrics *obs.MetricsSnapshot `json:"metrics,omitempty"`
}

// SessionListResponse lists the live session names.
type SessionListResponse struct {
	Sessions []string `json:"sessions"`
}
