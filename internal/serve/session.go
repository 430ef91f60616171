package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/planner"
	"repro/internal/storage"
)

// loadedProgram is the immutable compiled side of a session: swapped
// atomically on (re)load so request validation can read it without the
// session mutex.
type loadedProgram struct {
	active    *ast.Program    // the program evaluation runs (the chosen plan's rewrite)
	idb       map[string]bool // predicates derived by active rules; not updatable via the API
	rules     int
	ics       int
	optimized bool
	// smallPreds echoes the load request; it rides in checkpoints.
	smallPreds []string
	// plan is the requested plan mode ("" = planner off); decision is
	// the planner's verdict, which the adaptive re-plan path revisits.
	// orig, parsedICs, goal and smallMap preserve the planner's inputs
	// so a re-plan can enumerate the same space against live data.
	// decision is nil on sessions recovered from a checkpoint — the
	// chosen program is restored verbatim, but the candidate table is
	// not persisted and adaptive re-planning resumes only on an
	// explicit reload.
	plan      string
	variant   planner.Variant // chosen plan ("" when the planner is off)
	decision  *planner.Decision
	orig      *ast.Program
	parsedICs []ast.IC
	goal      *ast.Atom
	smallMap  map[string]bool
}

// planned reports whether the session runs under plan selection.
func (lp *loadedProgram) planned() bool { return lp.plan != "" }

// adaptive reports whether the adaptive re-plan path may revisit the
// decision: only auto mode (a pinned variant is a user instruction)
// with a live decision to compare against.
func (lp *loadedProgram) adaptive() bool {
	return lp.plan == string(planner.Auto) && lp.decision != nil
}

// published is what a session's readers see: a frozen copy-on-write
// snapshot of the database and the sequence number of the commit (or
// load) that produced it, swapped in as one pointer so no reader can
// pair a sequence number with a state it does not name. db is nil until
// the session's first publish.
type published struct {
	db  *storage.Database
	seq uint64
}

// session is one named program served by the daemon: an authoritative
// database behind a writer mutex, an atomically published
// copy-on-write snapshot for lock-free reads, a commit queue drained
// by a dedicated committer goroutine (see batch.go), and a
// snapshot-generation keyed query cache.
type session struct {
	name string
	srv  *Server

	prog atomic.Pointer[loadedProgram]

	// mu guards db, zs, seedIDB and dirty. It is held by the committer
	// for the duration of one batch and by (re)loads while swapping
	// state.
	mu sync.Mutex
	db *storage.Database
	// zs is the rank state of db's current fixpoint — the certificate
	// the Z-set maintenance sweep consults to decide which derived
	// tuples a deletion actually kills. It moves with db: install swaps
	// both in together (install.go), and applyDelta's sweep keeps it
	// current.
	zs *eval.ZState
	// seedIDB preserves ground facts the source program stated for
	// derived predicates. The update API cannot touch them, so a
	// rebuild from the EDB (edbOf) re-seeds the IDB from this frozen
	// copy.
	seedIDB map[string]*storage.Relation
	// dirty records that db is not at fixpoint: maintenance is under
	// way, or a failed update could not be undone. Incremental
	// maintenance assumes a fixpoint database; while dirty, the next
	// delta (even an empty one) rebuilds from the EDB instead — see
	// applyDelta. Readers are never exposed: snapshots are only
	// published after a full success.
	dirty bool

	// snap is never nil. Whatever a reply, /readyz or a lag figure says
	// about where this session is comes from it, never from seq below.
	snap atomic.Pointer[published]

	// qmu makes enqueue-vs-close atomic: once qclosed is set no new
	// request can enter the queue, so the committer's final drain after
	// closed fires is race-free.
	qmu     sync.Mutex
	qclosed bool
	queue   chan *commitReq
	closed  chan struct{}

	cache *queryCache

	// wanted is the set of (predicate, column) hash indexes reads have
	// asked for: a miss that had to build one on its snapshot records it
	// here, and publish keeps every wanted column built on the live
	// relation from then on, where Insert/Remove maintain it in O(Δ). It
	// only ever names columns of relations that exist (a reader records
	// what it built, publish forgets what is gone), so it is bounded by
	// the sum of their arities.
	wantMu sync.Mutex
	wanted map[colRef]struct{}

	queries, changeReqs     atomic.Int64
	incremental, recomputes atomic.Int64
	batches, batchedWrites  atomic.Int64
	maxBatch                atomic.Int64
	cacheHits, cacheMisses  atomic.Int64
	// serve.cache{session, event}, resolved once so a read does not
	// rebuild the label key.
	cacheHitVec, cacheMissVec *obs.Counter

	// Durability state (nil dur = in-memory session). dur is only
	// touched under mu. seq is the pipeline's own counter (WAL
	// numbering, follower resume cursor, feed live edges), advanced by
	// land under mu; what readers are told comes from snap. It and
	// the counters are atomics so stats can read them without mu.
	dur                                 *durable.Store
	seq                                 atomic.Uint64 // last logged batch
	sinceCkpt                           atomic.Int64  // logged batches since last checkpoint
	walBatches, walBytes                atomic.Int64
	checkpoints, ckptFailures           atomic.Int64
	replayIncremental, replayRecomputes atomic.Int64
	recovered, tornTail                 atomic.Bool
	// lastCkptNano is the wall-clock time of the last successful
	// checkpoint, feeding the durable.checkpoint_age_seconds gauge.
	lastCkptNano atomic.Int64

	// The session's two feeds (pipeline.go): slots holds one slot per
	// connected follower stream, subs one per open change-feed
	// subscription.
	slots, subs feed

	// Follower side: set by the replication manager while this session
	// is being fed from a leader stream.
	repl atomic.Pointer[replStatus]

	statsMu   sync.Mutex
	evalStats eval.Stats

	// Adaptive re-planning state (auto-plan sessions only). replans
	// counts adopted plan switches; sinceReplan counts committed write
	// batches since the planner last looked, reset on every re-plan
	// check. Both only touched by the committer under mu, but replans
	// is an atomic so stats can read it lock-free.
	replans     atomic.Int64
	sinceReplan int64
	// fixpointCost is the probe count of the incumbent plan's last full
	// fixpoint evaluation — the measured figure the re-planner feeds
	// back as the incumbent's cost.
	fixpointCost atomic.Int64
}

var (
	errSessionClosed = errors.New("session deleted while the request was queued")
	errQueueFull     = errors.New("write queue full")
)

// newSession creates an empty session shell and starts its committer.
// sessionFor registers it; the caller then installs a state into it
// under mu.
func newSession(srv *Server, name string) *session {
	sess := &session{
		name:   name,
		srv:    srv,
		queue:  make(chan *commitReq, srv.cfg.MaxPendingWrites),
		closed: make(chan struct{}),
		cache:  newQueryCache(srv.cfg.QueryCache, srv.mCacheEvicts, srv.vCache.With(name, "evict")),
		wanted: map[colRef]struct{}{},

		cacheHitVec:  srv.vCache.With(name, "hit"),
		cacheMissVec: srv.vCache.With(name, "miss"),
	}
	sess.snap.Store(&published{})
	go srv.committer(sess)
	return sess
}

// close shuts the session's write pipeline down: no new request can
// enqueue, and the committer drains anything already queued with
// CodeSessionClosed before exiting. Idempotent.
func (sess *session) close() {
	sess.qmu.Lock()
	defer sess.qmu.Unlock()
	if !sess.qclosed {
		sess.qclosed = true
		close(sess.closed)
	}
}

// enqueue adds a write request to the commit queue. It fails with
// errSessionClosed after close and errQueueFull when the bounded queue
// is at capacity (the caller answers 503 with a depth-derived
// Retry-After).
func (sess *session) enqueue(req *commitReq) error {
	sess.qmu.Lock()
	defer sess.qmu.Unlock()
	if sess.qclosed {
		return errSessionClosed
	}
	select {
	case sess.queue <- req:
		return nil
	default:
		return errQueueFull
	}
}

// colRef names one column of one relation.
type colRef struct {
	pred string
	col  int
}

// wantIndex records that reads probe pred's column col.
func (sess *session) wantIndex(pred string, col int) {
	sess.wantMu.Lock()
	sess.wanted[colRef{pred, col}] = struct{}{}
	sess.wantMu.Unlock()
}

// publish makes the current authoritative database visible to readers
// as a fresh copy-on-write snapshot, stamped with the sequence it is
// the state at — after making sure the live relations carry every index
// reads have asked for, so the snapshot is born with them and no reader
// of it builds one. A column is built here at most once per database:
// from then on the writer maintains it. Caller holds mu.
func (sess *session) publish() {
	sess.wantMu.Lock()
	for ref := range sess.wanted {
		rel := sess.db.Relation(ref.pred)
		if rel == nil || ref.col >= rel.Arity {
			delete(sess.wanted, ref) // the program was replaced
			continue
		}
		if _, have := rel.LookupNoBuild(ref.col, storage.NoValue); !have {
			rel.EnsureIndex(ref.col)
			sess.srv.mIndexBuilds.Inc()
		}
	}
	sess.wantMu.Unlock()
	sess.snap.Store(&published{db: sess.db.Snapshot(), seq: sess.seq.Load()})
}

func (sess *session) addEvalStats(st eval.Stats) {
	sess.statsMu.Lock()
	sess.evalStats.Add(st)
	sess.statsMu.Unlock()
	// Every evaluation reports its compile-time join decisions; the
	// serve.planner_rules{mode} family aggregates them server-wide so a
	// scrape shows how often Generic Join actually engages.
	if st.GJPlanned > 0 {
		sess.srv.vPlanner.With("gj").Add(st.GJPlanned)
	}
	if st.BinaryPlanned > 0 {
		sess.srv.vPlanner.With("binary").Add(st.BinaryPlanned)
	}
}

// noteBatch records one commit group of n write requests.
func (sess *session) noteBatch(n int) {
	sess.batches.Add(1)
	sess.batchedWrites.Add(int64(n))
	for {
		cur := sess.maxBatch.Load()
		if int64(n) <= cur || sess.maxBatch.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	m := sess.srv
	m.mBatches.Inc()
	m.mBatchedWrites.Add(int64(n))
	m.mMaxBatch.Max(int64(n))
}

// stats snapshots the session's counters.
func (sess *session) stats() SessionStats {
	st := SessionStats{
		Name:           sess.name,
		Queries:        sess.queries.Load(),
		Changes:        sess.changeReqs.Load(),
		Incremental:    sess.incremental.Load(),
		Recomputes:     sess.recomputes.Load(),
		Batches:        sess.batches.Load(),
		BatchedWrites:  sess.batchedWrites.Load(),
		MaxBatch:       sess.maxBatch.Load(),
		QueueDepth:     len(sess.queue),
		CacheHits:      sess.cacheHits.Load(),
		CacheMisses:    sess.cacheMisses.Load(),
		CacheEvictions: sess.cache.evicted(),
	}
	st.CacheSize, _ = sess.cache.size()
	if p := sess.prog.Load(); p != nil {
		st.Rules = p.rules
		st.Optimized = p.optimized
		if p.planned() {
			ps := &PlannerStats{
				Requested: p.plan,
				Chosen:    string(p.variant),
				Replans:   sess.replans.Load(),
			}
			if p.goal != nil {
				ps.Goal = p.goal.String()
			}
			if d := p.decision; d != nil {
				ps.Reason = d.Reason
				ps.Candidates = d.Candidates
				ps.CompileNs = int64(d.CompileTime)
			} else {
				ps.Reason = "plan restored from checkpoint"
			}
			st.Planner = ps
		}
	}
	if db := sess.snap.Load().db; db != nil {
		st.Relations = db.Sizes()
		st.Generation = db.Generation()
	}
	st.Replication = sess.replicationStats()
	sess.statsMu.Lock()
	st.Eval = sess.evalStats
	sess.statsMu.Unlock()
	st.Durability = sess.durabilityStats()
	return st
}

// loadState parses a load request, selects a plan when one is asked
// for, and evaluates the initial fixpoint into a fresh database: the
// state the load installs. It touches no session, so a failed load
// keeps the previous program serving.
func (s *Server) loadState(ctx context.Context, req LoadRequest) (*state, *LoadResponse, error) {
	db := storage.NewDatabase()
	parsed, err := parser.ParseInto(req.Program, db)
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	prog := parsed.Program

	resp := &LoadResponse{Rules: len(prog.Rules), ICs: len(parsed.ICs)}
	active := prog
	small := make(map[string]bool, len(req.SmallPreds))
	for _, p := range req.SmallPreds {
		small[p] = true
	}

	// The request's plan mode wins over the server default; both empty
	// evaluates the program as written.
	planMode := req.Plan
	if planMode == "" {
		planMode = s.cfg.Plan
	}
	var (
		decision *planner.Decision
		variant  planner.Variant
		goal     *ast.Atom
	)
	if planMode != "" {
		v, err := planner.ParseVariant(planMode)
		if err != nil {
			return nil, nil, err
		}
		planMode = string(v)
		if req.Goal != "" {
			g, err := parser.ParseAtom(req.Goal)
			if err != nil {
				return nil, nil, fmt.Errorf("goal: %w", err)
			}
			goal = &g
		}
		popts := planner.Options{ICs: parsed.ICs, SmallPreds: small, Goal: goal}
		if v != planner.Auto {
			popts.Force = v
		}
		d, err := planner.Plan(prog, db, popts)
		if err != nil {
			return nil, nil, fmt.Errorf("plan: %w", err)
		}
		decision, variant = d, d.Chosen
		active = d.Program()
		resp.Plan = d
		resp.Optimized = d.Chosen != planner.Orig
		s.vPlanChoice.With(string(d.Chosen)).Inc()
	}

	lp := &loadedProgram{
		active:     active,
		idb:        active.IDBPreds(),
		rules:      len(prog.Rules),
		ics:        len(parsed.ICs),
		optimized:  resp.Optimized,
		smallPreds: req.SmallPreds,
		plan:       planMode,
		variant:    variant,
		decision:   decision,
		orig:       prog,
		parsedICs:  parsed.ICs,
		goal:       goal,
		smallMap:   small,
	}
	// Facts stated for derived predicates are part of the program, not
	// of the updatable EDB; freeze them for recomputation.
	seedIDB := map[string]*storage.Relation{}
	edbTuples := 0
	for _, p := range db.Preds() {
		if lp.idb[p] {
			seedIDB[p] = db.Relation(p).Clone()
		} else {
			edbTuples += db.Count(p)
		}
	}

	st, err := s.evaluate(ctx, lp, db, seedIDB)
	if err != nil {
		return nil, nil, fmt.Errorf("evaluate: %w", err)
	}
	resp.Stats = st.stats
	resp.EDBTuples = edbTuples
	resp.IDBTuples = db.TotalTuples() - edbTuples
	return st, resp, nil
}

// groundFact is one parsed update fact, order-preserving so the
// committer can replay a batch's requests in arrival order.
type groundFact struct {
	pred  string
	tuple storage.Tuple
}

// parseFactsSrc parses an update payload and rejects anything that is
// not a ground fact. Session-independent; EDB-membership and arity are
// checked by validateFacts.
func parseFactsSrc(src string) ([]groundFact, error) {
	parsed, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	if len(parsed.ICs) > 0 {
		return nil, errors.New("updates cannot contain integrity constraints")
	}
	var out []groundFact
	for _, r := range parsed.Program.Rules {
		if !r.IsFact() {
			return nil, fmt.Errorf("updates must be ground facts, got rule %s", r)
		}
		if !r.Head.IsGround() {
			return nil, fmt.Errorf("updates must be ground, %s has variables", r.Head)
		}
		out = append(out, groundFact{pred: r.Head.Pred, tuple: storage.TupleOfTerms(r.Head.Args)})
	}
	return out, nil
}

// validateFacts checks a parsed payload against a program and database
// view: only extensional predicates, arity consistent with existing
// relations (or within the payload for new predicates, with extra
// overrides from earlier batch members via arityOver), and repeated
// tuples dropped. The whole payload is validated before the caller
// mutates anything, so a malformed request is refused without side
// effects. Returns the deduplicated facts in order plus the duplicate
// count, so response counters can reflect distinct tuples.
//
// Handlers validate against the published snapshot for fast failure;
// the committer re-validates against the authoritative database (and
// the current program) at commit time, which is the authoritative
// check — the program may have been reloaded in between.
func validateFacts(p *loadedProgram, db *storage.Database, arityOver map[string]int, facts []groundFact) ([]groundFact, int, error) {
	seen := map[string]*storage.TupleSet{}
	arity := map[string]int{}
	dups := 0
	out := make([]groundFact, 0, len(facts))
	for _, f := range facts {
		if p != nil && p.idb[f.pred] {
			return nil, 0, fmt.Errorf("%s is derived by the program; only extensional predicates can be updated", f.pred)
		}
		want, ok := arity[f.pred]
		if !ok {
			if rel := relationOf(db, f.pred); rel != nil {
				want = rel.Arity
			} else if a, over := arityOver[f.pred]; over {
				want = a
			} else {
				want = len(f.tuple)
			}
			arity[f.pred] = want
		}
		if len(f.tuple) != want {
			return nil, 0, fmt.Errorf("%s has arity %d, fact %s%s has %d", f.pred, want, f.pred, f.tuple, len(f.tuple))
		}
		set := seen[f.pred]
		if set == nil {
			set = storage.NewTupleSet()
			seen[f.pred] = set
		}
		if !set.Add(f.tuple) {
			dups++
			continue
		}
		out = append(out, f)
	}
	return out, dups, nil
}

// validateChanges validates a request's adds and dels together: both
// sides go through validateFacts against the same arity view, and a
// fact named on both sides is refused outright — "add then delete in
// one request" has no single-commit meaning (the net effect depends on
// prior state), and refusing it keeps a request's own net effect
// independent of how it is grouped.
func validateChanges(p *loadedProgram, db *storage.Database, arityOver map[string]int, adds, dels []groundFact) (va, vd []groundFact, dups int, err error) {
	va, dupsA, err := validateFacts(p, db, arityOver, adds)
	if err != nil {
		return nil, nil, 0, err
	}
	// Adds of brand-new predicates pin the arity the dels must match.
	over := arityOver
	if len(va) > 0 && len(dels) > 0 {
		over = map[string]int{}
		for pred, a := range arityOver {
			over[pred] = a
		}
		for _, f := range va {
			if relationOf(db, f.pred) == nil {
				if _, ok := over[f.pred]; !ok {
					over[f.pred] = len(f.tuple)
				}
			}
		}
	}
	vd, dupsD, err := validateFacts(p, db, over, dels)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(va) > 0 && len(vd) > 0 {
		// Both sides hold a predicate to one arity (over pins new ones).
		added := map[string]*storage.TupleSet{}
		for _, f := range va {
			if added[f.pred] == nil {
				added[f.pred] = storage.NewTupleSet()
			}
			added[f.pred].Add(f.tuple)
		}
		for _, f := range vd {
			if set := added[f.pred]; set != nil && set.Contains(f.tuple) {
				return nil, nil, 0, fmt.Errorf("fact %s%s appears in both adds and dels", f.pred, f.tuple)
			}
		}
	}
	return va, vd, dupsA + dupsD, nil
}

func relationOf(db *storage.Database, pred string) *storage.Relation {
	if db == nil {
		return nil
	}
	return db.Relation(pred)
}

// applyDelta is the one place a net EDB delta reaches a session's
// database, as the first step of land (pipeline.go), whichever way the
// batch arrived. Caller holds mu. It returns the maintenance that ran —
// "incremental" or "recompute" — and its work counters.
//
// The ladder, top to bottom:
//
//   - A dirty session has an IDB nobody can trust: force the delta
//     into the EDB and rebuild from it. Any delta heals a dirty
//     session, an empty one included.
//   - Otherwise build the Z-set once and run the sweep. It is total:
//     no update, negation included, is refused.
//   - A failure (cancellation, a sweep error) may have stopped
//     maintenance partway. What happens next is the failure policy, the
//     only thing a commit and a replay disagree on. A commit must apply
//     nothing: the delta is undone, the pre-request fixpoint rebuilt
//     (undoDelta) and the cause returned for the reply. A replay is
//     re-applying a batch that is already durable, so unless ctx itself
//     is done it forces the delta in and rebuilds.
//
// A commit's ins and del must be effective — tuples absent resp.
// present, as coalesce returns them — so the undo is exact. A replayed
// batch may overlap what the base already holds: the sweep ignores
// ineffective changes and forcing is idempotent. On error the session
// stays dirty unless an undo restored the fixpoint.
func (sess *session) applyDelta(ctx context.Context, ins, del map[string][]storage.Tuple, replay bool) (string, eval.Stats, error) {
	var err error
	if !sess.dirty {
		sess.dirty = true // out of fixpoint until maintenance lands
		eng := sess.srv.engine(sess.prog.Load(), sess.db)
		if _, err = eng.ApplyZSetContext(ctx, sess.zs, zsetOfDelta(ins, del)); err == nil {
			sess.dirty = false
			return "incremental", eng.Stats(), nil
		}
	}
	// The rebuild rung: dirty on entry, or a replay whose sweep died
	// while ctx is still live (a done ctx means shutdown; don't mask it
	// with a rebuild).
	if err == nil || (replay && ctx.Err() == nil) {
		applyNet(sess.db, ins, del)
		var st eval.Stats
		if st, err = sess.recompute(ctx); err == nil {
			sess.dirty = false
			return "recompute", st, nil
		}
	}
	if !replay {
		sess.undoDelta(ins, del)
	}
	return "", eval.Stats{}, err
}

// zsetOfDelta renders a net EDB delta as the per-predicate Z-sets the
// sweep consumes: insertions weight +1, deletions weight −1.
func zsetOfDelta(ins, del map[string][]storage.Tuple) map[string]*storage.ZSet {
	changes := make(map[string]*storage.ZSet, len(ins)+len(del))
	for p, ts := range ins {
		changes[p] = storage.ZSetOfChanges(ts, del[p])
	}
	for p, ts := range del {
		if changes[p] == nil {
			changes[p] = storage.ZSetOfChanges(nil, ts)
		}
	}
	return changes
}

// applyNet forces a net EDB delta into db with no maintenance.
// Inserting a present tuple and removing an absent one are no-ops.
func applyNet(db *storage.Database, ins, del map[string][]storage.Tuple) {
	for p, ts := range ins {
		rel := db.Ensure(p, len(ts[0]))
		for _, t := range ts {
			rel.Insert(t)
		}
	}
	for p, ts := range del {
		rel := db.Relation(p)
		if rel == nil {
			continue
		}
		for _, t := range ts {
			rel.Remove(t)
		}
	}
}

// undoDelta restores the pre-commit fixpoint after a commit failed
// partway (maintenance, or the WAL append after it): it reverts the
// delta — the inverse applied through applyNet, where undoing what
// maintenance never got to is a no-op — then rebuilds the IDB under a
// server-scoped context (the request's context is typically the very
// cancellation that got us here), since maintenance may have left
// partial derivations or retractions behind. If even the rebuild fails
// the session stays dirty and the next delta heals it. Caller holds mu.
func (sess *session) undoDelta(ins, del map[string][]storage.Tuple) {
	applyNet(sess.db, del, ins)
	if _, err := sess.recompute(context.Background()); err == nil {
		sess.dirty = false
	}
}

// recompute is applyDelta's rebuild rung: it evaluates the session's
// program from scratch over its current EDB and installs the result, so
// maintenance resumes from the rebuilt fixpoint. Caller holds mu.
func (sess *session) recompute(ctx context.Context) (eval.Stats, error) {
	p := sess.prog.Load()
	st, err := sess.srv.evaluate(ctx, p, edbOf(sess.db, sess.seedIDB, p.idb), sess.seedIDB)
	if err != nil {
		return eval.Stats{}, err
	}
	sess.install(st)
	return st.stats, nil
}
