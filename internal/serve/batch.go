package serve

import (
	"context"
	"net/http"
	"time"

	"repro/internal/durable"
	"repro/internal/storage"
)

// commitReq is one write request in flight through a session's commit
// queue. The handler parses and pre-validates the payload, enqueues,
// and blocks on done; the committer replies exactly once. id and enq
// carry the request's telemetry identity across the queue: the
// committer emits a serve.commit span per request whose "req" arg is
// the same ID the client saw in X-Request-Id, spanning enqueue to
// commit so queue wait is visible in the trace.
type commitReq struct {
	id  uint64    // request ID minted by the traced middleware
	enq time.Time // when the handler enqueued the request
	// adds and dels are parsed, handler-validated, deduplicated and
	// disjoint.
	adds []groundFact
	dels []groundFact
	dups int // duplicates dropped by handler-side dedup
	ctx  context.Context
	done chan commitResult // buffered, capacity 1
}

type commitResult struct {
	resp   *UpdateResponse
	status int
	code   string
	err    error
}

func (r *commitReq) ok(resp *UpdateResponse) {
	r.done <- commitResult{resp: resp}
}

func (r *commitReq) fail(status int, code string, err error) {
	r.done <- commitResult{status: status, code: code, err: err}
}

// committer is the single goroutine that owns a session's write path.
// It drains the commit queue, groups concurrent requests into one
// maintenance pass each, and exits after the session closes — replying
// session_closed to anything still queued (enqueue-vs-close is made
// atomic by session.qmu, so the final drain cannot miss a request).
func (s *Server) committer(sess *session) {
	for {
		select {
		case <-sess.closed:
			for {
				select {
				case req := <-sess.queue:
					req.fail(http.StatusConflict, CodeSessionClosed, errSessionClosed)
				default:
					return
				}
			}
		case req := <-sess.queue:
			batch := s.collectBatch(sess, req)
			s.commitBatch(sess, batch)
		}
	}
}

// collectBatch gathers the commit group starting at first: everything
// already queued, up to MaxBatch. It never waits for more writers, so
// grouping adds no latency.
func (s *Server) collectBatch(sess *session, first *commitReq) []*commitReq {
	batch := []*commitReq{first}
	max := s.cfg.MaxBatch
	for len(batch) < max {
		select {
		case req := <-sess.queue:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// commitBatch applies one commit group under the session mutex:
// re-validate each request against the authoritative database, then
// commit the survivors as one group (commitGroup) — one maintenance
// pass, one WAL record, one published snapshot, whatever the group's
// size. A group whose maintenance fails is undone and retried as
// groups of one, so one poisoned request cannot take its batchmates
// down with it.
func (s *Server) commitBatch(sess *session, batch []*commitReq) {
	if hook := s.testBeforeCommit; hook != nil {
		hook(len(batch))
	}
	sp := s.cfg.Tracer.Start("serve", "commit_batch")
	sp.Arg("batch", int64(len(batch)))
	defer sp.End()

	sess.mu.Lock()
	defer sess.mu.Unlock()

	p := sess.prog.Load()
	// Re-validate at commit time: the handler checked against a snapshot
	// that may predate a program reload, and two batch members may
	// introduce the same new predicate — arityOver pins the first
	// accepted arity so the second conflicts here instead of panicking
	// inside storage.Ensure mid-apply.
	arityOver := map[string]int{}
	var live []*commitReq
	for _, req := range batch {
		if req.ctx.Err() != nil {
			req.fail(statusClientClosedRequest, CodeCancelled, req.ctx.Err())
			continue
		}
		adds, dels, dups, err := validateChanges(p, sess.db, arityOver, req.adds, req.dels)
		if err != nil {
			req.fail(http.StatusBadRequest, CodeBadRequest, err)
			continue
		}
		req.adds, req.dels = adds, dels
		req.dups += dups
		for _, f := range adds {
			if relationOf(sess.db, f.pred) == nil {
				if _, ok := arityOver[f.pred]; !ok {
					arityOver[f.pred] = len(f.tuple)
				}
			}
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	sess.noteBatch(len(live))
	commitStart := time.Now()
	s.hBatchSize.Observe(int64(len(live)))
	for _, req := range live {
		s.hCommitWait.ObserveDuration(commitStart.Sub(req.enq))
	}

	if !s.commitGroup(sess, live, commitStart) {
		for i := range live {
			s.commitGroup(sess, live[i:i+1], commitStart)
		}
	}
	// Adaptive re-plan cadence, then checkpoint cadence, both on the
	// commit path with mu still held. Replan first: an adopted plan
	// switch checkpoints itself, which resets the checkpoint counter.
	sess.maybeReplan(context.Background())
	sess.maybeCheckpoint()
	s.hCommit.ObserveSince(commitStart)
}

// commitGroup commits reqs as one unit: coalesce them to their net
// effect on the EDB — membership-simulated in arrival order, so each
// response's Applied/Ignored is exactly what one-at-a-time application
// would have reported (see DESIGN.md §10 for why net-effect application
// yields the same fixpoint) — land that delta as one batch, publish,
// and only then acknowledge. A solo request is a group of one; it keeps
// its own context, so its client going away cancels its maintenance,
// whereas a real group has no single client to follow. A group whose
// net effect is empty lands as a pure noop with no maintenance at all
// (unless the session is dirty: any write heals it).
//
// It reports false — with nothing applied and nobody answered — only
// when maintenance failed for a group of more than one; the caller
// retries each member alone. Caller holds mu.
func (s *Server) commitGroup(sess *session, reqs []*commitReq, commitStart time.Time) bool {
	ctx := context.Background()
	if len(reqs) == 1 {
		ctx = reqs[0].ctx
	}
	netIns, netDel, perReq := coalesce(sess.db, reqs)
	mode, st, err := sess.land(ctx, &durable.Batch{Seq: sess.seq.Load() + 1, Ins: netIns, Del: netDel}, fromCommit)
	_, walFailed := err.(walError)
	if err != nil && !walFailed && len(reqs) > 1 {
		return false
	}
	if mode == "incremental" && len(reqs) > 1 {
		s.mGroupCommits.Inc()
	}
	// An acknowledged commit is visible: purge, publish, then ack, so a
	// client that reads right after its reply cannot miss its own write.
	if err == nil && mode != "noop" {
		sess.cache.purge()
		if hook := s.testBeforePublish; hook != nil {
			hook()
		}
		sess.publish()
	}
	seq := sess.seq.Load()
	s.traceRequests(reqs, seq, commitStart)
	for i, req := range reqs {
		sess.changeReqs.Add(1)
		switch {
		case walFailed:
			// land rolled the group back out of memory: acked writes
			// never run ahead of the log.
			req.fail(http.StatusInternalServerError, CodeDurability, err)
		case err != nil && ctx.Err() != nil:
			req.fail(statusClientClosedRequest, CodeCancelled, err)
		case err != nil:
			req.fail(http.StatusInternalServerError, CodeInternal, err)
		default:
			resp := perReq[i]
			resp.Mode, resp.Batched, resp.Stats, resp.Seq = mode, len(reqs), st, seq
			resp.Ignored += req.dups
			req.ok(resp)
		}
	}
	return true
}

// traceRequests records one serve.commit span per request of a group,
// before any of them is answered, spanning enqueue to answer: "req" is
// the ID the client saw in X-Request-Id, "batch" the size of the group
// that carried it, "seq" the sequence after the landing and "wait_ns"
// the queue wait. A trace thus links a client-visible request ID to the
// batch that made its write durable.
func (s *Server) traceRequests(reqs []*commitReq, seq uint64, commitStart time.Time) {
	if !s.cfg.Tracer.Enabled() {
		return
	}
	end := time.Now()
	for _, req := range reqs {
		s.cfg.Tracer.Complete("serve.commit", "commit.request", req.enq, end.Sub(req.enq), map[string]int64{
			"req":     int64(req.id),
			"batch":   int64(len(reqs)),
			"seq":     int64(seq),
			"wait_ns": int64(commitStart.Sub(req.enq)),
		})
	}
}

// coalesce simulates the group's requests in arrival order against the
// current EDB membership and returns the net insert/delete sets plus
// each request's Applied/Ignored counts. Only EDB membership matters:
// the API cannot write derived predicates, so an insert "applies" iff
// the tuple is absent at that point in the simulated order, exactly as
// sequential application would decide (within one request the adds are
// simulated before the dels; the two are disjoint by validation).
// Insert-then-delete (and delete-then-insert) pairs across requests
// cancel to nothing, which is sound because maintenance only ever
// reacts to the net EDB change. The net sets list tuples in first-
// mention order, so the same requests always log the same WAL bytes.
func coalesce(db *storage.Database, reqs []*commitReq) (netIns, netDel map[string][]storage.Tuple, perReq []*UpdateResponse) {
	type cell struct {
		pred    string
		tuple   storage.Tuple
		initial bool // in the EDB before the group
		present bool // membership at the current simulation point
	}
	// The tuples mentioned so far, per predicate and arity (deletes of
	// an absent predicate are not held to a later add's arity), and
	// their cells by set position.
	type mentions struct {
		set   storage.TupleSet
		cells []*cell
	}
	type predArity struct {
		pred  string
		arity int
	}
	seen := map[predArity]*mentions{}
	var order []*cell
	lookup := func(f groundFact) *cell {
		k := predArity{f.pred, len(f.tuple)}
		m := seen[k]
		if m == nil {
			m = &mentions{}
			seen[k] = m
		}
		if pos := m.set.Pos(f.tuple); pos >= 0 {
			return m.cells[pos]
		}
		present := false
		if rel := db.Relation(f.pred); rel != nil {
			present = rel.Contains(f.tuple)
		}
		c := &cell{pred: f.pred, tuple: f.tuple, initial: present, present: present}
		m.set.Add(f.tuple)
		m.cells = append(m.cells, c)
		order = append(order, c)
		return c
	}

	perReq = make([]*UpdateResponse, len(reqs))
	for i, req := range reqs {
		resp := &UpdateResponse{}
		for _, f := range req.adds {
			c := lookup(f)
			if c.present {
				resp.Ignored++
			} else {
				c.present = true
				resp.Applied++
			}
		}
		for _, f := range req.dels {
			c := lookup(f)
			if c.present {
				c.present = false
				resp.Applied++
			} else {
				resp.Ignored++
			}
		}
		perReq[i] = resp
	}

	netIns = map[string][]storage.Tuple{}
	netDel = map[string][]storage.Tuple{}
	for _, c := range order {
		switch {
		case c.present && !c.initial:
			netIns[c.pred] = append(netIns[c.pred], c.tuple)
		case !c.present && c.initial:
			netDel[c.pred] = append(netDel[c.pred], c.tuple)
		}
	}
	if len(netIns) == 0 {
		netIns = nil
	}
	if len(netDel) == 0 {
		netDel = nil
	}
	return netIns, netDel, perReq
}
