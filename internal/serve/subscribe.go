package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/replicate"
	"repro/internal/storage"
)

// Change-feed subscriptions. GET /v1/sessions/{name}/subscribe streams
// every committed batch as a {seq, adds, dels} delta frame — the net
// extensional change the commit applied, in commit order, no gaps.
// Server-Sent Events when the client asks for text/event-stream (each
// frame's SSE id is its seq, so EventSource resumption works out of
// the box via Last-Event-ID), a JSON long-poll otherwise.
//
// Cursors: ?from=SEQ means "I have everything up to and including
// SEQ". A durable session replays (SEQ, head] from its own WAL
// segments before splicing onto the live feed: the subscription joins
// the session's subs feed through attach, exactly as a replication
// stream joins its slots feed. A cursor below the oldest replayable
// sequence — checkpoint GC folded the WAL beneath it, or the session
// is in-memory and keeps no history — is answered 410 cursor_truncated
// with the oldest cursor still served, and a cursor beyond the head is
// answered 400 cursor_ahead.
//
// Flow control mirrors replication: a subscriber that cannot drain its
// bounded slot is detached rather than ever blocking the committer; it
// reconnects from its last seen seq and catches up from disk. The
// server-wide subscriber count is capped (Config.MaxSubscribers, 429 +
// Retry-After beyond it).

// handleSubscribe is GET /v1/sessions/{name}/subscribe — one client's
// change feed. It holds the connection open (SSE) or answers one
// long-poll page (JSON).
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sess := s.session(name)
	if sess == nil {
		missingSession(w, name)
		return
	}

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")

	// Cursor: ?from= wins; an SSE reconnect's Last-Event-ID is honored
	// when ?from= is absent; with neither, the feed starts at the live
	// edge (no history).
	var from uint64
	var haveFrom bool
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad from %q", v)
			return
		}
		from, haveFrom = n, true
	} else if v := r.Header.Get("Last-Event-ID"); sse && v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			from, haveFrom = n, true
		}
	}

	// Admission: one server-wide cap across sessions, so a subscriber
	// storm cannot pile goroutines behind every session at once.
	if n := s.subscribers.Add(1); n > int64(s.cfg.MaxSubscribers) {
		s.subscribers.Add(-1)
		w.Header().Set("Retry-After", retryAfterSeconds(int(n), 4))
		writeErr(w, http.StatusTooManyRequests, CodeSubscriberLimit,
			"subscriber limit reached (%d open)", s.cfg.MaxSubscribers)
		return
	}
	defer s.subscribers.Add(-1)

	// Cursor policy: no cursor starts at the live edge; one beyond it
	// is refused as ahead, one below the oldest replayable sequence as
	// truncated. In-memory sessions keep no history.
	var dur *durable.Store
	slot, backlog, err := sess.attach(&sess.subs, func(head uint64, d *durable.Store) (uint64, error) {
		dur = d
		oldest := head
		if dur != nil {
			oldest = dur.LastCheckpointSeq()
		}
		if !haveFrom {
			from = head
		}
		if from > head {
			return 0, &refusal{http.StatusBadRequest, ErrorDetail{Code: CodeCursorAhead,
				Message: fmt.Sprintf("cursor %d is ahead of the session head %d", from, head)}}
		}
		if from < oldest {
			return 0, &refusal{http.StatusGone, ErrorDetail{Code: CodeCursorTruncated,
				Message: fmt.Sprintf(
					"cursor %d predates the oldest replayable sequence %d; re-read current state and resume from there",
					from, oldest),
				OldestSeq: oldest}}
		}
		return from, nil
	})
	if slot == nil {
		err.(*refusal).write(w)
		return
	}
	defer sess.subs.remove(slot)
	switch {
	case errors.Is(err, errGap):
		// Tell the client to re-resolve its cursor.
		writeJSON(w, http.StatusGone, ErrorResponse{Error: ErrorDetail{
			Code:      CodeCursorTruncated,
			Message:   "history was checkpointed during catch-up; reconnect",
			OldestSeq: dur.LastCheckpointSeq(),
		}})
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, CodeDurability, "catchup: %v", err)
		return
	}

	if sse {
		s.subscribeSSE(w, r, sess, slot, backlog)
		return
	}
	s.subscribeLongPoll(w, r, sess, slot, from, backlog)
}

// subscribeSSE streams frames until the client disconnects, the
// session is reloaded or dropped, or the subscriber falls behind its
// slot buffer (the stream ends; the client reconnects from its last
// event id and catches up from disk).
func (s *Server) subscribeSSE(w http.ResponseWriter, r *http.Request, sess *session, slot *replicate.Slot, backlog []*durable.Batch) {
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	send := func(b *durable.Batch) bool {
		f := frameOfBatch(b)
		data, err := json.Marshal(f)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: delta\ndata: %s\n\n", f.Seq, data); err != nil {
			return false
		}
		flush()
		s.hSubLag.Observe(int64(max(sess.seq.Load(), f.Seq) - f.Seq)) // how far behind the head
		return true
	}
	s.pump(r.Context(), slot, backlog, send, func() bool {
		if _, err := fmt.Fprintf(w, ": ping %d\n\n", sess.seq.Load()); err != nil {
			return false
		}
		flush()
		return true
	}, func(overflow bool) {
		reason := "session closed or reloaded"
		if overflow {
			reason = "buffer overflow; reconnect to catch up"
		}
		fmt.Fprintf(w, "event: end\ndata: {\"reason\":%q}\n\n", reason) //nolint:errcheck // stream is ending
		flush()
	})
}

// subscribeLongPoll answers one page of frames: the backlog if any,
// otherwise it waits up to ?wait= seconds (default 30, capped at 60)
// for the first live frame, drains whatever else is already buffered,
// and replies. An empty Frames array with NextFrom == from means the
// wait timed out with nothing new.
func (s *Server) subscribeLongPoll(w http.ResponseWriter, r *http.Request, sess *session, slot *replicate.Slot, from uint64, backlog []*durable.Batch) {
	resp := SubscribeResponse{Session: sess.name, Frames: []DeltaFrame{}, NextFrom: from}
	add := func(b *durable.Batch) bool {
		f := frameOfBatch(b)
		resp.Frames = append(resp.Frames, f)
		resp.NextFrom = f.Seq
		s.hSubLag.Observe(int64(max(sess.seq.Load(), f.Seq) - f.Seq))
		return true
	}
	for _, b := range backlog {
		add(b)
	}
	if len(resp.Frames) == 0 {
		wait := 30 * time.Second
		if v := r.URL.Query().Get("wait"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				wait = time.Duration(n) * time.Second
			}
		}
		timer := time.NewTimer(min(wait, time.Minute))
		defer timer.Stop()
		select {
		case b := <-slot.Batches():
			add(b)
			drain(slot, add) // whatever else is buffered, no extra waiting
		case <-slot.Done():
		case <-timer.C:
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// frameOfBatch renders one committed batch as its wire delta frame:
// each fact in source syntax ("edge(a, b)"), predicates sorted so the
// frame is deterministic.
func frameOfBatch(b *durable.Batch) DeltaFrame {
	f := DeltaFrame{Seq: b.Seq, Adds: []string{}, Dels: []string{}}
	f.Adds = appendFacts(f.Adds, b.Ins)
	f.Dels = appendFacts(f.Dels, b.Del)
	return f
}

// appendFacts renders each tuple as "pred(c1, c2, ...)", predicates in
// sorted order (tuples keep the order the batch recorded them in).
func appendFacts(out []string, m map[string][]storage.Tuple) []string {
	preds := make([]string, 0, len(m))
	for p := range m {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		for _, t := range m[p] {
			out = append(out, fmt.Sprintf("%s%s", p, t))
		}
	}
	return out
}
