package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/durable"
	"repro/internal/replicate"
)

// Leader side of WAL-shipping replication. GET
// /v1/sessions/{name}/replicate?from=SEQ opens a chunked stream that
// ships (in order) a hello, a bootstrap checkpoint snapshot when the
// follower's cursor is behind the newest checkpoint, the WAL batches
// between the cursor and the live edge (read back from the leader's
// own segments), and then every batch the session lands, live, via a
// per-stream replication slot. The stream's payloads reuse the durable
// on-disk encodings byte for byte — see internal/replicate.
//
// Slots are strictly bounded: land's Offer never blocks, so a follower
// that cannot keep up is detached (End frame) and catches up from disk
// on its next connect. The stream joins the session's slots feed
// through attach, whose splice argument (DESIGN.md §11, "The batch
// pipeline") makes the disk phase and the live phase meet exactly.

// ReplicationStats is the replication section of a session's stats:
// leader sessions report their connected follower streams, follower
// sessions report how far behind the leader they are.
type ReplicationStats struct {
	// Role is "leader" (session has at least one live slot) or
	// "follower" (session is fed from a leader stream).
	Role string `json:"role"`
	// Slots / SlotDepth describe the leader's live follower streams.
	Slots     int `json:"slots,omitempty"`
	SlotDepth int `json:"slot_depth,omitempty"`
	// Leader is the followed base URL; LeaderSeq the leader's newest
	// sequence as last reported; LagSeqs max(LeaderSeq - published seq,
	// 0), the distance a query served right now is behind.
	Leader    string `json:"leader,omitempty"`
	LeaderSeq uint64 `json:"leader_seq,omitempty"`
	LagSeqs   uint64 `json:"lag_seqs"`
	// Connected reports a live stream from the leader right now.
	Connected bool `json:"connected,omitempty"`
}

func (sess *session) replicationStats() *ReplicationStats {
	if rs := sess.repl.Load(); rs != nil {
		return &ReplicationStats{
			Role:      "follower",
			Leader:    rs.leader,
			LeaderSeq: rs.leaderSeq.Load(),
			LagSeqs:   rs.lag(sess.snap.Load().seq),
			Connected: rs.connected.Load(),
		}
	}
	if slots, depth := sess.slots.gauges(); slots > 0 {
		return &ReplicationStats{Role: "leader", Slots: slots, SlotDepth: depth}
	}
	return nil
}

// rejectNotLeader answers a write-surface request on a read-only
// replica: 403 with the structured not_leader error naming the leader,
// plus a Retry-After nudge (the topology may be mid-failover).
func (s *Server) rejectNotLeader(w http.ResponseWriter) bool {
	if s.cfg.Follow == "" {
		return false
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusForbidden, ErrorResponse{Error: ErrorDetail{
		Code:    CodeNotLeader,
		Message: "read-only replica; send writes to the leader at " + s.cfg.Follow,
		Leader:  s.cfg.Follow,
	}})
	return true
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("ok\n")) //nolint:errcheck // best effort to a live conn
}

// readyzResponse is the GET /readyz body.
type readyzResponse struct {
	Status string `json:"status"` // "ready" | "catching_up"
	// Follower detail while catching up.
	Leader  string `json:"leader,omitempty"`
	LagSeqs uint64 `json:"lag_seqs,omitempty"`
	MaxLag  uint64 `json:"max_lag"`
}

// handleReadyz is readiness. A leader is ready as soon as it serves
// HTTP. A follower is ready once it has discovered the leader's
// session list and every replicated session is connected and answers
// within Config.ReadyMaxLag of the leader; until then it answers 503
// catching_up with a Retry-After, so load balancers keep it out of
// rotation while its snapshots are stale.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.follower == nil {
		writeJSON(w, http.StatusOK, readyzResponse{Status: "ready", MaxLag: s.cfg.ReadyMaxLag})
		return
	}
	lag, ready := s.followerReadiness(s.cfg.ReadyMaxLag)
	resp := readyzResponse{Status: "ready", LagSeqs: lag, MaxLag: s.cfg.ReadyMaxLag}
	if !ready {
		resp.Status = "catching_up"
		resp.Leader = s.cfg.Follow
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReplicate is GET /v1/sessions/{name}/replicate?from=SEQ — the
// leader end of one follower's stream. It holds the connection open
// until the client disconnects, the session is reloaded/dropped, or
// the follower falls behind the slot buffer.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sess := s.session(name)
	if sess == nil {
		missingSession(w, name)
		return
	}
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, CodeBadRequest, "bad from %q", v)
			return
		}
		from = n
	}

	// Cursor policy: a cursor that predates the newest checkpoint
	// bootstraps from it — the WAL below may be garbage-collected, or a
	// load reset the state — and catches up from the snapshot's seq.
	var snapRaw []byte
	var snapSeq uint64
	slot, backlog, err := sess.attach(&sess.slots, func(_ uint64, dur *durable.Store) (uint64, error) {
		if dur == nil {
			return 0, &refusal{http.StatusConflict, ErrorDetail{Code: CodeNotDurable,
				Message: fmt.Sprintf("session %q has no durable store; replication requires -data-dir", name)}}
		}
		if from >= dur.LastCheckpointSeq() {
			return from, nil
		}
		raw, seq, err := dur.NewestSnapshotRaw()
		if err != nil {
			return 0, &refusal{http.StatusInternalServerError, ErrorDetail{Code: CodeDurability, Message: "snapshot: " + err.Error()}}
		}
		snapRaw, snapSeq = raw, seq
		return seq, nil
	})
	if slot == nil {
		err.(*refusal).write(w)
		return
	}
	defer sess.slots.remove(slot)

	flusher, _ := w.(http.Flusher)
	var flush func()
	if flusher != nil {
		flush = flusher.Flush
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Accel-Buffering", "no")
	sw := replicate.NewWriter(w, flush)

	hello := &replicate.Hello{
		Session:     name,
		Seq:         slot.StartSeq,
		Generation:  publishedGeneration(sess),
		Snapshot:    snapRaw != nil,
		SnapshotSeq: snapSeq,
	}
	if sw.Hello(hello) != nil {
		return
	}
	if snapRaw != nil {
		if sw.Snapshot(snapRaw) != nil {
			return
		}
		s.mSnapshotBytes.Add(int64(len(snapRaw)))
	}
	if err != nil {
		// A checkpoint took part of the backlog (the follower reconnects
		// and bootstraps off it), or the WAL could not be read.
		reason := "catchup: " + err.Error()
		if errors.Is(err, errGap) {
			reason = "catchup gap; reconnect"
		}
		sw.End(reason) //nolint:errcheck // stream is ending
		return
	}
	send := func(b *durable.Batch) bool {
		if sw.Batch(b) != nil {
			return false
		}
		s.mShipped.Inc()
		return true
	}
	s.pump(r.Context(), slot, backlog, send, func() bool { return sw.Heartbeat(sess.seq.Load()) == nil }, func(overflow bool) {
		reason := "session closed or reloaded"
		if overflow {
			reason = "slot overflow; reconnect to catch up"
			s.mSlotOverflows.Inc()
		}
		sw.End(reason) //nolint:errcheck // stream is ending
	})
}
