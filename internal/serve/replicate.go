package serve

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/durable"
	"repro/internal/replicate"
)

// Leader side of WAL-shipping replication. GET
// /v1/sessions/{name}/replicate?from=SEQ opens a chunked stream that
// ships (in order) a hello, a bootstrap checkpoint snapshot when the
// follower's cursor is behind the newest checkpoint, the WAL batches
// between the cursor and the live edge (read back from the leader's
// own segments), and then every batch the committer logs, live, via a
// per-stream replication slot. The stream's payloads reuse the durable
// on-disk encodings byte for byte — see internal/replicate.
//
// Slots are strictly bounded: the committer's Offer never blocks, so a
// follower that cannot keep up is detached (End frame) and catches up
// from disk on its next connect. Ordering between the disk phase and
// the slot phase is handled by registering the slot (capturing the
// live edge, StartSeq) under sess.mu BEFORE reading the WAL: batches
// at or below StartSeq are fully on disk, batches above it arrive in
// the slot, and the boundary is exact because logBatch appends and
// advances seq under the same mutex.

// addSlot registers a live-feed slot. Caller holds sess.mu, so the
// captured StartSeq is exact.
func (sess *session) addSlot(sl *replicate.Slot) {
	sess.slotMu.Lock()
	sess.slots = append(sess.slots, sl)
	sess.slotMu.Unlock()
}

// removeSlot detaches and forgets a slot (stream handler teardown).
func (sess *session) removeSlot(sl *replicate.Slot) {
	sl.Close()
	sess.slotMu.Lock()
	for i, s := range sess.slots {
		if s == sl {
			sess.slots = append(sess.slots[:i], sess.slots[i+1:]...)
			break
		}
	}
	sess.slotMu.Unlock()
}

// offerSlots fans one logged batch out to every live slot. Called by
// logBatch under sess.mu.
func (sess *session) offerSlots(b *durable.Batch) {
	sess.slotMu.Lock()
	for _, sl := range sess.slots {
		sl.Offer(b)
	}
	sess.slotMu.Unlock()
}

// closeSlots detaches every slot (load, drop, shutdown). The handlers
// notice via Done and end their streams; followers reconnect.
func (sess *session) closeSlots() {
	sess.slotMu.Lock()
	slots := sess.slots
	sess.slots = nil
	sess.slotMu.Unlock()
	for _, sl := range slots {
		sl.Close()
	}
}

// slotGauges sums the session's live slots and their buffered depth.
func (sess *session) slotGauges() (slots, depth int) {
	sess.slotMu.Lock()
	slots = len(sess.slots)
	for _, sl := range sess.slots {
		depth += sl.Depth()
	}
	sess.slotMu.Unlock()
	return slots, depth
}

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
	if slots, depth := sess.slotGauges(); slots > 0 {
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

	// Register the slot under sess.mu: StartSeq is the exact live edge —
	// everything at or below it is fully on disk, everything above it
	// will be offered to the slot.
	sess.mu.Lock()
	dur := sess.dur
	if dur == nil {
		sess.mu.Unlock()
		writeErr(w, http.StatusConflict, CodeNotDurable,
			"session %q has no durable store; replication requires -data-dir", name)
		return
	}
	startSeq := sess.seq.Load()
	ckptSeq := dur.LastCheckpointSeq()
	var snapRaw []byte
	var snapSeq uint64
	if from < ckptSeq {
		// The follower's cursor predates the newest checkpoint: the WAL
		// below it may already be garbage-collected (or the state was
		// reset by a load), so bootstrap from the snapshot.
		raw, seq, err := dur.NewestSnapshotRaw()
		if err != nil {
			sess.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, CodeDurability, "snapshot: %v", err)
			return
		}
		snapRaw, snapSeq = raw, seq
	}
	slot := replicate.NewSlot(s.cfg.ReplicationBuffer, startSeq)
	sess.addSlot(slot)
	sess.mu.Unlock()
	defer sess.removeSlot(slot)

	flusher, _ := w.(http.Flusher)
	var flush func()
	if flusher != nil {
		flush = flusher.Flush
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Accel-Buffering", "no")
	sw := replicate.NewWriter(w, flush)

	hello := &replicate.Hello{
		Session:    name,
		Seq:        startSeq,
		Generation: publishedGeneration(sess),
		Snapshot:   snapRaw != nil,
	}
	if snapRaw != nil {
		hello.SnapshotSeq = snapSeq
	}
	if sw.Hello(hello) != nil {
		return
	}
	base := from
	if snapRaw != nil {
		if sw.Snapshot(snapRaw) != nil {
			return
		}
		s.mSnapshotBytes.Add(int64(len(snapRaw)))
		base = snapSeq
	}

	// Disk catch-up: (base, startSeq] from the leader's own segments.
	if base < startSeq {
		batches, err := dur.BatchesAfter(base)
		if err != nil {
			sw.End("catchup: " + err.Error()) //nolint:errcheck // stream is ending
			return
		}
		for _, b := range batches {
			if b.Seq > startSeq {
				break // the slot covers from here
			}
			if sw.Batch(b) != nil {
				return
			}
			s.mShipped.Inc()
			base = b.Seq
		}
		if base < startSeq {
			// A checkpoint GC'd the tail between registration and the
			// read; the follower reconnects and bootstraps off it.
			sw.End("catchup gap; reconnect") //nolint:errcheck // stream is ending
			return
		}
	}

	// Live phase: drain the slot until someone hangs up.
	heartbeat := time.NewTicker(s.cfg.Heartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		select {
		case b := <-slot.Batches():
			if sw.Batch(b) != nil {
				return
			}
			s.mShipped.Inc()
		case <-slot.Done():
			// Drain what was buffered before the slot closed — it is
			// still contiguous; only batches after the close were lost.
			for {
				select {
				case b := <-slot.Batches():
					if sw.Batch(b) != nil {
						return
					}
					s.mShipped.Inc()
				default:
					reason := "session closed or reloaded"
					if slot.Overflowed() {
						reason = "slot overflow; reconnect to catch up"
						s.mSlotOverflows.Inc()
					}
					sw.End(reason) //nolint:errcheck // stream is ending
					return
				}
			}
		case <-heartbeat.C:
			if sw.Heartbeat(sess.seq.Load()) != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}
