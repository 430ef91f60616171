package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/durable"
)

// Durability wiring. When Config.Durability is set, every session owns
// a durable.Store: committed batches are logged to its write-ahead log
// BEFORE they are acknowledged (with fsync on, a positive reply means
// the batch survives power loss), and every CheckpointEvery batches —
// or on demand via POST /v1/sessions/{name}/checkpoint — the full
// database is checkpointed and the log truncated. All store access
// happens under sess.mu: the committer holds it for the whole batch,
// loads and the checkpoint endpoint take it explicitly, so the store
// itself needs no locking.
//
// Every batch reaches the WAL through land (pipeline.go), which also
// keeps the acknowledgement invariant: acked or offered => durable, not
// durable => not visible. Recovery (RecoverSessions) is the pipeline run
// from disk: newest checkpoint, then each logged batch through land
// with origin fromWAL — the replay failure policy and no append — then,
// if the tail was torn, one fresh checkpoint to re-establish a clean
// base.

// checkpointImage assembles the durable image of one session state —
// the only place a checkpoint header is written. A load passes the
// state it is about to install, at the sequence the load consumes; the
// periodic and explicit checkpoints pass the installed state. Caller
// holds sess.mu, so nothing it is handed can move.
func (sess *session) checkpointImage(st *state, seq uint64) *durable.Snapshot {
	lp := st.prog
	meta := durable.Meta{
		Session: sess.name,
		Seq:     seq,
		// The live database reports generation 0; what must stay
		// monotonic across restarts is the last PUBLISHED snapshot
		// generation, so record that.
		Generation: publishedGeneration(sess),
		Active:     lp.active.String(),
		SmallPreds: lp.smallPreds,
		Rules:      lp.rules,
		ICs:        lp.ics,
		Optimized:  lp.optimized,
		Plan:       lp.plan,
		PlanChosen: string(lp.variant),
		// The derivation-layer certificate travels with the fixpoint it
		// certifies — the encoder writes each relation's rank column — so
		// recovery (and a bootstrapping follower) reinstates incremental
		// maintenance without re-running the fixpoint.
		HasRanks: true,
	}
	if lp.goal != nil {
		meta.Goal = lp.goal.String()
	}
	return &durable.Snapshot{Meta: meta, DB: st.db, Seed: st.seedIDB}
}

// checkpoint writes st as the session's checkpoint at seq, rotating and
// truncating the WAL. Caller holds sess.mu. Checkpoint failure never
// fails acknowledged work — the WAL still holds every batch — so
// callers on the commit path just count it and retry later.
func (sess *session) checkpoint(st *state, seq uint64) error {
	if sess.dur == nil {
		return errNotDurable
	}
	done := sess.srv.cfg.Tracer.Start("durable", "checkpoint")
	start := time.Now()
	err := sess.dur.Checkpoint(sess.checkpointImage(st, seq))
	sess.srv.hCheckpoint.ObserveSince(start)
	done.End()
	if err != nil {
		sess.ckptFailures.Add(1)
		return err
	}
	sess.noteCheckpoint()
	return nil
}

// checkpointLocked checkpoints the installed state at the current
// sequence. Caller holds sess.mu.
func (sess *session) checkpointLocked() error {
	return sess.checkpoint(&state{prog: sess.prog.Load(), db: sess.db, seedIDB: sess.seedIDB}, sess.seq.Load())
}

// noteCheckpoint records a checkpoint that landed: the WAL beyond it is
// empty again.
func (sess *session) noteCheckpoint() {
	sess.checkpoints.Add(1)
	sess.sinceCkpt.Store(0)
	sess.lastCkptNano.Store(time.Now().UnixNano())
}

// maybeCheckpoint runs an automatic checkpoint when enough batches
// have accumulated since the last one. Caller holds sess.mu.
func (sess *session) maybeCheckpoint() {
	if sess.dur == nil || int(sess.sinceCkpt.Load()) < sess.srv.durOpts.CheckpointEvery {
		return
	}
	_ = sess.checkpointLocked() // counted; WAL still covers the tail
}

var errNotDurable = errors.New("server has no durable data directory configured")

// publishedGeneration is the session's latest published snapshot
// generation (0 before the first publish).
func publishedGeneration(sess *session) uint64 {
	if db := sess.snap.Load().db; db != nil {
		return db.Generation()
	}
	return 0
}

// RecoveryReport summarizes one session's crash recovery.
type RecoveryReport struct {
	Session          string `json:"session"`
	Seq              uint64 `json:"seq"`
	ReplayedBatches  int    `json:"replayed_batches"`
	ReplayedIncr     int    `json:"replayed_incremental"`
	ReplayedRecomp   int    `json:"replayed_recomputes"`
	TornTail         bool   `json:"torn_tail,omitempty"`
	SkippedSnapshots int    `json:"skipped_snapshots,omitempty"`
	DroppedBatches   int    `json:"dropped_batches,omitempty"`
	Err              string `json:"error,omitempty"`
}

// RecoverSessions restores every session found under the durable data
// root. Called once at startup, before the listener accepts requests.
// A session that cannot be recovered is reported (and skipped) rather
// than aborting the others; an empty directory — a session created but
// never checkpointed — is skipped silently.
func (s *Server) RecoverSessions(ctx context.Context) ([]RecoveryReport, error) {
	if !s.durable {
		return nil, nil
	}
	names, err := durable.ListSessions(s.durOpts)
	if err != nil {
		return nil, err
	}
	var reports []RecoveryReport
	for _, name := range names {
		if !sessionNameRe.MatchString(name) {
			continue // not a session directory we created
		}
		rep, err := s.recoverSession(ctx, name)
		if err != nil {
			rep.Err = err.Error()
		}
		if rep.Session != "" {
			reports = append(reports, rep)
		}
	}
	return reports, nil
}

// recoverSession rebuilds one session from its durable directory.
func (s *Server) recoverSession(ctx context.Context, name string) (RecoveryReport, error) {
	rep := RecoveryReport{Session: name}
	store, err := durable.Open(s.durOpts, name)
	if err != nil {
		return rep, err
	}
	res, err := store.Recover()
	if err != nil {
		store.Close()
		return rep, err
	}
	if res.Snapshot == nil {
		// Created but never checkpointed: nothing to restore.
		store.Close()
		return RecoveryReport{}, nil
	}
	rep.TornTail = res.TornTail
	rep.SkippedSnapshots = res.SkippedSnapshots
	rep.DroppedBatches = res.DroppedBatches

	st, err := s.restore(ctx, res.Snapshot)
	if err != nil {
		store.Close()
		return rep, fmt.Errorf("recover %s: %w", name, err)
	}
	sess, err := s.sessionFor(name)
	if err != nil {
		store.Close()
		return rep, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.dur = store
	sess.reset(st, res.Snapshot.Meta.Seq)
	sess.recovered.Store(true)
	sess.tornTail.Store(res.TornTail)
	sess.lastCkptNano.Store(time.Now().UnixNano())

	// Replay the WAL tail through the same pipeline that committed it.
	done := s.cfg.Tracer.Start("durable", "replay")
	replayStart := time.Now()
	for _, b := range res.Batches {
		if _, _, err := sess.land(ctx, b, fromWAL); err != nil {
			s.hReplay.ObserveSince(replayStart)
			done.End()
			return rep, fmt.Errorf("recover %s: replay batch %d: %w", name, b.Seq, err)
		}
		rep.ReplayedBatches++
	}
	s.hReplay.ObserveSince(replayStart)
	done.End()
	rep.ReplayedIncr = int(sess.replayIncremental.Load())
	rep.ReplayedRecomp = int(sess.replayRecomputes.Load())
	rep.Seq = sess.seq.Load()
	sess.publish()

	// Re-establish a clean base only when the tail was torn, so the
	// damaged segment is superseded. After a clean replay the log is
	// deliberately left in place: a checkpoint would GC it, and the WAL
	// tail is what lets change-feed cursors from before the crash
	// resume without a gap. The at-most-once filter makes replaying it
	// again after the next crash harmless, and the normal checkpoint
	// cadence re-bounds it.
	if res.TornTail {
		_ = sess.checkpointLocked()
	}
	return rep, nil
}

// DurabilityStats is the durability section of a session's stats.
type DurabilityStats struct {
	Enabled bool `json:"enabled"`
	// Seq is the sequence number of the last durably logged batch.
	Seq uint64 `json:"seq"`
	// WALBatches / WALBytes count batches appended to the log and their
	// encoded size since the process started.
	WALBatches int64 `json:"wal_batches"`
	WALBytes   int64 `json:"wal_bytes"`
	// Checkpoints counts snapshots written (automatic and explicit);
	// CheckpointFailures counts attempts that failed and were deferred.
	Checkpoints        int64 `json:"checkpoints"`
	CheckpointFailures int64 `json:"checkpoint_failures,omitempty"`
	// SinceCheckpoint is the number of logged batches the WAL currently
	// covers beyond the newest checkpoint.
	SinceCheckpoint int64 `json:"since_checkpoint"`
	// Recovered reports that this session was rebuilt from disk at
	// startup; the Replay* counters describe how.
	Recovered         bool  `json:"recovered,omitempty"`
	ReplayedBatches   int64 `json:"replayed_batches,omitempty"`
	ReplayIncremental int64 `json:"replay_incremental,omitempty"`
	ReplayRecomputes  int64 `json:"replay_recomputes,omitempty"`
	// TornTail reports that the recovery found (and truncated) a
	// half-written final WAL record.
	TornTail bool `json:"torn_tail,omitempty"`
	// CheckpointAgeSeconds is the time since the last successful
	// checkpoint (0 before the first in this process).
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"`
}

func (sess *session) durabilityStats() *DurabilityStats {
	if sess.dur == nil {
		return nil
	}
	var age float64
	if t := sess.lastCkptNano.Load(); t > 0 {
		age = time.Since(time.Unix(0, t)).Seconds()
	}
	return &DurabilityStats{
		Enabled:              true,
		Seq:                  sess.seq.Load(),
		CheckpointAgeSeconds: age,
		WALBatches:           sess.walBatches.Load(),
		WALBytes:             sess.walBytes.Load(),
		Checkpoints:          sess.checkpoints.Load(),
		CheckpointFailures:   sess.ckptFailures.Load(),
		SinceCheckpoint:      sess.sinceCkpt.Load(),
		Recovered:            sess.recovered.Load(),
		ReplayedBatches:      sess.replayIncremental.Load() + sess.replayRecomputes.Load(),
		ReplayIncremental:    sess.replayIncremental.Load(),
		ReplayRecomputes:     sess.replayRecomputes.Load(),
		TornTail:             sess.tornTail.Load(),
	}
}

// handleCheckpoint is POST /v1/sessions/{name}/checkpoint: force a
// snapshot checkpoint now (e.g. before planned maintenance), 409 when
// the server runs without a data directory.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.rejectNotLeader(w) {
		return
	}
	name := r.PathValue("name")
	sess := s.session(name)
	if sess == nil {
		missingSession(w, name)
		return
	}
	sess.mu.Lock()
	err := sess.checkpointLocked()
	seq := sess.seq.Load()
	sess.mu.Unlock()
	if err != nil {
		if errors.Is(err, errNotDurable) {
			writeErr(w, http.StatusConflict, CodeNotDurable, "%v", err)
			return
		}
		writeErr(w, http.StatusInternalServerError, CodeDurability, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{Session: name, Seq: seq})
}
