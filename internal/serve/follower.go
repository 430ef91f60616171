package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/replicate"
)

// Follower side of WAL-shipping replication. A server started with
// Config.Follow runs a discovery loop against the leader's session
// list and one replicator goroutine per session. Each replicator dials
// GET /v1/sessions/{name}/replicate from its last durable sequence,
// bootstraps from the leader's checkpoint when the stream says so (the
// raw bytes are persisted verbatim, so the local data directory mirrors
// the leader's), and lands every batch through the leader's own
// pipeline (land): its feeds are offered the batch too, so a follower
// is a leader to the tier below it. Restarted without -follow, a
// follower recovers like any leader: that is the whole promotion story.
// Dropped streams reconnect with jittered exponential backoff.

// replStatus is the shared view of one session's replication link,
// read by stats and readiness without any lock.
type replStatus struct {
	leader    string
	leaderSeq atomic.Uint64
	connected atomic.Bool
}

// lag is how many sequence numbers a snapshot published at local is
// behind the leader's newest reported sequence.
func (rs *replStatus) lag(local uint64) uint64 {
	if l := rs.leaderSeq.Load(); l > local {
		return l - local
	}
	return 0
}

// followerState tracks the discovery loop and the per-session
// replicators.
type followerState struct {
	mu         sync.Mutex
	discovered bool // the leader's session list has been fetched at least once
	repls      map[string]*sessionRepl
}

type sessionRepl struct {
	cancel context.CancelFunc
	status *replStatus
}

func newFollowerState() *followerState {
	return &followerState{repls: map[string]*sessionRepl{}}
}

// StartFollower launches the replication manager when Config.Follow is
// set (no-op otherwise). Call it after RecoverSessions so replicators
// resume from recovered sequence numbers rather than re-bootstrapping.
// The manager stops when ctx is cancelled.
func (s *Server) StartFollower(ctx context.Context) error {
	if s.cfg.Follow == "" {
		return nil
	}
	if !s.durable {
		return errors.New("follower mode requires a durable data directory")
	}
	go s.followLoop(ctx)
	return nil
}

// followLoop polls the leader's session list, starting a replicator
// for every session the leader serves and dropping local sessions the
// leader no longer has. Discovery errors are retried on the next tick
// without touching existing replicators — a flapping leader must not
// make the follower discard good local state.
func (s *Server) followLoop(ctx context.Context) {
	client := &http.Client{Timeout: 10 * time.Second}
	ticker := time.NewTicker(s.cfg.FollowPoll)
	defer ticker.Stop()
	for {
		names, err := replicate.Sessions(ctx, client, s.cfg.Follow)
		if err == nil {
			s.syncReplicators(ctx, names)
		}
		select {
		case <-ctx.Done():
			s.stopReplicators()
			return
		case <-ticker.C:
		}
	}
}

// syncReplicators reconciles the replicator set against the leader's
// session list.
func (s *Server) syncReplicators(ctx context.Context, names []string) {
	want := map[string]bool{}
	for _, n := range names {
		if sessionNameRe.MatchString(n) {
			want[n] = true
		}
	}
	fs := s.follower
	fs.mu.Lock()
	fs.discovered = true
	var stopped []string
	for name, r := range fs.repls {
		if !want[name] {
			r.cancel()
			delete(fs.repls, name)
			stopped = append(stopped, name)
		}
	}
	for name := range want {
		if _, ok := fs.repls[name]; ok {
			continue
		}
		rctx, cancel := context.WithCancel(ctx)
		rs := &replStatus{leader: s.cfg.Follow}
		fs.repls[name] = &sessionRepl{cancel: cancel, status: rs}
		go s.runReplicator(rctx, name, rs)
	}
	fs.mu.Unlock()

	// The leader no longer serves these sessions; mirror the drop. Local
	// sessions that never got a replicator (e.g. recovered from a data
	// dir the leader has moved on from) go the same way.
	for _, name := range stopped {
		s.dropSession(name)
	}
	for _, name := range s.sessionNames() {
		if !want[name] {
			s.dropSession(name)
		}
	}
}

// stopReplicators cancels every replicator (manager shutdown).
func (s *Server) stopReplicators() {
	fs := s.follower
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for name, r := range fs.repls {
		r.cancel()
		delete(fs.repls, name)
	}
}

// followerReadiness reports the worst session lag and whether the
// follower may advertise ready: leader list fetched, every replicated
// session connected and answering locally, and no session's published
// snapshot more than maxLag sequence numbers behind the leader. Lag is
// measured from what a query would be served from, so ready means "the
// session answers at the advertised seq".
func (s *Server) followerReadiness(maxLag uint64) (lag uint64, ready bool) {
	fs := s.follower
	fs.mu.Lock()
	discovered := fs.discovered
	statuses := make(map[string]*replStatus, len(fs.repls))
	for name, r := range fs.repls {
		statuses[name] = r.status
	}
	fs.mu.Unlock()
	if !discovered {
		return 0, false
	}
	ready = true
	for name, rs := range statuses {
		if !rs.connected.Load() {
			ready = false
		}
		var pub published
		if sess := s.session(name); sess != nil {
			pub = *sess.snap.Load()
		}
		if pub.db == nil {
			ready = false // nothing published: a query would 404
			continue
		}
		d := rs.lag(pub.seq)
		if d > lag {
			lag = d
		}
		if d > maxLag {
			ready = false
		}
	}
	return lag, ready
}

// runReplicator keeps one session's stream alive: dial, consume,
// reconnect with jittered exponential backoff. Resumes from the local
// durable sequence on every attempt.
func (s *Server) runReplicator(ctx context.Context, name string, rs *replStatus) {
	bo := replicate.Backoff{}
	client := &http.Client{} // streaming: no client timeout
	for ctx.Err() == nil {
		st, err := replicate.Dial(ctx, client, s.cfg.Follow, name, s.localSeq(name))
		if err != nil {
			sleepCtx(ctx, bo.Next())
			continue
		}
		s.mReconnects.Inc()
		err = s.consumeStream(ctx, name, rs, &bo, st)
		st.Close()
		rs.connected.Store(false)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			// Graceful End (overflow cut-over, leader reload): reconnect
			// promptly — the leader wants us back on a fresh cursor.
			sleepCtx(ctx, 10*time.Millisecond)
			continue
		}
		sleepCtx(ctx, bo.Next())
	}
}

// localSeq is the session's last durable sequence (0 when the session
// does not exist locally yet): the committer-side counter, since the
// stream resumes after what is on disk, published or not.
func (s *Server) localSeq(name string) uint64 {
	if sess := s.session(name); sess != nil {
		return sess.seq.Load()
	}
	return 0
}

// consumeStream processes one open stream until it ends. A nil error
// means a graceful End or clean EOF; anything else is a fault the
// caller backs off on.
func (s *Server) consumeStream(ctx context.Context, name string, rs *replStatus, bo *replicate.Backoff, st *replicate.Stream) error {
	for {
		msg, err := st.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil // leader hung up at a frame boundary
			}
			return err
		}
		switch msg.Kind {
		case replicate.KindHello:
			rs.leaderSeq.Store(msg.Hello.Seq)
			rs.connected.Store(true)
			bo.Reset()
			if sess := s.session(name); sess != nil {
				sess.repl.Store(rs)
			}
		case replicate.KindSnapshot:
			if err := s.installReplicatedSnapshot(name, rs, msg.Snapshot); err != nil {
				return fmt.Errorf("bootstrap %s: %w", name, err)
			}
		case replicate.KindBatch:
			if err := s.applyReplicated(ctx, name, msg.Batch); err != nil {
				return fmt.Errorf("apply %s seq %d: %w", name, msg.Batch.Seq, err)
			}
		case replicate.KindHeartbeat:
			rs.leaderSeq.Store(msg.Seq)
		case replicate.KindEnd:
			return nil
		}
	}
}

// installReplicatedSnapshot bootstraps (or re-bootstraps) a session
// from the leader's checkpoint bytes: the raw file is persisted
// verbatim, so the local snap-NNN.dlsn is byte-identical to the
// leader's, and the decoded state is installed exactly as recovery
// installs it.
func (s *Server) installReplicatedSnapshot(name string, rs *replStatus, raw []byte) error {
	snap, err := durable.DecodeSnapshot(raw)
	if err != nil {
		return err
	}
	if snap.Meta.Session != name {
		return fmt.Errorf("snapshot names session %q", snap.Meta.Session)
	}
	st, err := s.restore(context.Background(), snap)
	if err != nil {
		return err
	}
	sess, err := s.sessionFor(name)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.openStore(); err != nil {
		return err
	}
	if err := sess.dur.CheckpointRaw(raw, snap.Meta.Seq); err != nil {
		sess.ckptFailures.Add(1)
		return err
	}
	sess.noteCheckpoint()
	sess.reset(st, snap.Meta.Seq)
	sess.repl.Store(rs)
	sess.publish()
	return nil
}

// applyReplicated lands one leader batch and publishes it.
func (s *Server) applyReplicated(ctx context.Context, name string, b *durable.Batch) error {
	sess := s.session(name)
	if sess == nil {
		return errors.New("no local session (stream sent a batch before its bootstrap)")
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.dur == nil {
		return errNotDurable
	}
	local := sess.seq.Load()
	if b.Seq <= local {
		return nil // duplicate resend after a partial apply; already in
	}
	if b.Seq != local+1 {
		return fmt.Errorf("gap: local seq %d", local)
	}
	if hook := s.testFollowerApply; hook != nil {
		hook(name, b.Seq)
	}
	if _, _, err := sess.land(ctx, b, fromLeader); err != nil {
		// Nothing was appended and seq did not move. The reconnect
		// re-sends the batch; if applyDelta left the session dirty, the
		// resend forces it in and rebuilds.
		return err
	}
	sess.publish()
	sess.maybeCheckpoint()
	s.mApplied.Inc()
	return nil
}

// sleepCtx sleeps for d or until ctx is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
