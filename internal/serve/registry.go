package serve

import (
	"context"
	"fmt"
	"regexp"

	"repro/internal/durable"
)

// sessionNameRe constrains session names to safe path segments.
var sessionNameRe = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// session returns the named live session, or nil.
func (s *Server) session(name string) *session {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return s.sessions[name]
}

// sessionNames lists live sessions in registry order (unsorted).
func (s *Server) sessionNames() []string {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	names := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		names = append(names, name)
	}
	return names
}

// allSessions snapshots the live sessions.
func (s *Server) allSessions() []*session {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}

// LoadSession compiles and evaluates a program into the named session,
// creating it if needed and atomically replacing its program and
// database if it already exists. Counters survive a reload (the
// session is the same long-lived object); the write pipeline is never
// interrupted — in-flight writes land either on the old state (before
// the swap, where the committer's revalidation sees the old program)
// or on the new.
func (s *Server) LoadSession(ctx context.Context, name string, req LoadRequest) (*LoadResponse, error) {
	if !sessionNameRe.MatchString(name) {
		return nil, fmt.Errorf("invalid session name %q (want [A-Za-z0-9_-]{1,64})", name)
	}
	// Build first: a failed load must leave the existing session serving.
	st, resp, err := s.loadState(ctx, req)
	if err != nil {
		return nil, err
	}
	sess, err := s.sessionFor(name)
	if err != nil {
		return nil, err
	}

	sess.mu.Lock()
	// A load consumes a sequence number of its own, strictly above every
	// batch committed against the previous program, so delta-feed cursors
	// from before it read as stale and a follower resuming from any of
	// them finds the load's checkpoint ahead and re-bootstraps — no WAL
	// delta bridges two programs.
	seq := sess.seq.Load() + 1
	if s.durable {
		// Persist the NEW state before swapping it into memory: if the
		// checkpoint fails, the load fails and the old program keeps
		// serving (memory and disk both unchanged).
		err := sess.openStore()
		if err == nil {
			err = sess.checkpoint(st, seq)
		}
		if err != nil {
			fresh := sess.prog.Load() == nil
			sess.mu.Unlock()
			if fresh {
				// The shell was registered this call and never got a
				// program; leaving it would let writes reach a nil
				// database. Unregister it as if the load never happened.
				s.regMu.Lock()
				if s.sessions[name] == sess {
					delete(s.sessions, name)
				}
				s.regMu.Unlock()
				sess.close()
			}
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
	}
	sess.reset(st, seq)
	sess.publish()
	sess.mu.Unlock()

	sess.addEvalStats(resp.Stats)
	resp.Session = name
	return resp, nil
}

// dropSession deletes a named session: it disappears from the registry
// immediately, queued writes are answered session_closed, and in-flight
// snapshot readers finish against their copy-on-write view.
func (s *Server) dropSession(name string) bool {
	s.regMu.Lock()
	sess := s.sessions[name]
	delete(s.sessions, name)
	s.regMu.Unlock()
	if sess == nil {
		return false
	}
	// Deleting a session deletes its durable directory too — it must
	// not resurrect on the next restart.
	sess.shutdown((*durable.Store).Destroy)
	return true
}

// Close shuts down every session's write pipeline. Safe to call once
// the HTTP server has stopped accepting requests (in-flight handlers
// see session_closed from their enqueue or drain).
func (s *Server) Close() {
	s.regMu.Lock()
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = map[string]*session{}
	s.regMu.Unlock()
	for _, sess := range sessions {
		sess.shutdown((*durable.Store).Close)
	}
}

// shutdown takes a session out of service: its write pipeline closes,
// release lets go of its store (Destroy on a drop, Close on server
// shutdown) and both feeds detach. Taking mu lets an in-flight batch
// finish first.
func (sess *session) shutdown(release func(*durable.Store) error) {
	sess.close()
	sess.mu.Lock()
	if sess.dur != nil {
		_ = release(sess.dur)
		sess.dur = nil
	}
	sess.closeFeeds()
	sess.mu.Unlock()
}
