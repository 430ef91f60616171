package serve

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/eval"
	"repro/internal/replicate"
)

// The batch pipeline (DESIGN.md §11). A batch enters a session through
// land, whether the committer, recovery or a follower's replicator
// produced it, and leaves through the session's two feeds: one slot per
// follower stream, one per change-feed subscriber. Their consumers join
// through attach and drain through pump; each handler keeps only its
// cursor policy and its framing.

// origin is where a landing batch comes from.
type origin int

const (
	fromCommit origin = iota // a live commit group
	fromLeader               // a follower's copy of a batch its leader logged
	fromWAL                  // recovery re-applying its own log
)

// walError is a WAL append that failed after maintenance succeeded;
// land has already taken the batch back out of memory.
type walError struct{ error }

// land applies b to the session under mu, in the same steps for every
// origin:
//
//  1. applyDelta maintains the database, under the commit failure
//     policy for a live commit and the replay policy otherwise;
//  2. the batch is appended to the WAL, unless it came from there; a
//     failed append is undone (undoDelta) and returned as a walError;
//  3. seq advances to b.Seq, on an in-memory session too;
//  4. both feeds are offered the batch.
//
// Callers publish and acknowledge only after land returns nil. An empty
// batch — a commit group whose requests cancel out — only heals a dirty
// session: it takes no sequence number and reaches no feed. The mode is
// the maintenance that ran, "noop" when none did.
func (sess *session) land(ctx context.Context, b *durable.Batch, from origin) (string, eval.Stats, error) {
	replay := from != fromCommit
	empty := len(b.Ins) == 0 && len(b.Del) == 0
	mode, st := "noop", eval.Stats{}
	if !empty || sess.dirty {
		var err error
		if mode, st, err = sess.applyDelta(ctx, b.Ins, b.Del, replay); err != nil {
			return "", eval.Stats{}, err
		}
	}
	if !empty {
		if sess.dur != nil {
			if from != fromWAL {
				n, syncDur, err := sess.dur.Append(b)
				if err != nil {
					sess.undoDelta(b.Ins, b.Del)
					return "", eval.Stats{}, walError{err}
				}
				sess.walBatches.Add(1)
				sess.walBytes.Add(n)
				sess.srv.hFsync.ObserveDuration(syncDur)
			}
			sess.sinceCkpt.Add(1)
		}
		sess.seq.Store(b.Seq)
		sess.slots.offer(b)
		sess.subs.offer(b)
	}
	sess.addEvalStats(st)
	switch {
	case mode == "noop":
	case replay && mode == "recompute":
		sess.replayRecomputes.Add(1)
	case replay:
		sess.replayIncremental.Add(1)
	case mode == "recompute":
		sess.recomputes.Add(1)
	default:
		sess.incremental.Add(1)
	}
	return mode, st, nil
}

// feed is one registry of live slots. Its mutex is strictly inner to
// sess.mu: land offers under mu, and a metrics scrape takes the feed's
// mutex alone.
type feed struct {
	mu    sync.Mutex
	slots []*replicate.Slot
}

func (f *feed) add(sl *replicate.Slot) {
	f.mu.Lock()
	f.slots = append(f.slots, sl)
	f.mu.Unlock()
}

// remove detaches and forgets one slot (handler teardown).
func (f *feed) remove(sl *replicate.Slot) {
	sl.Close()
	f.mu.Lock()
	if i := slices.Index(f.slots, sl); i >= 0 {
		f.slots = slices.Delete(f.slots, i, i+1)
	}
	f.mu.Unlock()
}

// offer hands b to every slot. Offers never block: a full slot
// detaches instead.
func (f *feed) offer(b *durable.Batch) {
	f.mu.Lock()
	for _, sl := range f.slots {
		sl.Offer(b)
	}
	f.mu.Unlock()
}

// close detaches every slot. The handlers notice via Done and end their
// streams; the consumers reconnect.
func (f *feed) close() {
	f.mu.Lock()
	for _, sl := range f.slots {
		sl.Close()
	}
	f.slots = nil
	f.mu.Unlock()
}

// gauges counts the live slots and the batches they buffer.
func (f *feed) gauges() (slots, depth int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, sl := range f.slots {
		depth += sl.Depth()
	}
	return len(f.slots), depth
}

// closeFeeds detaches every follower stream and change feed: a state
// that does not continue the session's history was installed, or the
// session is going away.
func (sess *session) closeFeeds() {
	sess.slots.close()
	sess.subs.close()
}

// refusal is a cursor policy turning a consumer away, with the reply
// its handler answers.
type refusal struct {
	status int
	ErrorDetail
}

func (rf *refusal) Error() string { return rf.Message }

func (rf *refusal) write(w http.ResponseWriter) {
	writeJSON(w, rf.status, ErrorResponse{Error: rf.ErrorDetail})
}

// errGap reports that a checkpoint garbage-collected part of a
// consumer's backlog between its registration and the read.
var errGap = errors.New("history was checkpointed during catch-up")

// replicationBuffer is a feed slot's depth: how many live batches a
// slow consumer may fall behind before it is cut over to catch-up from
// disk.
const replicationBuffer = 128

// attach joins f at the session's live edge and reads back the history
// the consumer is missing. Under mu, cursor — the handler's policy — is
// shown the edge and the store, and names the last sequence the
// consumer holds or refuses it. The slot registered in the same
// critical section captures the same edge, and land advances seq and
// offers under mu too, so batches at or below the edge are on disk and
// batches above it arrive in the slot: no gap, no overlap. The backlog
// (base, edge] is read after mu is released; errGap means a checkpoint
// took part of it in between. A nil slot means cursor refused and err
// is its *refusal; otherwise the caller removes the slot.
func (sess *session) attach(f *feed, cursor func(edge uint64, dur *durable.Store) (base uint64, err error)) (*replicate.Slot, []*durable.Batch, error) {
	sess.mu.Lock()
	edge, dur := sess.seq.Load(), sess.dur
	base, err := cursor(edge, dur)
	if err != nil {
		sess.mu.Unlock()
		return nil, nil, err
	}
	slot := replicate.NewSlot(replicationBuffer, edge)
	f.add(slot)
	sess.mu.Unlock()
	if base >= edge {
		return slot, nil, nil
	}
	// BatchesAfter returns a contiguous run from base+1.
	backlog, err := dur.BatchesAfter(base)
	if err != nil {
		return slot, nil, err
	}
	if want := int(edge - base); len(backlog) >= want {
		return slot, backlog[:want], nil
	}
	return slot, backlog, errGap
}

// pump is the live phase every feed consumer shares: it sends the
// backlog, then each batch the slot receives, and calls beat every
// Config.Heartbeat, until a send or beat fails or ctx ends. When the
// slot closes it first sends what was buffered before the close — still
// contiguous — and then end learns whether the slot closed on overflow.
func (s *Server) pump(ctx context.Context, slot *replicate.Slot, backlog []*durable.Batch, send func(*durable.Batch) bool, beat func() bool, end func(overflow bool)) {
	for _, b := range backlog {
		if !send(b) {
			return
		}
	}
	heartbeat := time.NewTicker(s.cfg.Heartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case b := <-slot.Batches():
			if !send(b) {
				return
			}
		case <-slot.Done():
			if drain(slot, send) {
				end(slot.Overflowed())
			}
			return
		case <-heartbeat.C:
			if !beat() {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// drain sends what slot has buffered without waiting for more. It
// reports false when a send failed.
func drain(slot *replicate.Slot, send func(*durable.Batch) bool) bool {
	for {
		select {
		case b := <-slot.Batches():
			if !send(b) {
				return false
			}
		default:
			return true
		}
	}
}
