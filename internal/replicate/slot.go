package replicate

import (
	"sync/atomic"

	"repro/internal/durable"
)

// Slot is one consumer's live feed of committed batches. The session
// offers every batch it lands to every registered slot without ever
// blocking: a slot whose follower cannot keep up overflows, which
// latches the slot and tells the stream handler to end the connection.
// The follower then reconnects and catches up from the leader's
// on-disk WAL (and, if it has fallen behind the oldest retained
// segment, from a checkpoint snapshot) — disk is the unbounded buffer,
// so memory never is.
type Slot struct {
	// StartSeq is the last sequence already on disk when the slot was
	// registered: the stream serves (from, StartSeq] from the WAL files
	// and (StartSeq, ∞) from this slot.
	StartSeq uint64

	ch       chan *durable.Batch
	done     chan struct{}
	closed   atomic.Bool
	overflow atomic.Bool
}

// NewSlot returns a slot buffering up to buf live batches, registered
// at startSeq.
func NewSlot(buf int, startSeq uint64) *Slot {
	if buf < 1 {
		buf = 1
	}
	return &Slot{StartSeq: startSeq, ch: make(chan *durable.Batch, buf), done: make(chan struct{})}
}

// Offer hands a committed batch to the slot without blocking. On a
// full buffer the slot latches overflow and closes: the committer must
// never wait on a slow follower.
func (sl *Slot) Offer(b *durable.Batch) {
	if sl.closed.Load() {
		return
	}
	select {
	case sl.ch <- b:
	default:
		sl.overflow.Store(true)
		sl.Close()
	}
}

// Batches is the live feed. It is never closed: Done reports the close,
// after which what is still buffered can be drained; check Overflowed
// to learn why it closed.
func (sl *Slot) Batches() <-chan *durable.Batch { return sl.ch }

// Done is closed when the slot closes, for select loops that must wake
// even without draining the channel.
func (sl *Slot) Done() <-chan struct{} { return sl.done }

// Close detaches the slot. Idempotent; safe to call from the
// committer (overflow), the stream handler (disconnect), and session
// teardown concurrently.
func (sl *Slot) Close() {
	if sl.closed.CompareAndSwap(false, true) {
		close(sl.done)
	}
}

// Closed reports whether the slot has been detached.
func (sl *Slot) Closed() bool { return sl.closed.Load() }

// Overflowed reports whether the slot closed because its follower fell
// behind the buffer.
func (sl *Slot) Overflowed() bool { return sl.overflow.Load() }

// Depth is the number of live batches buffered and not yet drained.
func (sl *Slot) Depth() int { return len(sl.ch) }
