// Package durable persists dlogd sessions: periodic snapshot
// checkpoints of the full database plus a write-ahead log of committed
// batch deltas, both in a length+CRC32-framed, versioned on-disk
// format. Each session owns one directory holding
//
//	snap-<seq>.dlsn   checkpoints (atomic tmp-write + rename)
//	wal-<seq>.dlwl    WAL segments (appended, fsync'd per batch)
//
// The recovery ladder (Store.Recover) is: newest snapshot that decodes
// completely, then every WAL record with a higher sequence number in
// order, with a torn final record truncated rather than fatal. The
// serving layer replays the returned batches through the engine's
// incremental maintenance path, so a restart costs a snapshot read
// plus a handful of delta fixpoints instead of a from-scratch
// evaluation (and the load-time semantic optimization of §3–§4 is not
// re-paid at all — the optimized rule set rides in the checkpoint).
package durable

import (
	"errors"
	"fmt"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Options configures a durability root shared by every session.
type Options struct {
	// Dir is the data root; each session persists under Dir/<name>.
	Dir string
	// Fsync, when true, syncs the WAL after every appended batch before
	// the batch is acknowledged. When false, appends are buffered by the
	// OS: a crash may lose acknowledged suffixes, but recovery still
	// yields a prefix-consistent state (the log is applied in order up
	// to the first hole).
	Fsync bool
	// CheckpointEvery is the number of committed batches between
	// automatic snapshot checkpoints. <= 0 means DefaultCheckpointEvery.
	CheckpointEvery int
	// MaxSegmentBytes rotates the WAL to a fresh segment once the
	// current one exceeds this size. <= 0 means DefaultMaxSegmentBytes.
	MaxSegmentBytes int64
	// FS is the file-operation backend; nil means the real filesystem.
	// Tests substitute testutil.FaultFS for deterministic crash
	// injection.
	FS FS
}

const (
	// DefaultCheckpointEvery is the automatic checkpoint cadence.
	DefaultCheckpointEvery = 64
	// DefaultMaxSegmentBytes is the WAL segment rotation threshold.
	DefaultMaxSegmentBytes = 8 << 20
)

// Norm returns opts with defaults filled in.
func (o Options) Norm() Options {
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = DefaultCheckpointEvery
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

// ListSessions returns the session names that have a directory under
// the data root.
func ListSessions(opts Options) ([]string, error) {
	opts = opts.Norm()
	names, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Store is one session's durability handle: it owns the session
// directory and the currently open WAL segment. A store is used by a
// single goroutine at a time (the session committer, or recovery
// before the session is published); it does no internal locking.
type Store struct {
	fs      FS
	dir     string
	fsync   bool
	maxSeg  int64
	seg     File   // nil until the first Checkpoint or Recover
	segName string // path of the open segment
	segSize int64
	// broken latches after a failed append could not be rolled back by
	// truncating the segment: the on-disk tail is then in an unknown
	// state, and appending more records could let a half-written
	// sequence number shadow a later retry. Every Append fails until
	// the next successful Checkpoint opens a fresh segment.
	broken bool
	// ckptSeq is the sequence number of the newest checkpoint on disk.
	// It is atomic because the replication handler reads it without the
	// session mutex while the committer checkpoints under it.
	ckptSeq atomic.Uint64
}

// LastCheckpointSeq is the sequence number covered by the newest
// checkpoint this store has written or recovered (0 before the first).
// Safe to call concurrently with Checkpoint/Append.
func (st *Store) LastCheckpointSeq() uint64 { return st.ckptSeq.Load() }

// RecoverResult is what Store.Recover found on disk.
type RecoverResult struct {
	// Snapshot is the newest checkpoint that decoded completely, nil
	// when the directory holds no usable snapshot.
	Snapshot *Snapshot
	// Batches are the WAL records to replay, in strictly increasing
	// sequence order, all with Seq > Snapshot.Meta.Seq.
	Batches []*Batch
	// TornTail reports that the final WAL record was incomplete and was
	// truncated away.
	TornTail bool
	// SkippedSnapshots counts checkpoint files that failed to decode
	// and were passed over for an older one.
	SkippedSnapshots int
	// SkippedBatches counts WAL records dropped by the at-most-once
	// filter (sequence at or below the snapshot, or duplicates).
	SkippedBatches int
	// DroppedBatches counts WAL records abandoned after a sequence gap
	// or an unreadable middle segment — the prefix before the hole is
	// still replayed.
	DroppedBatches int
}

// Open prepares the session directory (creating it if needed) and
// clears stale temp files from an interrupted checkpoint. It syncs the
// data root after creating the directory, whatever the fsync setting:
// until then a power loss can drop a new session's directory, and with
// it every file in it, synced or not. It does not open a WAL segment;
// Checkpoint (fresh session) or Recover (restart) does.
func Open(opts Options, session string) (*Store, error) {
	opts = opts.Norm()
	st := &Store{
		fs:     opts.FS,
		dir:    path.Join(opts.Dir, session),
		fsync:  opts.Fsync,
		maxSeg: opts.MaxSegmentBytes,
	}
	if err := st.fs.MkdirAll(st.dir); err != nil {
		return nil, err
	}
	if err := st.fs.SyncDir(path.Dir(st.dir)); err != nil {
		return nil, err
	}
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if strings.HasSuffix(n, ".tmp") {
			_ = st.fs.Remove(path.Join(st.dir, n))
		}
	}
	return st, nil
}

// Dir returns the session directory path.
func (st *Store) Dir() string { return st.dir }

// Close releases the open WAL segment, if any.
func (st *Store) Close() error {
	if st.seg == nil {
		return nil
	}
	err := st.seg.Close()
	st.seg = nil
	return err
}

// Destroy closes the store and deletes the session directory.
func (st *Store) Destroy() error {
	_ = st.Close()
	return st.fs.RemoveAll(st.dir)
}

// fileSeq parses the sequence number out of snap-/wal- file names.
func fileSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

func snapName(seq uint64) string { return fmt.Sprintf("snap-%020d%s", seq, SnapSuffix) }
func walName(seq uint64) string  { return fmt.Sprintf("wal-%020d%s", seq, WALSuffix) }

// listSeqs returns the sequence numbers of the files in the session
// dir matching prefix/suffix, ascending.
func (st *Store) listSeqs(prefix, suffix string) ([]uint64, error) {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, n := range names {
		if seq, ok := fileSeq(n, prefix, suffix); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func (st *Store) readFile(name string) ([]byte, error) {
	f, err := st.fs.Open(path.Join(st.dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Checkpoint atomically persists snap as the session's newest
// checkpoint, rotates the WAL to a fresh segment, and garbage-collects
// everything the checkpoint supersedes (older snapshots, segments whose
// records are all at or below snap.Meta.Seq). The snapshot is written
// under a temp name, fsynced, and renamed into place, so a crash at any
// point leaves either the old or the new checkpoint fully intact.
func (st *Store) Checkpoint(snap *Snapshot) error {
	b, err := EncodeSnapshot(snap)
	if err != nil {
		return err
	}
	return st.CheckpointRaw(b, snap.Meta.Seq)
}

// CheckpointRaw persists pre-encoded snapshot bytes as the newest
// checkpoint, with the same atomic-rename, rotation and GC behavior as
// Checkpoint. A replication follower uses it to install the byte
// stream it received from the leader verbatim, so the two data
// directories hold identical snapshot files. seq must match the
// encoded Meta.Seq; the caller has already decoded (and therefore
// validated) the bytes.
func (st *Store) CheckpointRaw(b []byte, seq uint64) error {
	final := path.Join(st.dir, snapName(seq))
	tmp := final + ".tmp"
	f, err := st.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := st.fs.Rename(tmp, final); err != nil {
		return err
	}

	// Rotate: future appends land in a segment strictly above the
	// checkpoint, so every old segment can go. The segment's directory
	// sync also makes the rename durable, before gc removes anything
	// the checkpoint supersedes.
	if err := st.openSegment(seq + 1); err != nil {
		return err
	}
	st.ckptSeq.Store(seq)
	st.gc(seq)
	return nil
}

// gc removes snapshots below keepSeq and WAL segments whose first
// sequence is at or below keepSeq, except the open one. Removal
// failures are ignored — stale files are re-collected by the next
// checkpoint, and the at-most-once replay filter makes them harmless
// in the meantime. Removals need no directory sync for the same
// reason.
func (st *Store) gc(keepSeq uint64) {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		return
	}
	for _, n := range names {
		name := path.Join(st.dir, n)
		if s, ok := fileSeq(n, "snap-", SnapSuffix); ok && s < keepSeq {
			_ = st.fs.Remove(name)
		} else if s, ok := fileSeq(n, "wal-", WALSuffix); ok && s <= keepSeq && name != st.segName {
			_ = st.fs.Remove(name)
		}
	}
}

// openSegment closes the current segment and starts a fresh one whose
// name carries the first sequence number it can hold. It syncs the
// directory before returning, whatever the fsync setting: until then a
// power loss can drop the new file, and with it every record appended
// to it, fsynced or not.
func (st *Store) openSegment(firstSeq uint64) error {
	if st.seg != nil {
		_ = st.seg.Close()
		st.seg = nil
	}
	name := path.Join(st.dir, walName(firstSeq))
	f, err := st.fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(walMagic); err != nil {
		f.Close()
		return err
	}
	if st.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := st.fs.SyncDir(st.dir); err != nil {
		f.Close()
		return err
	}
	st.seg = f
	st.segName = name
	st.segSize = int64(len(walMagic))
	st.broken = false
	return nil
}

// Append logs one committed batch. When the fsync contract is on, the
// record is on stable storage before Append returns — the committer
// only acknowledges the batch afterwards. Returns the encoded record
// size. SyncDuration is how long the fsync took (0 with fsync off),
// for the observability layer.
func (st *Store) Append(b *Batch) (n int64, syncDur time.Duration, err error) {
	if st.seg == nil {
		return 0, 0, errors.New("durable: store has no open WAL segment (no checkpoint yet)")
	}
	if st.broken {
		return 0, 0, errors.New("durable: WAL segment in unknown state after failed append; checkpoint required")
	}
	if st.segSize > st.maxSeg {
		if err := st.openSegment(b.Seq); err != nil {
			return 0, 0, err
		}
	}
	rec := appendFrame(nil, EncodeBatch(b))
	if _, err := st.seg.Write(rec); err != nil {
		st.unappend()
		return 0, 0, err
	}
	if st.fsync {
		start := time.Now()
		if err := st.seg.Sync(); err != nil {
			st.unappend()
			return 0, 0, err
		}
		syncDur = time.Since(start)
	}
	st.segSize += int64(len(rec))
	return int64(len(rec)), syncDur, nil
}

// unappend repairs the segment after a failed append by truncating it
// back to its pre-append length. The committer rolls the batch back in
// memory when Append fails, and may retry requests under the SAME
// sequence number later — so any half-written record must not survive,
// or recovery could replay the abandoned version. If the truncate
// itself fails, the store latches broken until a checkpoint rotates to
// a fresh segment.
func (st *Store) unappend() {
	if err := st.fs.Truncate(st.segName, st.segSize); err != nil {
		st.broken = true
	}
}

// Recover loads the session's durable state: the newest fully valid
// snapshot, then the WAL records above it, in order, with the
// at-most-once filter applied and a torn tail truncated. On return the
// store's WAL segment is open and positioned for new appends (at the
// truncated tail of the last segment, or a fresh segment when none
// exist). The caller replays the returned batches through incremental
// maintenance and publishes the result.
func (st *Store) Recover() (*RecoverResult, error) {
	res := &RecoverResult{}

	snapSeqs, err := st.listSeqs("snap-", SnapSuffix)
	if err != nil {
		return nil, err
	}
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		b, err := st.readFile(snapName(snapSeqs[i]))
		if err != nil {
			res.SkippedSnapshots++
			continue
		}
		snap, err := DecodeSnapshot(b)
		if err != nil {
			res.SkippedSnapshots++
			continue
		}
		res.Snapshot = snap
		st.ckptSeq.Store(snap.Meta.Seq)
		break
	}

	walSeqs, err := st.listSeqs("wal-", WALSuffix)
	if err != nil {
		return nil, err
	}
	if res.Snapshot == nil {
		if len(snapSeqs) > 0 {
			return nil, fmt.Errorf("durable: %s: no snapshot decodes (%d corrupt)", st.dir, res.SkippedSnapshots)
		}
		if len(walSeqs) > 0 {
			return nil, fmt.Errorf("durable: %s: WAL segments with no snapshot", st.dir)
		}
		// Genuinely empty directory: a fresh session.
		return res, nil
	}

	last := res.Snapshot.Meta.Seq
	stop := false
	var lastValidLen int64
	for i, wseq := range walSeqs {
		b, err := st.readFile(walName(wseq))
		if err != nil || stop {
			stop = true
			continue
		}
		batches, validLen, serr := ScanSegment(b)
		if i == len(walSeqs)-1 {
			lastValidLen = validLen
		}
		if serr != nil {
			// Unreadable header mid-log: everything from here on is
			// unusable, but the prefix already collected stands.
			stop = true
			continue
		}
		for _, batch := range batches {
			switch {
			case stop:
				res.DroppedBatches++
			case batch.Seq <= last:
				res.SkippedBatches++
			case batch.Seq != last+1:
				// Sequence gap: an acknowledged batch is missing, so
				// nothing after it can be applied consistently.
				stop = true
				res.DroppedBatches++
			default:
				res.Batches = append(res.Batches, batch)
				last = batch.Seq
			}
		}
		if validLen < int64(len(b)) {
			res.TornTail = true
			if i == len(walSeqs)-1 {
				if err := st.fs.Truncate(path.Join(st.dir, walName(wseq)), validLen); err != nil {
					return nil, fmt.Errorf("durable: truncate torn tail: %w", err)
				}
			} else {
				// A torn middle segment means later segments follow a
				// hole; they are dropped by the gap rule above.
				stop = true
			}
		}
	}

	// Resume appending: reopen the last segment past its valid prefix,
	// or start fresh above the snapshot when no segment exists.
	if len(walSeqs) > 0 && !stop {
		name := path.Join(st.dir, walName(walSeqs[len(walSeqs)-1]))
		f, err := st.fs.OpenAppend(name)
		if err != nil {
			return nil, err
		}
		st.seg = f
		st.segName = name
		st.segSize = lastValidLen
	} else if err := st.openSegment(last + 1); err != nil {
		return nil, err
	}
	return res, nil
}

// NewestSnapshotRaw returns the raw bytes and sequence number of the
// newest checkpoint that decodes completely. It touches only immutable
// store fields (fs, dir), so the replication handler may call it
// concurrently with the committer; a checkpoint GC racing the read
// simply makes it fall back to the next-newest file.
func (st *Store) NewestSnapshotRaw() (raw []byte, seq uint64, err error) {
	snapSeqs, err := st.listSeqs("snap-", SnapSuffix)
	if err != nil {
		return nil, 0, err
	}
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		b, rerr := st.readFile(snapName(snapSeqs[i]))
		if rerr != nil {
			continue
		}
		if _, derr := DecodeSnapshot(b); derr != nil {
			continue
		}
		return b, snapSeqs[i], nil
	}
	return nil, 0, fmt.Errorf("durable: %s: no decodable snapshot", st.dir)
}

// BatchesAfter reads every WAL batch with sequence number strictly
// above from, in order, stopping at the first gap or unreadable
// segment (the prefix collected so far is returned). Like
// NewestSnapshotRaw it only reads immutable fields plus on-disk files,
// so the replication handler may call it while the committer appends:
// records fully written before the call are complete on disk, and a
// concurrently half-written tail parses as torn and is ignored.
func (st *Store) BatchesAfter(from uint64) ([]*Batch, error) {
	walSeqs, err := st.listSeqs("wal-", WALSuffix)
	if err != nil {
		return nil, err
	}
	var out []*Batch
	last := from
	for _, wseq := range walSeqs {
		b, err := st.readFile(walName(wseq))
		if err != nil {
			break // GC'd or unreadable: the contiguous prefix stands
		}
		batches, _, serr := ScanSegment(b)
		if serr != nil {
			break
		}
		for _, batch := range batches {
			switch {
			case batch.Seq <= last:
				continue // below the cursor (or duplicate)
			case batch.Seq == last+1:
				out = append(out, batch)
				last = batch.Seq
			default:
				return out, nil // gap: stop at the contiguous prefix
			}
		}
	}
	return out, nil
}
