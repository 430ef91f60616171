package testutil

import (
	"bytes"
	"errors"
	"io"
	"path"
	"sort"
	"strings"
	"sync"

	"repro/internal/durable"
)

// FaultFS is a deterministic in-memory durable.FS with crash
// injection, built for the durability crash matrix: run a workload
// once fault-free to count its mutating filesystem operations, then
// re-run it once per operation index with CrashAt(n) — the nth
// mutating op fails (a Write applies only half its bytes first, like a
// torn sector) and the filesystem goes down, failing everything
// afterwards. Recovered() then yields the disk a rebooted process
// would see.
//
// Durability model: file DATA is durable only up to the last Sync —
// on crash, the unsynced suffix of every file survives according to
// the KeepPolicy (all of it, half of it, none of it), which is how
// torn WAL tails and lost-but-acknowledged writes are simulated.
// Directory entries (create, rename, remove) and directories
// themselves (MkdirAll, RemoveAll) are applied atomically and, under
// every policy but KeepSynced, survive the crash, as on a journaled
// filesystem. KeepSynced also drops every entry change made in a
// directory since that directory's last SyncDir, and every directory
// made since its parent's last SyncDir, with all it holds, which is
// what lets the matrix catch a missing directory fsync. A directory
// whose parent FaultFS never made (the data root's parent) and a
// RemoveAll are durable on apply under every policy. Mutating ops
// are counted in workload order, and the count is deterministic for a
// deterministic workload, which is what lets the matrix enumerate
// every crash point exactly once.
type FaultFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	// synced holds each directory's entries as of its last SyncDir:
	// the names a KeepSynced crash leaves, over the same files.
	synced map[string]*memFile
	dirs   map[string]bool
	// syncedDirs holds the directories in their parents' entries as of
	// the parents' last SyncDir.
	syncedDirs map[string]bool
	ops        int
	crashAt    int // op index that fails; -1 = never
	keep       KeepPolicy
	crashed    bool
}

// KeepPolicy selects how much of each file's unsynced suffix survives
// a crash.
type KeepPolicy int

const (
	// KeepAll: every written byte survives (clean power-down of the
	// page cache).
	KeepAll KeepPolicy = iota
	// KeepHalf: half of each unsynced suffix survives (torn write).
	KeepHalf
	// KeepNone: only fsynced bytes survive (worst-case power loss).
	KeepNone
	// KeepSynced: only what was synced survives — file data up to its
	// last Sync, as KeepNone, and in each directory the entries as of
	// its last SyncDir: a create, rename or remove made since is undone,
	// and so is a directory made since, with everything in it.
	KeepSynced
)

type memFile struct {
	data   []byte
	synced int // durable prefix length
}

// ErrCrashed is returned by every operation at and after the injected
// crash point.
var ErrCrashed = errors.New("faultfs: injected crash")

// NewFaultFS returns a FaultFS that never crashes (use it for the
// fault-free reference run, then read Ops).
func NewFaultFS() *FaultFS {
	return &FaultFS{
		files:      map[string]*memFile{},
		synced:     map[string]*memFile{},
		dirs:       map[string]bool{},
		syncedDirs: map[string]bool{},
		crashAt:    -1,
	}
}

// CrashAt arms the fault: the n-th (0-based) mutating operation fails
// and takes the filesystem down; keep decides what unsynced data
// survives. Call before running the workload.
func (f *FaultFS) CrashAt(n int, keep KeepPolicy) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAt = n
	f.keep = keep
}

// Ops reports how many mutating operations have run so far.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the injected crash point was reached.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Recovered returns the filesystem a restarted process would find:
// every file cut to its surviving length under the crash's KeepPolicy,
// with no fault armed. The receiver is unchanged.
func (f *FaultFS) Recovered() *FaultFS {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := NewFaultFS()
	names, dirs := f.files, f.dirs
	if f.crashed && f.keep == KeepSynced {
		names, dirs = f.synced, map[string]bool{}
		for d := range f.dirs {
			if f.dirSurvives(d) {
				dirs[d] = true
			}
		}
	}
	for name, mf := range names {
		if d := path.Dir(name); f.dirs[d] && !dirs[d] {
			continue
		}
		n := len(mf.data)
		if f.crashed {
			unsynced := n - mf.synced
			switch f.keep {
			case KeepNone, KeepSynced:
				n = mf.synced
			case KeepHalf:
				n = mf.synced + unsynced/2
			}
		}
		out.files[name] = &memFile{data: append([]byte(nil), mf.data[:n]...), synced: n}
		out.synced[name] = out.files[name]
	}
	for d := range dirs {
		out.dirs[d] = true
		out.syncedDirs[d] = true
	}
	return out
}

// dirSurvives reports whether directory d outlasts a KeepSynced crash:
// it and each directory above it were in their parents' entries at the
// parents' last SyncDir, up to one whose parent FaultFS never made.
// Caller holds f.mu.
func (f *FaultFS) dirSurvives(d string) bool {
	for ; f.dirs[path.Dir(d)]; d = path.Dir(d) {
		if !f.syncedDirs[d] {
			return false
		}
	}
	return true
}

// Bytes returns a copy of one file's current content (for golden and
// corpus extraction in tests). Missing files return nil.
func (f *FaultFS) Bytes(name string) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	mf := f.files[name]
	if mf == nil {
		return nil
	}
	return append([]byte(nil), mf.data...)
}

// Files lists every file path, sorted.
func (f *FaultFS) Files() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.files))
	for n := range f.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// op gates one mutating operation. It returns ErrCrashed exactly at
// the armed index (after which everything fails), and false when the
// op should apply normally. Caller holds f.mu.
func (f *FaultFS) op() error {
	if f.crashed {
		return ErrCrashed
	}
	n := f.ops
	f.ops++
	if f.crashAt >= 0 && n == f.crashAt {
		f.crashed = true
		return ErrCrashed
	}
	return nil
}

func (f *FaultFS) mkParents(name string) {
	for i, c := range name {
		if c == '/' {
			f.dirs[name[:i]] = true
		}
	}
}

// MkdirAll implements durable.FS.
func (f *FaultFS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	f.dirs[dir] = true
	f.mkParents(dir + "/")
	return nil
}

type faultFile struct {
	fs   *FaultFS
	name string
}

func (h *faultFile) Write(b []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf := h.fs.files[h.name]
	if mf == nil {
		return 0, errors.New("faultfs: write to removed file " + h.name)
	}
	if err := h.fs.op(); err != nil {
		// A torn write: the first half of the payload reaches the page
		// cache before the crash. Whether it survives is the KeepPolicy's
		// call (it is unsynced either way).
		mf.data = append(mf.data, b[:len(b)/2]...)
		return 0, err
	}
	mf.data = append(mf.data, b...)
	return len(b), nil
}

func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	mf := h.fs.files[h.name]
	if mf == nil {
		return errors.New("faultfs: sync of removed file " + h.name)
	}
	if err := h.fs.op(); err != nil {
		return err
	}
	mf.synced = len(mf.data)
	return nil
}

func (h *faultFile) Close() error { return nil }

// Create implements durable.FS.
func (f *FaultFS) Create(name string) (durable.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return nil, err
	}
	f.files[name] = &memFile{}
	f.mkParents(name)
	return &faultFile{fs: f, name: name}, nil
}

// OpenAppend implements durable.FS.
func (f *FaultFS) OpenAppend(name string) (durable.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return nil, err
	}
	if f.files[name] == nil {
		f.files[name] = &memFile{}
		f.mkParents(name)
	}
	return &faultFile{fs: f, name: name}, nil
}

// Open implements durable.FS. Reads fail once the filesystem is down
// but are not themselves counted as crash points.
func (f *FaultFS) Open(name string) (io.ReadCloser, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	mf := f.files[name]
	if mf == nil {
		return nil, errors.New("faultfs: no such file: " + name)
	}
	return io.NopCloser(bytes.NewReader(append([]byte(nil), mf.data...))), nil
}

// ReadDir implements durable.FS.
func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, ErrCrashed
	}
	prefix := dir + "/"
	seen := map[string]bool{}
	child := func(path string) {
		if strings.HasPrefix(path, prefix) {
			rest := path[len(prefix):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			if rest != "" {
				seen[rest] = true
			}
		}
	}
	for name := range f.files {
		child(name)
	}
	for d := range f.dirs {
		child(d)
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Rename implements durable.FS (atomic; durable on apply except under
// KeepSynced, where it waits for its directory's SyncDir).
func (f *FaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	mf := f.files[oldname]
	if mf == nil {
		return errors.New("faultfs: rename: no such file: " + oldname)
	}
	f.files[newname] = mf
	delete(f.files, oldname)
	f.mkParents(newname)
	return nil
}

// Remove implements durable.FS.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	if f.files[name] == nil {
		return errors.New("faultfs: remove: no such file: " + name)
	}
	delete(f.files, name)
	return nil
}

// RemoveAll implements durable.FS.
func (f *FaultFS) RemoveAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	prefix := dir + "/"
	for name := range f.files {
		if strings.HasPrefix(name, prefix) {
			delete(f.files, name)
		}
	}
	for name := range f.synced {
		if strings.HasPrefix(name, prefix) {
			delete(f.synced, name)
		}
	}
	for d := range f.dirs {
		if d == dir || strings.HasPrefix(d, prefix) {
			delete(f.dirs, d)
			delete(f.syncedDirs, d)
		}
	}
	return nil
}

// Truncate implements durable.FS.
func (f *FaultFS) Truncate(name string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	mf := f.files[name]
	if mf == nil {
		return errors.New("faultfs: truncate: no such file: " + name)
	}
	if int64(len(mf.data)) < size {
		return errors.New("faultfs: truncate beyond end of " + name)
	}
	mf.data = mf.data[:size]
	if mf.synced > int(size) {
		mf.synced = int(size)
	}
	return nil
}

// SyncDir implements durable.FS: dir's entries, files and directories,
// as they stand become the ones a KeepSynced crash leaves.
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.op(); err != nil {
		return err
	}
	for name := range f.synced {
		if path.Dir(name) == dir {
			delete(f.synced, name)
		}
	}
	for name, mf := range f.files {
		if path.Dir(name) == dir {
			f.synced[name] = mf
		}
	}
	for d := range f.dirs {
		if path.Dir(d) == dir {
			f.syncedDirs[d] = true
		}
	}
	return nil
}
