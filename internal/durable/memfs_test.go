package durable

import (
	"bytes"
	"errors"
	"io"
	"path"
	"sort"
	"strings"
	"testing"
)

// testFS is a minimal in-memory FS for the package's own unit tests.
// The full crash-simulating implementation (testutil.FaultFS) lives
// outside this package — it implements durable.FS, so using it here
// would be an import cycle. FaultFS's KeepSynced crash mode checks
// end to end that no acknowledged write depends on an unsynced
// directory entry; testFS's op log checks the order of the syncs the
// store issues.
type testFS struct {
	files map[string][]byte
	dirs  map[string]bool
	ops   []string // "mkdir|create|write|rename|remove|syncdir <path>", in call order
}

func (m *testFS) log(op, name string) { m.ops = append(m.ops, op+" "+name) }

// checkSegmentsSynced fails unless every WAL segment created so far
// was followed by a directory sync before its first record — the
// write after its header — went in: until that sync a power loss can
// drop the file, fsynced records and all.
func (m *testFS) checkSegmentsSynced(t *testing.T) {
	t.Helper()
	writes := map[string]int{} // segment created since the last sync -> writes to it
	for _, op := range m.ops {
		kind, name, _ := strings.Cut(op, " ")
		switch {
		case kind == "create" && strings.HasSuffix(name, WALSuffix):
			writes[name] = 0
		case kind == "syncdir":
			clear(writes)
		case kind == "write":
			if n, ok := writes[name]; ok {
				if n > 0 {
					t.Fatalf("record written to %s before a directory sync; ops:\n%s", name, strings.Join(m.ops, "\n"))
				}
				writes[name] = n + 1
			}
		}
	}
}

// checkDirsSynced fails unless every directory made so far was
// followed by a sync of its parent before a file was created in it:
// until that sync a power loss can drop the directory, and every file
// in it with it.
func (m *testFS) checkDirsSynced(t *testing.T) {
	t.Helper()
	made := map[string]bool{} // directories made since their parent's last sync
	for _, op := range m.ops {
		kind, name, _ := strings.Cut(op, " ")
		switch kind {
		case "mkdir":
			made[name] = true
		case "syncdir":
			for d := range made {
				if path.Dir(d) == name {
					delete(made, d)
				}
			}
		case "create":
			if made[path.Dir(name)] {
				t.Fatalf("%s created before its directory's parent was synced; ops:\n%s", name, strings.Join(m.ops, "\n"))
			}
		}
	}
	if len(made) > 0 {
		t.Fatalf("directories never synced into their parents: %v; ops:\n%s", made, strings.Join(m.ops, "\n"))
	}
}

// checkpoint runs st.Checkpoint(snap) and fails unless it synced the
// directory exactly once and removed nothing before that sync.
func (m *testFS) checkpoint(t *testing.T, st *Store, snap *Snapshot) {
	t.Helper()
	mark := len(m.ops)
	if err := st.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	ops := m.ops[mark:]
	syncs := 0
	for _, op := range ops {
		switch kind, _, _ := strings.Cut(op, " "); kind {
		case "syncdir":
			syncs++
		case "remove":
			if syncs == 0 {
				t.Fatalf("checkpoint removed a file before its directory sync; ops:\n%s", strings.Join(ops, "\n"))
			}
		}
	}
	if syncs != 1 {
		t.Fatalf("checkpoint synced the directory %d times, want 1; ops:\n%s", syncs, strings.Join(ops, "\n"))
	}
}

func newTestFS() *testFS {
	return &testFS{files: map[string][]byte{}, dirs: map[string]bool{}}
}

func (m *testFS) write(name string, b []byte) {
	m.files[name] = append([]byte(nil), b...)
	m.mkParents(name)
}

func (m *testFS) chop(name string, n int) {
	b := m.files[name]
	if n > len(b) {
		n = len(b)
	}
	m.files[name] = b[:len(b)-n]
}

func (m *testFS) list(dir string) []string {
	names, _ := m.ReadDir(dir)
	return names
}

func (m *testFS) onlyFileWithSuffix(t *testing.T, suffix string) string {
	t.Helper()
	var found []string
	for name := range m.files {
		if strings.HasSuffix(name, suffix) {
			found = append(found, name)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want exactly one %s file, have %v", suffix, found)
	}
	return found[0]
}

func (m *testFS) mkParents(name string) {
	for i, c := range name {
		if c == '/' {
			m.dirs[name[:i]] = true
		}
	}
}

func (m *testFS) MkdirAll(dir string) error {
	m.log("mkdir", dir)
	m.dirs[dir] = true
	m.mkParents(dir + "/")
	return nil
}

type memWFile struct {
	m    *testFS
	name string
}

func (f *memWFile) Write(b []byte) (int, error) {
	f.m.log("write", f.name)
	f.m.files[f.name] = append(f.m.files[f.name], b...)
	return len(b), nil
}
func (f *memWFile) Sync() error  { return nil }
func (f *memWFile) Close() error { return nil }

func (m *testFS) Create(name string) (File, error) {
	m.log("create", name)
	m.files[name] = nil
	m.mkParents(name)
	return &memWFile{m: m, name: name}, nil
}

func (m *testFS) OpenAppend(name string) (File, error) {
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
		m.mkParents(name)
	}
	return &memWFile{m: m, name: name}, nil
}

func (m *testFS) Open(name string) (io.ReadCloser, error) {
	b, ok := m.files[name]
	if !ok {
		return nil, errors.New("memfs: no such file: " + name)
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}

func (m *testFS) ReadDir(dir string) ([]string, error) {
	prefix := dir + "/"
	seen := map[string]bool{}
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			rest := name[len(prefix):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			seen[rest] = true
		}
	}
	for d := range m.dirs {
		if strings.HasPrefix(d, prefix) {
			rest := d[len(prefix):]
			if i := strings.IndexByte(rest, '/'); i >= 0 {
				rest = rest[:i]
			}
			seen[rest] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (m *testFS) Rename(oldname, newname string) error {
	b, ok := m.files[oldname]
	if !ok {
		return errors.New("memfs: rename: no such file: " + oldname)
	}
	m.log("rename", newname)
	m.files[newname] = b
	delete(m.files, oldname)
	m.mkParents(newname)
	return nil
}

func (m *testFS) Remove(name string) error {
	if _, ok := m.files[name]; !ok {
		return errors.New("memfs: remove: no such file: " + name)
	}
	m.log("remove", name)
	delete(m.files, name)
	return nil
}

func (m *testFS) RemoveAll(dir string) error {
	prefix := dir + "/"
	for name := range m.files {
		if strings.HasPrefix(name, prefix) {
			delete(m.files, name)
		}
	}
	for d := range m.dirs {
		if d == dir || strings.HasPrefix(d, prefix) {
			delete(m.dirs, d)
		}
	}
	return nil
}

func (m *testFS) Truncate(name string, size int64) error {
	b, ok := m.files[name]
	if !ok {
		return errors.New("memfs: truncate: no such file: " + name)
	}
	if int64(len(b)) < size {
		return errors.New("memfs: truncate beyond end")
	}
	m.files[name] = b[:size]
	return nil
}

func (m *testFS) SyncDir(dir string) error {
	m.log("syncdir", dir)
	return nil
}
