package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crowdmax/internal/faults"
)

// ioStats is the device work one job caused in one storage layer.
type ioStats struct {
	writes int64         // atomic file writes (temp files created)
	syncs  int64         // fsyncs
	bytes  int64         // bytes written
	io     time.Duration // time inside the file system calls (timed runs only)
}

func (a *ioStats) add(b ioStats) {
	a.writes += b.writes
	a.syncs += b.syncs
	a.bytes += b.bytes
	a.io += b.io
}

// ioKey attributes a file to the storage layer (the top directory under
// the state dir: "ck" or "jobs") and to the job whose ID prefixes the name.
type ioKey struct{ layer, job string }

// memFS is the service's state directory held in process memory: a
// faults.FS the server writes its job records and checkpoints through. It
// keeps the benchmark off the disk (its timings would measure the host's
// device, not the program) while counting exactly the device work a real
// disk would be charged: files, fsyncs and bytes, attributed per job by
// path. When timed, it also records the time spent inside each call and
// one span per atomic file write.
type memFS struct {
	mu    sync.Mutex
	root  string
	files map[string][]byte
	dirs  map[string]bool
	seq   int
	stats map[ioKey]*ioStats
	timed bool
	spans []fileSpan
	// created holds the creation time of each temp file not yet renamed
	// (timed runs only), so the rename can close its span.
	created map[string]time.Time
}

// fileSpan is one atomic file write: temp-file creation to rename.
type fileSpan struct {
	key        ioKey
	start, end time.Time
}

func newMemFS(root string) *memFS {
	return &memFS{
		root:    filepath.Clean(root),
		files:   make(map[string][]byte),
		dirs:    map[string]bool{"/": true},
		stats:   make(map[ioKey]*ioStats),
		created: make(map[string]time.Time),
	}
}

// setTimed switches call timing and span recording on or off.
func (m *memFS) setTimed(on bool) {
	m.mu.Lock()
	m.timed = on
	m.mu.Unlock()
}

// keyOf maps a path under the state dir to its layer and job.
func (m *memFS) keyOf(path string) ioKey {
	rel, err := filepath.Rel(m.root, path)
	if err != nil {
		return ioKey{}
	}
	layer, _, _ := strings.Cut(rel, string(filepath.Separator))
	job, _, _ := strings.Cut(filepath.Base(path), ".")
	return ioKey{layer: layer, job: job}
}

// statsLocked returns the counters of key, creating them on first use.
func (m *memFS) statsLocked(k ioKey) *ioStats {
	st := m.stats[k]
	if st == nil {
		st = &ioStats{}
		m.stats[k] = st
	}
	return st
}

// charge runs f under the lock and, when timed, adds its duration to the
// io time of the path's job.
func (m *memFS) charge(path string, f func(st *ioStats)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.statsLocked(m.keyOf(path))
	if !m.timed {
		f(st)
		return
	}
	t0 := time.Now()
	f(st)
	st.io += time.Since(t0)
}

// jobStats returns the device work of one job in one layer.
func (m *memFS) jobStats(layer, job string) ioStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.stats[ioKey{layer, job}]; st != nil {
		return *st
	}
	return ioStats{}
}

// takeSpans returns and clears the recorded file-write spans.
func (m *memFS) takeSpans() []fileSpan {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.spans
	m.spans = nil
	return out
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[filepath.Clean(path)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, &fs.PathError{Op: "open", Path: dir, Err: fs.ErrNotExist}
	}
	var out []fs.DirEntry
	for p := range m.dirs {
		if p != dir && filepath.Dir(p) == dir {
			out = append(out, memInfo{name: filepath.Base(p), dir: true})
		}
	}
	for p, data := range m.files {
		if filepath.Dir(p) == dir {
			out = append(out, memInfo{name: filepath.Base(p), size: int64(len(data))})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name() < out[b].Name() })
	return out, nil
}

func (m *memFS) Stat(path string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	if data, ok := m.files[path]; ok {
		return memInfo{name: filepath.Base(path), size: int64(len(data))}, nil
	}
	if m.dirs[path] {
		return memInfo{name: filepath.Base(path), dir: true}, nil
	}
	return nil, &fs.PathError{Op: "stat", Path: path, Err: fs.ErrNotExist}
}

func (m *memFS) MkdirAll(dir string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); !m.dirs[d] && d != filepath.Dir(d); d = filepath.Dir(d) {
		if _, isFile := m.files[d]; isFile {
			return &fs.PathError{Op: "mkdir", Path: d, Err: errors.New("not a directory")}
		}
		m.dirs[d] = true
	}
	return nil
}

func (m *memFS) CreateTemp(dir, pattern string) (faults.File, error) {
	dir = filepath.Clean(dir)
	var f *memFile
	var err error
	m.charge(filepath.Join(dir, pattern), func(st *ioStats) {
		if !m.dirs[dir] {
			err = &fs.PathError{Op: "createtemp", Path: dir, Err: fs.ErrNotExist}
			return
		}
		m.seq++
		name := filepath.Join(dir, strings.Replace(pattern, "*", strconv.Itoa(m.seq), 1))
		m.files[name] = nil
		st.writes++
		if m.timed {
			m.created[name] = time.Now()
		}
		f = &memFile{m: m, name: name}
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	var err error
	m.charge(newpath, func(*ioStats) {
		data, ok := m.files[oldpath]
		if !ok {
			err = &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
			return
		}
		delete(m.files, oldpath)
		m.files[newpath] = data
		if t0, ok := m.created[oldpath]; ok {
			delete(m.created, oldpath)
			m.spans = append(m.spans, fileSpan{key: m.keyOf(newpath), start: t0, end: time.Now()})
		}
	})
	return err
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	if _, ok := m.files[path]; !ok {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	delete(m.files, path)
	delete(m.created, path)
	return nil
}

// memFile is an open temp file: writes buffer in the file and land in the
// file system on Close.
type memFile struct {
	m    *memFS
	name string
	buf  []byte
}

func (f *memFile) Name() string            { return f.name }
func (f *memFile) Chmod(os.FileMode) error { return nil }

func (f *memFile) Write(p []byte) (int, error) {
	f.m.charge(f.name, func(st *ioStats) {
		f.buf = append(f.buf, p...)
		st.bytes += int64(len(p))
	})
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.m.charge(f.name, func(st *ioStats) { st.syncs++ })
	return nil
}

func (f *memFile) Close() error {
	f.m.charge(f.name, func(*ioStats) {
		if _, ok := f.m.files[f.name]; ok {
			f.m.files[f.name] = f.buf
		}
	})
	return nil
}

// memInfo is both the fs.DirEntry and the fs.FileInfo of a memFS entry.
type memInfo struct {
	name string
	size int64
	dir  bool
}

func (i memInfo) Name() string { return i.name }
func (i memInfo) Size() int64  { return i.size }
func (i memInfo) IsDir() bool  { return i.dir }
func (i memInfo) Type() fs.FileMode {
	return i.Mode().Type()
}
func (i memInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memInfo) ModTime() time.Time         { return time.Time{} }
func (i memInfo) Sys() any                   { return nil }
func (i memInfo) Info() (fs.FileInfo, error) { return i, nil }
