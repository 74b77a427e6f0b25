package crowdmax

import (
	"bytes"
	"context"
	"errors"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"crowdmax/internal/checkpoint"
	"crowdmax/internal/dataset"
	"crowdmax/internal/faults"
)

// referenceSnapshot renders a writer's current snapshot the way the writer
// did before memo images: Memo.Entries copied into PairAnswer tables of a
// fresh State, sorted, and encoded by checkpoint.Encode.
func referenceSnapshot(w *ckWriter, label string) []byte {
	src := w.src
	st := &checkpoint.State{
		Kind:        src.st.Kind,
		Seed:        src.st.Seed,
		Un:          src.st.Un,
		Phase2:      src.st.Phase2,
		TrackLosses: src.st.TrackLosses,
		NItems:      src.st.NItems,
		ItemsHash:   src.st.ItemsHash,
		Phase:       label,
		Survivors:   append([]int64(nil), w.survivors...),
	}
	snap := src.led.Snapshot()
	st.Comparisons, st.MemoHits, st.Steps = snap.Comparisons, snap.MemoHits, snap.Steps
	if src.budget != nil {
		for i := range st.BudgetSpent {
			st.BudgetSpent[i] = src.budget.Spent(Class(i))
		}
		st.BudgetCost = src.budget.SpentCost()
	}
	st.NaiveMemo = entriesAsPairs(src.naive.Memo())
	st.ExpertMemo = entriesAsPairs(src.expert.Memo())
	st.ValueMemo = valueAnswers(src.vm)
	ctl, blob := src.hooks.snapshot()
	if ctl != nil {
		st.Rung, st.DecisionHash = ctl.Snapshot()
	}
	st.Workload = blob
	st.SortPairs()
	return checkpoint.Encode(st)
}

func entriesAsPairs(m *Memo) []checkpoint.PairAnswer {
	var out []checkpoint.PairAnswer
	for _, e := range m.Entries() {
		out = append(out, checkpoint.PairAnswer{A: int64(e[0]), B: int64(e[1]), Winner: int64(e[2])})
	}
	return out
}

// snapshotAudit checks, for the rest of the test, every snapshot any writer
// encodes against referenceSnapshot, and counts snapshots and the largest
// naïve memo seen.
type snapshotAudit struct {
	snapshots, maxNaive int
}

func auditSnapshots(t *testing.T) *snapshotAudit {
	a := &snapshotAudit{}
	testHookSnapshot = func(w *ckWriter, label string, data []byte) {
		a.snapshots++
		a.maxNaive = max(a.maxNaive, w.src.naive.Memo().Len())
		if want := referenceSnapshot(w, label); !bytes.Equal(data, want) {
			t.Errorf("snapshot %d (%s): %d bytes differ from the reference's %d", a.snapshots, label, len(data), len(want))
		}
	}
	t.Cleanup(func() { testHookSnapshot = nil })
	return a
}

// TestSnapshotBytesMatchReference runs each workload — and a crashed run
// resumed from its snapshot, whose memos start primed — with every
// snapshot checked byte for byte against the reference path.
func TestSnapshotBytesMatchReference(t *testing.T) {
	cal, err := dataset.UniformCalibrated(200, 6, 2, NewRand(33))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	const seed = 77
	valuer := NoisyValuer{Sigma: cal.DeltaN, Seed: seed + 2}
	runs := []struct {
		name   string
		w      Workload
		mutate func(*Config)
		chains bool // the naïve memo grows past its first table
	}{
		{"max-find", MaxFind(), func(c *Config) {
			c.Degrade = &DegradeConfig{}
			c.Budget = BudgetLimits{MaxCost: 1e9, Prices: c.Prices}
		}, true},
		{"top-k", TopKWorkload(3), nil, true},
		{"score", ScoreWorkload(ScoreConfig{Votes: 5}), func(c *Config) { c.Valuer = valuer }, false},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			audit := auditSnapshots(t)
			path := filepath.Join(t.TempDir(), "run.ck")
			s := statelessSession(t, cal, seed, func(c *Config) {
				c.Checkpoint = CheckpointConfig{Path: path, Every: 64}
				if r.mutate != nil {
					r.mutate(c)
				}
			})
			if _, err := s.Run(context.Background(), r.w, items); err != nil {
				t.Fatal(err)
			}
			if audit.snapshots < 10 {
				t.Fatalf("only %d snapshots checked", audit.snapshots)
			}
			if r.chains && audit.maxNaive <= 768 {
				t.Fatalf("naïve memo peaked at %d entries, never past the 768-entry chain point", audit.maxNaive)
			}
		})
	}

	t.Run("resumed", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.ck")
		mutate := func(c *Config) { c.Checkpoint = CheckpointConfig{Path: path, Every: 64} }
		crashed := statelessSession(t, cal, seed, func(c *Config) {
			mutate(c)
			c.Chaos = &ChaosPlan{CrashAfter: 1000}
		})
		if _, err := crashed.FindMax(items); !errors.Is(err, ErrInjectedCrash) {
			t.Fatalf("crashed run: err = %v, want ErrInjectedCrash", err)
		}
		audit := auditSnapshots(t)
		if _, err := statelessSession(t, cal, seed, mutate).Resume(context.Background(), path, items); err != nil {
			t.Fatal(err)
		}
		if audit.snapshots < 10 {
			t.Fatalf("only %d snapshots checked", audit.snapshots)
		}
	})
}

// snapshotDigests runs each golden workload with checkpointing into a
// recording file system — plus a crash and a resume of the max-find run —
// and returns, per run, the count and FNV-1a hash of every snapshot written.
// With scheduleFree set, each snapshot is hashed as decoded with its Steps
// and MemoHits zeroed: the two ledger readings that depend on how a wave's
// comparisons are grouped into logical steps and when its memo hits are
// billed, not on what was asked or answered.
func snapshotDigests(t *testing.T, scheduleFree bool) map[string][2]uint64 {
	cal, err := dataset.UniformCalibrated(200, 6, 2, NewRand(33))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	const seed = 77
	out := map[string][2]uint64{}
	digest := func(name string, fsys *recordingFS) {
		h := fnv.New64a()
		for _, data := range fsys.written() {
			if scheduleFree {
				st, err := checkpoint.Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				st.Steps, st.MemoHits = 0, [len(st.MemoHits)]int64{}
				data = checkpoint.Encode(st)
			}
			h.Write(data)
		}
		out[name] = [2]uint64{uint64(len(fsys.written())), h.Sum64()}
	}
	session := func(fsys *recordingFS, mutate func(*Config)) *Session {
		return statelessSession(t, cal, seed, func(c *Config) {
			c.Checkpoint = CheckpointConfig{Path: "/ck/run.ck", Every: 64, FS: fsys}
			if mutate != nil {
				mutate(c)
			}
		})
	}
	for _, r := range []struct {
		name   string
		w      Workload
		mutate func(*Config)
	}{
		{"max-find", MaxFind(), func(c *Config) {
			c.Degrade = &DegradeConfig{}
			c.Budget = BudgetLimits{MaxCost: 1e9, Prices: c.Prices}
		}},
		{"top-k", TopKWorkload(3), nil},
		{"score", ScoreWorkload(ScoreConfig{Votes: 5}), func(c *Config) {
			c.Valuer = NoisyValuer{Sigma: cal.DeltaN, Seed: seed + 2}
		}},
	} {
		fsys := newRecordingFS()
		if _, err := session(fsys, r.mutate).Run(context.Background(), r.w, items); err != nil {
			t.Fatal(err)
		}
		digest(r.name, fsys)
	}
	fsys := newRecordingFS()
	crashed := session(fsys, func(c *Config) { c.Chaos = &ChaosPlan{CrashAfter: 1000} })
	if _, err := crashed.FindMax(items); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("crashed run: err = %v, want ErrInjectedCrash", err)
	}
	if _, err := session(fsys, nil).Resume(context.Background(), "/ck/run.ck", items); err != nil {
		t.Fatal(err)
	}
	digest("crash+resume", fsys)
	return out
}

// TestSnapshotBytesGolden pins every snapshot of the golden runs byte for
// byte. The digests were recorded when the comparison scheduler became the
// only schedule: one logical step per wave changed every snapshot's Steps,
// and one-pass wave answering changed the MemoHits of interval snapshots
// taken mid-wave. TestSnapshotScheduleIndependentGolden pins that nothing
// else changed.
func TestSnapshotBytesGolden(t *testing.T) {
	want := map[string][2]uint64{
		"max-find":     {46, 0x6ca22b771c33819c},
		"top-k":        {50, 0x7c8da0bd0d3a5c7b},
		"score":        {18, 0xc06f0235ac40a38d},
		"crash+resume": {47, 0x797ddcd428589080},
	}
	for name, got := range snapshotDigests(t, false) {
		if got != want[name] {
			t.Errorf("%s: %d snapshots with digest %#x, want %d with %#x", name, got[0], got[1], want[name][0], want[name][1])
		}
	}
}

// TestSnapshotScheduleIndependentGolden pins the golden runs' snapshots with
// Steps and MemoHits zeroed: phase labels, survivors, paid counts, budget
// spend, memo tables and workload state. The digests were recorded at
// commit 891691f under the per-group schedule, and that commit's frontier
// schedule produced the same ones.
func TestSnapshotScheduleIndependentGolden(t *testing.T) {
	want := map[string][2]uint64{
		"max-find":     {46, 0xf76095c9b6f29f59},
		"top-k":        {50, 0xf07ffbe62d5850f6},
		"score":        {18, 0xb2122184f0eb67d6},
		"crash+resume": {47, 0x3a67224b73419ca8},
	}
	for name, got := range snapshotDigests(t, true) {
		if got != want[name] {
			t.Errorf("%s: %d snapshots with digest %#x, want %d with %#x", name, got[0], got[1], want[name][0], want[name][1])
		}
	}
}

// recordingFS is an in-memory faults.FS that keeps, in order, the bytes of
// every file published by rename.
type recordingFS struct {
	mu    sync.Mutex
	files map[string][]byte
	log   [][]byte
	seq   int
}

func newRecordingFS() *recordingFS { return &recordingFS{files: make(map[string][]byte)} }

func (r *recordingFS) written() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log
}

func (r *recordingFS) ReadFile(path string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if data, ok := r.files[path]; ok {
		return append([]byte(nil), data...), nil
	}
	return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
}

func (r *recordingFS) ReadDir(string) ([]fs.DirEntry, error) { return nil, nil }

func (r *recordingFS) Stat(path string) (fs.FileInfo, error) {
	return nil, &fs.PathError{Op: "stat", Path: path, Err: fs.ErrNotExist}
}

func (r *recordingFS) MkdirAll(string, os.FileMode) error { return nil }

func (r *recordingFS) CreateTemp(dir, pattern string) (faults.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	return &recordingFile{fs: r, name: filepath.Join(dir, pattern) + strconv.Itoa(r.seq)}, nil
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	data := r.files[oldpath]
	delete(r.files, oldpath)
	r.files[newpath] = data
	r.log = append(r.log, data)
	return nil
}

func (r *recordingFS) Remove(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.files, path)
	return nil
}

type recordingFile struct {
	fs   *recordingFS
	name string
	buf  []byte
}

func (f *recordingFile) Name() string            { return f.name }
func (f *recordingFile) Chmod(os.FileMode) error { return nil }
func (f *recordingFile) Sync() error             { return nil }

func (f *recordingFile) Write(p []byte) (int, error) {
	f.buf = append(f.buf, p...)
	return len(p), nil
}

func (f *recordingFile) Close() error {
	f.fs.mu.Lock()
	f.fs.files[f.name] = f.buf
	f.fs.mu.Unlock()
	return nil
}

// SnapshotReplay is the snapshot work of one recorded checkpointed run,
// replayable without the algorithm: each step primes the pairs the run had
// answered since the previous snapshot and takes the snapshot. It backs
// BenchmarkCheckpointSnapshot in the external test package.
type SnapshotReplay struct {
	s     *Session
	w     Workload
	items []Item
	steps []replayStep
	// Entries is the naïve memo size at the last snapshot.
	Entries int
}

type replayStep struct {
	label         string
	survivors     []int64
	naive, expert []checkpoint.PairAnswer // answered since the previous step
}

// RecordSnapshotReplay runs w once over a calibrated uniform instance with
// a snapshot every 64 paid comparisons (the service's cadence) and records
// its snapshots.
func RecordSnapshotReplay(tb testing.TB, w Workload, n, un, ue int, seed uint64) *SnapshotReplay {
	tb.Helper()
	cal, err := dataset.UniformCalibrated(n, un, ue, NewRand(seed))
	if err != nil {
		tb.Fatal(err)
	}
	fsys := newRecordingFS()
	s, err := NewSession(Config{
		Naive:      &ThresholdWorker{Delta: cal.DeltaN, Tie: HashTie{Seed: seed}},
		Expert:     &ThresholdWorker{Delta: cal.DeltaE, Tie: HashTie{Seed: seed + 1}},
		Un:         un,
		Rand:       NewRand(seed),
		Checkpoint: CheckpointConfig{Path: "/ck/run.ck", Every: 64, FS: fsys},
		Degrade:    &DegradeConfig{},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Run(context.Background(), w, cal.Set.Items()); err != nil {
		tb.Fatal(err)
	}
	r := &SnapshotReplay{s: s, w: w, items: cal.Set.Items()}
	seen := [2]map[checkpoint.PairAnswer]bool{{}, {}}
	delta := func(class int, table []checkpoint.PairAnswer) []checkpoint.PairAnswer {
		var out []checkpoint.PairAnswer
		for _, p := range table {
			if !seen[class][p] {
				seen[class][p] = true
				out = append(out, p)
			}
		}
		return out
	}
	for _, data := range fsys.written() {
		st, err := checkpoint.Decode(data)
		if err != nil {
			tb.Fatal(err)
		}
		r.steps = append(r.steps, replayStep{label: st.Phase, survivors: st.Survivors,
			naive: delta(0, st.NaiveMemo), expert: delta(1, st.ExpertMemo)})
		r.Entries = len(st.NaiveMemo)
	}
	return r
}

// Snapshots returns the number of snapshots one replay takes.
func (r *SnapshotReplay) Snapshots() int { return len(r.steps) }

// Run replays the snapshots against fresh memos, built as Session.Run builds
// them, through a writer whose file system discards what it writes.
func (r *SnapshotReplay) Run(tb testing.TB) {
	nm, em := newRunMemos(r.w, &r.s.cfg, len(r.items), nil)
	w := newCkWriter(CheckpointConfig{Path: "/ck/run.ck", Every: 1 << 30, FS: discardFS{}},
		r.s.checkpointSource(r.w.Kind(), r.items, 1, NewLedger(), nil, nm, em, nil, &snapHooks{}))
	for _, st := range r.steps {
		for _, p := range st.naive {
			nm.Prime(int(p.A), int(p.B), int(p.Winner))
		}
		for _, p := range st.expert {
			em.Prime(int(p.A), int(p.B), int(p.Winner))
		}
		w.survivors = st.survivors
		w.snapshot(st.label)
	}
	if err := w.Err(); err != nil {
		tb.Fatal(err)
	}
}

// discardFS accepts atomic file writes and keeps nothing.
type discardFS struct{}

func (discardFS) ReadFile(path string) ([]byte, error) {
	return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
}
func (discardFS) ReadDir(string) ([]fs.DirEntry, error) { return nil, nil }
func (discardFS) Stat(path string) (fs.FileInfo, error) {
	return nil, &fs.PathError{Op: "stat", Path: path, Err: fs.ErrNotExist}
}
func (discardFS) MkdirAll(string, os.FileMode) error { return nil }
func (discardFS) CreateTemp(dir, pattern string) (faults.File, error) {
	return discardFile(filepath.Join(dir, pattern)), nil
}
func (discardFS) Rename(string, string) error { return nil }
func (discardFS) Remove(string) error         { return nil }

type discardFile string

func (f discardFile) Name() string              { return string(f) }
func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Chmod(os.FileMode) error     { return nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }
