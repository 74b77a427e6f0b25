package crowdmax

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"

	"crowdmax/internal/checkpoint"
	"crowdmax/internal/dataset"
)

// watchNaiveMemo records, for the rest of the test, the naïve memo of the
// run whose checkpoint writer snapshots.
func watchNaiveMemo(t *testing.T) **Memo {
	memo := new(*Memo)
	testHookSnapshot = func(w *ckWriter, _ string, _ []byte) { *memo = w.src.naive.Memo() }
	t.Cleanup(func() { testHookSnapshot = nil })
	return memo
}

// TestRunNaiveMemoOneTable runs max-find at n = 2000, un = 10 — tens of
// thousands of naïve pairs, which an unsized memo reaches through four
// rehashes — and checks the run's naïve memo was sized for every pair it
// paid for, which TestNewMemoSized shows a sized memo holds without a
// rehash.
func TestRunNaiveMemoOneTable(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 2000 run")
	}
	const n, un, seed = 2000, 10, 5
	cal, err := dataset.UniformCalibrated(n, un, 5, NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	memo := watchNaiveMemo(t)
	s := statelessSession(t, cal, seed, func(c *Config) {
		c.Un = un
		c.Degrade = &DegradeConfig{}
		c.Checkpoint = CheckpointConfig{Path: "/ck/run.ck", Every: 1 << 30, FS: discardFS{}}
	})
	if _, err := s.Run(context.Background(), MaxFind(), cal.Set.Items()); err != nil {
		t.Fatal(err)
	}
	if *memo == nil {
		t.Fatal("run took no snapshot")
	}
	got := (*memo).Len()
	if got < 3*16384/4 {
		t.Fatalf("naïve memo holds %d pairs; an unsized memo would rehash four times to hold them", got)
	}
	if sized := naiveMemoPairs(MaxFind(), &s.cfg, n, nil); got > sized {
		t.Fatalf("naïve memo holds %d pairs, past the %d it was sized for", got, sized)
	}
}

// TestResumePastMemoBound crashes a top-k run late, when its shared naïve
// memo already holds more pairs than one filter's bound, and checks the
// resumed run's memo is sized to the primed entries and the run finishes
// bit-identical to the uninterrupted run.
func TestResumePastMemoBound(t *testing.T) {
	cal, err := dataset.UniformCalibrated(200, 1, 1, NewRand(41))
	if err != nil {
		t.Fatal(err)
	}
	items := cal.Set.Items()
	const seed, k = 13, 100
	want, err := statelessSession(t, cal, seed, nil).Run(context.Background(), TopKWorkload(k), items)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ck")
	crashAfter := (want.NaiveComparisons + want.ExpertComparisons) * 9 / 10
	crashed := statelessSession(t, cal, seed, func(c *Config) {
		c.Checkpoint = CheckpointConfig{Path: path, Every: 64}
		c.Chaos = &ChaosPlan{CrashAfter: crashAfter}
	})
	if _, err := crashed.Run(context.Background(), TopKWorkload(k), items); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("crashed run err = %v, want ErrInjectedCrash", err)
	}
	st, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if bound := filterPairs(cal.Un, len(items)); len(st.NaiveMemo) <= bound {
		t.Fatalf("checkpoint's %d naïve pairs fit the filter's bound of %d", len(st.NaiveMemo), bound)
	}
	resumed := statelessSession(t, cal, seed, func(c *Config) {
		c.Checkpoint = CheckpointConfig{Path: path, Every: 64}
	})
	if sized := naiveMemoPairs(TopKWorkload(k), &resumed.cfg, len(items), st); sized < len(st.NaiveMemo) {
		t.Fatalf("resumed naïve memo sized for %d pairs, fewer than the %d primed", sized, len(st.NaiveMemo))
	}
	got, err := resumed.Resume(context.Background(), path, items)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	resultsEqual(t, got, want)
}

// TestRunMemoSizeCeiling checks a run's naïve memo is never sized past
// maxPresizedPairs or the session budget's caps, however large n·un makes
// the filter's bound, so a job spec cannot make a run allocate its whole
// bound before any comparison is paid.
func TestRunMemoSizeCeiling(t *testing.T) {
	const n = 1 << 20
	cfg := Config{Un: 1_000_000}
	if bound := MaxFind().naivePairs(&cfg, n); bound <= maxPresizedPairs {
		t.Fatalf("filter bound %d does not pass the ceiling", bound)
	}
	if got := naiveMemoPairs(MaxFind(), &cfg, n, nil); got != maxPresizedPairs {
		t.Fatalf("sized for %d pairs, want the ceiling %d", got, maxPresizedPairs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	naive, expert := newRunMemos(MaxFind(), &cfg, n, nil)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(naive)
	runtime.KeepAlive(expert)
	// The ceiling's table is 2^21 eight-byte slots; allow half as much again
	// for its log index and the expert memo.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(24<<20); got > limit {
		t.Fatalf("newRunMemos allocated %d bytes, want at most %d", got, limit)
	}

	cfg.Budget = BudgetLimits{MaxNaive: 5000, MaxTotal: 7000}
	if got := naiveMemoPairs(MaxFind(), &cfg, n, nil); got != 5000 {
		t.Fatalf("with MaxNaive 5000: sized for %d pairs", got)
	}
	cfg.Budget = BudgetLimits{MaxTotal: 3000}
	if got := naiveMemoPairs(MaxFind(), &cfg, n, nil); got != 3000 {
		t.Fatalf("with MaxTotal 3000: sized for %d pairs", got)
	}
	resume := &checkpoint.State{NaiveMemo: make([]checkpoint.PairAnswer, 4000)}
	if got := naiveMemoPairs(MaxFind(), &cfg, n, resume); got != 4000 {
		t.Fatalf("resuming 4000 pairs under MaxTotal 3000: sized for %d pairs", got)
	}
}
