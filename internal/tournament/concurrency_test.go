package tournament

import (
	"context"
	"sync"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/worker"
)

func TestMemoConcurrentAccess(t *testing.T) {
	// Memo documents safety for concurrent use: goroutines racing to
	// answer overlapping pairs must converge on one answer per pair, and
	// the shared atomic ledger must account for every comparison exactly
	// once (as a fresh charge or as a memo hit).
	const goroutines = 32
	const perGoroutine = 300
	root := rng.New(1)
	memo := NewMemo()
	ledger := cost.NewLedger()
	items := make([]item.Item, 10)
	for i := range items {
		items[i] = item.Item{ID: i, Value: float64(i) * 0.1}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Per-goroutine worker and oracle sharing the memo and the
			// ledger; workers are documented single-goroutine.
			r := root.ChildN("g", g)
			w := worker.NewThreshold(10, 0, r) // all arbitrary: only memo makes it consistent
			o := NewOracle(w, worker.Naive, ledger, memo)
			for i := 0; i < perGoroutine; i++ {
				a, b := items[i%10], items[(i+3)%10]
				o.Compare(context.Background(), a, b)
			}
		}(g)
	}
	wg.Wait()
	// Every request was either charged or a memo hit; no update was lost.
	total := ledger.Comparisons(worker.Naive) + ledger.MemoHits(worker.Naive)
	if want := int64(goroutines * perGoroutine); total != want {
		t.Fatalf("charges+hits = %d, want %d", total, want)
	}
	if ledger.Comparisons(worker.Naive) != int64(memo.Len()) {
		t.Fatalf("charged %d fresh comparisons but memo holds %d pairs",
			ledger.Comparisons(worker.Naive), memo.Len())
	}
	// After the dust settles, answers are frozen.
	o := NewOracle(worker.NewThreshold(10, 0, root.Child("final")), worker.Naive, nil, memo)
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			first, err := o.Compare(context.Background(), items[i], items[j])
			if err != nil {
				t.Fatal(err)
			}
			second, err := o.Compare(context.Background(), items[i], items[j])
			if err != nil {
				t.Fatal(err)
			}
			if second.ID != first.ID {
				t.Fatalf("pair (%d,%d) not frozen", i, j)
			}
		}
	}
}

func TestParallelBatchConcurrentOracles(t *testing.T) {
	// Many goroutines driving parallel batches through one memoized,
	// ledgered oracle: the worker is a stateless HashTie threshold
	// comparator, so this exercises every concurrent code path at once.
	items := make([]item.Item, 16)
	for i := range items {
		items[i] = item.Item{ID: i, Value: float64(i)}
	}
	var pairs [][2]item.Item
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			pairs = append(pairs, [2]item.Item{items[i], items[j]})
		}
	}
	ledger := cost.NewLedger()
	w := &worker.Threshold{Delta: 100, Tie: worker.HashTie{Seed: 42}}
	o := NewOracle(w, worker.Expert, ledger, NewMemo()).ParallelBatch(4)
	want, err := o.CompareBatch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := o.CompareBatch(context.Background(), pairs)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Errorf("pair %d: got %d, want %d", i, got[i].ID, want[i].ID)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ledger.Expert() != int64(len(pairs)) {
		t.Fatalf("expert comparisons = %d, want %d (every repeat a memo hit)",
			ledger.Expert(), len(pairs))
	}
}

func TestLossTrackerConcurrent(t *testing.T) {
	lt := NewLossTracker()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				lt.Record(i%10, (i+g)%17)
			}
		}(g)
	}
	wg.Wait()
	for id := 0; id < 10; id++ {
		if lt.Losses(id) == 0 {
			t.Fatalf("loser %d has no recorded losses", id)
		}
	}
}

// racingComparator answers every pair with its better item, but first
// freezes the opposite answer in the shared memo — as a concurrent caller of
// the same pair that published first would.
type racingComparator struct{ memo *Memo }

func (c racingComparator) Compare(a, b item.Item) item.Item {
	w, l := a, b
	if b.Value > a.Value {
		w, l = b, a
	}
	c.memo.Prime(a.ID, b.ID, l.ID)
	return w
}

// racingPlatform is racingComparator answering whole platform batches.
type racingPlatform struct{ racingComparator }

func (c racingPlatform) CompareBatch(pairs [][2]item.Item) []item.Item {
	out := make([]item.Item, len(pairs))
	for i, p := range pairs {
		out[i] = c.Compare(p[0], p[1])
	}
	return out
}

// TestOracleReturnsFrozenAnswer checks that a caller whose store loses to an
// earlier publication returns the memo's frozen answer, not its own, on
// every paid path: Compare, and CompareBatch element-wise, in parallel and
// through a platform batch.
func TestOracleReturnsFrozenAnswer(t *testing.T) {
	it := items(0.1, 0.9, 0.5, 0.7)
	pairs := [][2]item.Item{{it[0], it[1]}, {it[2], it[3]}, {it[1], it[2]}}
	for _, c := range []struct {
		name string
		cmp  func(*Memo) worker.Comparator
		par  int
	}{
		{"sequential", func(m *Memo) worker.Comparator { return racingComparator{m} }, 0},
		{"parallel", func(m *Memo) worker.Comparator { return racingComparator{m} }, 2},
		{"platform", func(m *Memo) worker.Comparator { return racingPlatform{racingComparator{m}} }, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			memo := NewMemo()
			o := NewOracle(c.cmp(memo), worker.Naive, cost.NewLedger(), memo)
			if c.par > 0 {
				o.ParallelBatch(c.par)
			}
			got, err := o.CompareBatch(context.Background(), pairs)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pairs {
				w, _ := memo.lookup(p[0].ID, p[1].ID)
				if got[i].ID != w {
					t.Errorf("pair (%d,%d): returned %d, memo froze %d", p[0].ID, p[1].ID, got[i].ID, w)
				}
			}
		})
	}
	memo := NewMemo()
	o := NewOracle(racingComparator{memo}, worker.Naive, nil, memo)
	got, err := o.Compare(context.Background(), it[0], it[1])
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != it[0].ID {
		t.Fatalf("Compare returned %d, memo froze %d", got.ID, it[0].ID)
	}
}
