package sched

import (
	"context"
	"errors"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

func truthOracle(l *cost.Ledger, memo *tournament.Memo) *Oracle {
	return tournament.NewOracle(worker.Truth, worker.Naive, l, memo)
}

func items(ids ...int) []item.Item {
	out := make([]item.Item, len(ids))
	for i, id := range ids {
		out[i] = item.Item{ID: id, Value: float64(id)}
	}
	return out
}

func TestFrontierEmptyRun(t *testing.T) {
	f := NewFrontier(truthOracle(cost.NewLedger(), tournament.NewMemo()))
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Waves() != 0 {
		t.Fatalf("waves = %d, want 0", f.Waves())
	}
}

// TestFrontierMergesIndependentGroups pins the scheduler's point: N
// independent groups enqueued together drain as ONE wave and ONE logical
// step, where one batch per group would bill N.
func TestFrontierMergesIndependentGroups(t *testing.T) {
	l := cost.NewLedger()
	f := NewFrontier(truthOracle(l, tournament.NewMemo()))
	fired := 0
	for g := 0; g < 5; g++ {
		group := items(g*10+1, g*10+2, g*10+3)
		f.AddRoundRobin(group, tournament.RoundRobinOpts{}, func(res tournament.Result) error {
			if res.TopByWins().ID != group[2].ID {
				t.Errorf("group top %d, want %d", res.TopByWins().ID, group[2].ID)
			}
			fired++
			return nil
		})
	}
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fired != 5 {
		t.Fatalf("fired %d hooks, want 5", fired)
	}
	if f.Waves() != 1 {
		t.Fatalf("waves = %d, want 1", f.Waves())
	}
	if l.Steps() != 1 {
		t.Fatalf("steps = %d, want 1 (merged batch)", l.Steps())
	}
}

// TestFrontierChainsDependentWork pins the other half: successors enqueued
// from completion hooks land in later waves, so a dependency chain of depth
// d costs d steps.
func TestFrontierChainsDependentWork(t *testing.T) {
	l := cost.NewLedger()
	f := NewFrontier(truthOracle(l, tournament.NewMemo()))
	var winners []int
	var chain func(depth int)
	chain = func(depth int) {
		if depth == 0 {
			return
		}
		f.AddPivot(item.Item{ID: depth * 100, Value: float64(depth * 100)}, items(depth*100, 1), func(s []item.Item, _ []int) error {
			winners = append(winners, depth)
			chain(depth - 1)
			return nil
		})
	}
	chain(4)
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.Waves() != 4 || l.Steps() != 4 {
		t.Fatalf("waves=%d steps=%d, want 4/4 for a depth-4 chain", f.Waves(), l.Steps())
	}
	for i, d := range winners {
		if d != 4-i {
			t.Fatalf("hooks fired out of order: %v", winners)
		}
	}
}

func TestFrontierHooksFireInEnqueueOrder(t *testing.T) {
	f := NewFrontier(truthOracle(cost.NewLedger(), tournament.NewMemo()))
	var order []int
	for g := 0; g < 4; g++ {
		g := g
		f.AddPairs([][2]item.Item{{{ID: 1, Value: 1}, {ID: 2, Value: 2}}}, func(w []item.Item) error {
			order = append(order, g)
			return nil
		})
	}
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, g := range order {
		if g != i {
			t.Fatalf("hook order %v, want ascending", order)
		}
	}
}

func TestFrontierAddPairsWinners(t *testing.T) {
	f := NewFrontier(truthOracle(cost.NewLedger(), tournament.NewMemo()))
	pairs := [][2]item.Item{
		{{ID: 1, Value: 1}, {ID: 9, Value: 9}},
		{{ID: 5, Value: 5}, {ID: 3, Value: 3}},
	}
	f.AddPairs(pairs, func(w []item.Item) error {
		if len(w) != 2 || w[0].ID != 9 || w[1].ID != 5 {
			t.Errorf("winners %v", w)
		}
		return nil
	})
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestFrontierHookErrorStopsRun(t *testing.T) {
	f := NewFrontier(truthOracle(cost.NewLedger(), tournament.NewMemo()))
	boom := errors.New("boom")
	later := false
	f.AddPairs([][2]item.Item{{{ID: 1, Value: 1}, {ID: 2, Value: 2}}}, func(w []item.Item) error {
		return boom
	})
	f.AddPairs([][2]item.Item{{{ID: 3, Value: 3}, {ID: 4, Value: 4}}}, func(w []item.Item) error {
		// Same wave, later hook: a failed hook must stop the drain.
		later = true
		return nil
	})
	if err := f.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if later {
		t.Fatal("hook after the failing one still fired")
	}
}

func TestFrontierCancellation(t *testing.T) {
	l := cost.NewLedger()
	f := NewFrontier(truthOracle(l, tournament.NewMemo()))
	ctx, cancel := context.WithCancel(context.Background())
	f.AddPairs([][2]item.Item{{{ID: 1, Value: 1}, {ID: 2, Value: 2}}}, func(w []item.Item) error {
		// Enqueue a successor, then cancel: the successor's wave must fail
		// and its hook must not run.
		f.AddPairs([][2]item.Item{{{ID: 3, Value: 3}, {ID: 4, Value: 4}}}, func(w []item.Item) error {
			t.Error("successor hook ran after cancellation")
			return nil
		})
		cancel()
		return nil
	})
	if err := f.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if l.Steps() != 1 {
		t.Fatalf("steps = %d, want 1 (second wave never dispatched)", l.Steps())
	}
}

// TestFrontierReusesBuffersAcrossWaves pins the zero-alloc discipline at the
// scheduler level: after the first wave sized the buffers, later same-shaped
// fully-memoized waves must not allocate.
func TestFrontierReusesBuffersAcrossWaves(t *testing.T) {
	l := cost.NewLedger()
	f := NewFrontier(truthOracle(l, tournament.NewMemo()))
	pairs := [][2]item.Item{{{ID: 1, Value: 1}, {ID: 2, Value: 2}}}
	var sink func(w []item.Item) error
	depth := 0
	sink = func(w []item.Item) error {
		depth++
		if depth < 8 {
			f.AddPairs(pairs, sink)
		}
		return nil
	}
	f.AddPairs(pairs, sink)
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Warmed up: everything below is memoized and the buffers are sized.
	allocs := testing.AllocsPerRun(50, func() {
		f.AddPairs(pairs, func(w []item.Item) error { return nil })
		if err := f.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 { // the done-closure itself may escape; the dispatch must not
		t.Fatalf("memoized wave allocates %.1f times, want ≤ 1", allocs)
	}
}
