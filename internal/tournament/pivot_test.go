package tournament_test

import (
	"context"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/sched"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// The pivot elimination pass of 2-MaxFind: the pairs AppendPivotPairs
// generates, asked as one frontier node (sched.Frontier.AddPivot) and split
// by ScorePivot.

func pivotItems(values ...float64) []item.Item {
	out := make([]item.Item, len(values))
	for i, v := range values {
		out[i] = item.Item{ID: i, Value: v}
	}
	return out
}

// mustPivot runs one pivot pass on a frontier under a background context and
// fails the test on error.
func mustPivot(t *testing.T, x item.Item, its []item.Item, l *cost.Ledger) ([]item.Item, []int) {
	t.Helper()
	f := sched.NewFrontier(tournament.NewOracle(worker.Truth, worker.Naive, l, nil))
	var surv []item.Item
	var elim []int
	f.AddPivot(x, its, func(s []item.Item, e []int) error {
		surv, elim = s, e
		return nil
	})
	if err := f.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return surv, elim
}

func TestPivotPass(t *testing.T) {
	its := pivotItems(5, 1, 9, 3, 7)
	x := its[2] // value 9 beats everyone
	l := cost.NewLedger()
	surv, elim := mustPivot(t, x, its, l)
	if len(surv) != 1 || surv[0].ID != 2 {
		t.Fatalf("survivors = %v", surv)
	}
	if len(elim) != 4 {
		t.Fatalf("eliminated = %v", elim)
	}
	if l.Naive() != 4 { // pivot not compared against itself
		t.Fatalf("comparisons = %d, want 4", l.Naive())
	}
	if l.Steps() != 1 {
		t.Fatalf("steps = %d, want 1", l.Steps())
	}
}

func TestPivotPassKeepsWinners(t *testing.T) {
	its := pivotItems(5, 1, 9, 3, 7)
	x := its[0] // value 5: beats 1 and 3, loses to 9 and 7
	surv, elim := mustPivot(t, x, its, cost.NewLedger())
	if len(surv) != 3 {
		t.Fatalf("survivors = %v", surv)
	}
	if len(elim) != 2 {
		t.Fatalf("eliminated = %v", elim)
	}
	for _, s := range surv {
		if s.Value < 5 {
			t.Fatalf("element %v should have been eliminated", s)
		}
	}
	// ScorePivot alone splits the same winners the same way.
	pairs := tournament.AppendPivotPairs(nil, x, its)
	winners := make([]item.Item, len(pairs))
	for i, p := range pairs {
		winners[i] = worker.Truth.Compare(p[0], p[1])
	}
	s2, e2 := tournament.ScorePivot(x, its, winners)
	if len(s2) != len(surv) || len(e2) != len(elim) {
		t.Fatalf("ScorePivot split %d/%d, frontier %d/%d", len(s2), len(e2), len(surv), len(elim))
	}
}

func TestPivotPassEmpty(t *testing.T) {
	l := cost.NewLedger()
	surv, elim := mustPivot(t, item.Item{ID: 0}, nil, l)
	if len(surv) != 0 || len(elim) != 0 {
		t.Fatal("empty pass should be a no-op")
	}
	if l.Naive() != 0 || l.Steps() != 0 {
		t.Fatalf("empty pass billed %d comparisons in %d steps, want none", l.Naive(), l.Steps())
	}
}
