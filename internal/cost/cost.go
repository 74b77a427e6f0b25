// Package cost implements the paper's monetary cost model (Section 3.4).
//
// Workers are paid per comparison; naïve and expert comparisons have
// different unit prices cn and ce with ce ≫ cn. An algorithm performing
// xn naïve and xe expert comparisons costs
//
//	C(n) = xe·ce + xn·cn.
//
// The ledger also tracks logical steps — the batch rounds of Venetis et
// al.'s execution model (Section 3) that the paper treats as the time
// complexity measure — and memoization hits, so the Appendix A
// optimizations can be quantified.
package cost

import (
	"fmt"
	"strings"
	"sync/atomic"

	"crowdmax/internal/worker"
)

// Prices holds per-comparison prices by worker class.
type Prices struct {
	// Naive is cn, the price of one naïve comparison.
	Naive float64
	// Expert is ce, the price of one expert comparison; the paper's
	// regime of interest is Expert ≫ Naive.
	Expert float64
}

// Unit returns the price of one comparison by the given class. Classes
// beyond Expert (the multi-class extension) are priced like experts.
func (p Prices) Unit(c worker.Class) float64 {
	if c == worker.Naive {
		return p.Naive
	}
	return p.Expert
}

// MaxClasses is the number of worker classes a Ledger can bill. The paper
// uses two; the multi-class cascade extension uses three. Fixed-width
// per-class counters are what make the ledger lock-free.
const MaxClasses = 8

// Ledger accumulates the resource consumption of an algorithm run:
// comparisons by worker class, memoization hits (answers served from the
// comparison table of Appendix A at zero cost), and logical steps (batches
// submitted to the platform). The zero value is an empty ledger.
//
// Ledger is safe for concurrent use: every counter is a fixed atomic, so a
// ledger shared by several goroutines needs no external locking. Charging
// is a single atomic add — cheaper than the map update it replaces even in
// sequential runs, which matters because it sits on the hot path of every
// comparison. Readers see momentarily inconsistent cross-counter snapshots
// while writers are active; quiesce (e.g. join the pool) before reporting.
type Ledger struct {
	comparisons [MaxClasses]atomic.Int64
	memoHits    [MaxClasses]atomic.Int64
	steps       atomic.Int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// classIndex bounds-checks a class against the ledger's fixed counters.
func classIndex(c worker.Class) int {
	if c < 0 || int(c) >= MaxClasses {
		panic(fmt.Sprintf("cost: worker class %d outside [0, %d)", int(c), MaxClasses))
	}
	return int(c)
}

// Charge records one paid comparison by the given class.
func (l *Ledger) Charge(c worker.Class) {
	l.comparisons[classIndex(c)].Add(1)
}

// ChargeN records n paid comparisons by the given class in one atomic add —
// the per-batch amortization the batch dispatch path relies on.
func (l *Ledger) ChargeN(c worker.Class, n int64) {
	l.comparisons[classIndex(c)].Add(n)
}

// MemoHit records a comparison answered from the memo table (free).
func (l *Ledger) MemoHit(c worker.Class) {
	l.memoHits[classIndex(c)].Add(1)
}

// MemoHitN records n memoized comparisons in one atomic add; see ChargeN.
func (l *Ledger) MemoHitN(c worker.Class, n int64) {
	l.memoHits[classIndex(c)].Add(n)
}

// Step records one logical step (one batch round).
func (l *Ledger) Step() { l.steps.Add(1) }

// Comparisons returns the number of paid comparisons by class.
func (l *Ledger) Comparisons(c worker.Class) int64 {
	return l.comparisons[classIndex(c)].Load()
}

// MemoHits returns the number of memoized (free) comparisons by class.
func (l *Ledger) MemoHits(c worker.Class) int64 {
	return l.memoHits[classIndex(c)].Load()
}

// Naive returns xn, the paid naïve comparisons.
func (l *Ledger) Naive() int64 { return l.Comparisons(worker.Naive) }

// Expert returns xe, the paid comparisons of every non-naïve class.
func (l *Ledger) Expert() int64 {
	var n int64
	for i := 1; i < MaxClasses; i++ {
		n += l.comparisons[i].Load()
	}
	return n
}

// Steps returns the number of logical steps recorded.
func (l *Ledger) Steps() int64 { return l.steps.Load() }

// Cost returns C(n) = Σ_class comparisons(class)·price(class).
func (l *Ledger) Cost(p Prices) float64 {
	var c float64
	for i := 0; i < MaxClasses; i++ {
		if n := l.comparisons[i].Load(); n != 0 {
			c += float64(n) * p.Unit(worker.Class(i))
		}
	}
	return c
}

// Snapshot is a point-in-time copy of a ledger's counters. Differencing two
// snapshots taken at phase boundaries yields the phase's resource
// consumption — the "ledger cost delta" the observability layer attributes
// to each algorithm phase.
type Snapshot struct {
	// Comparisons and MemoHits are the per-class counter values.
	Comparisons [MaxClasses]int64
	MemoHits    [MaxClasses]int64
	// Steps is the logical-step counter value.
	Steps int64
}

// Snapshot copies the ledger's counters. Safe on a nil ledger (zero
// snapshot) so callers can snapshot an un-billed oracle unconditionally.
// Concurrent writers make the copy momentarily inconsistent across
// counters; quiesce before snapshotting when exactness matters.
func (l *Ledger) Snapshot() Snapshot {
	var s Snapshot
	if l == nil {
		return s
	}
	for i := 0; i < MaxClasses; i++ {
		s.Comparisons[i] = l.comparisons[i].Load()
		s.MemoHits[i] = l.memoHits[i].Load()
	}
	s.Steps = l.steps.Load()
	return s
}

// Sub returns the counter-wise difference s − o: the resources consumed
// between snapshot o and snapshot s.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	var d Snapshot
	for i := 0; i < MaxClasses; i++ {
		d.Comparisons[i] = s.Comparisons[i] - o.Comparisons[i]
		d.MemoHits[i] = s.MemoHits[i] - o.MemoHits[i]
	}
	d.Steps = s.Steps - o.Steps
	return d
}

// TotalComparisons sums the paid comparisons across classes.
func (s Snapshot) TotalComparisons() int64 {
	var n int64
	for _, c := range s.Comparisons {
		n += c
	}
	return n
}

// TotalMemoHits sums the memoized (free) comparisons across classes.
func (s Snapshot) TotalMemoHits() int64 {
	var n int64
	for _, c := range s.MemoHits {
		n += c
	}
	return n
}

// Add accumulates another ledger into this one (used to merge per-phase
// ledgers into a run total).
func (l *Ledger) Add(o *Ledger) {
	if o == nil {
		return
	}
	for i := 0; i < MaxClasses; i++ {
		if n := o.comparisons[i].Load(); n != 0 {
			l.comparisons[i].Add(n)
		}
		if n := o.memoHits[i].Load(); n != 0 {
			l.memoHits[i].Add(n)
		}
	}
	l.steps.Add(o.steps.Load())
}

// AddSnapshot adds a snapshot's counters into the ledger — how a resumed
// session restores the paid totals of the run segment before the checkpoint.
func (l *Ledger) AddSnapshot(s Snapshot) {
	for i := 0; i < MaxClasses; i++ {
		if s.Comparisons[i] != 0 {
			l.comparisons[i].Add(s.Comparisons[i])
		}
		if s.MemoHits[i] != 0 {
			l.memoHits[i].Add(s.MemoHits[i])
		}
	}
	if s.Steps != 0 {
		l.steps.Add(s.Steps)
	}
}

// Reset empties the ledger. Not atomic with respect to concurrent writers;
// reset only between runs.
func (l *Ledger) Reset() {
	for i := 0; i < MaxClasses; i++ {
		l.comparisons[i].Store(0)
		l.memoHits[i].Store(0)
	}
	l.steps.Store(0)
}

// String renders a one-line summary.
func (l *Ledger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "naive=%d expert=%d steps=%d", l.Naive(), l.Expert(), l.Steps())
	if h := l.MemoHits(worker.Naive) + l.MemoHits(worker.Expert); h > 0 {
		fmt.Fprintf(&b, " memo=%d", h)
	}
	return b.String()
}
