package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"crowdmax/internal/cost"
	"crowdmax/internal/dataset"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/item"
	"crowdmax/internal/rng"
	"crowdmax/internal/tournament"
	"crowdmax/internal/worker"
)

// The comparison-sequence goldens: for every algorithm, every seed, and
// every termination mode (completion, budget exhaustion, mid-phase
// cancellation), a run must ask its comparators the exact sequence of pairs
// the per-group schedule of the paper's pseudo-code asks, and reach that
// schedule's answer, paid counts, memo hits and monetary cost, in the step
// count of one step per frontier wave.
//
// The constants were recorded at commit 891691f, the last commit that kept
// the per-group ("lockstep") schedule next to the dependency-DAG frontier:
// answer, paid counts, memo hits, cost and the sequence hash come from the
// per-group schedule, which the frontier matched on every case; steps are
// the frontier's. The trailing comment keeps the per-group step count.
//
// The workers are deliberately STATEFUL (stream-driven random
// tie-breaking): a reordered, dropped or duplicated comparison would
// desynchronize the tie stream and change the answer, and it would change
// the sequence hash in any case.

// schedOutcome fingerprints one run.
type schedOutcome struct {
	answer string // algorithm-specific answer, incl. error text; long ones hashed
	naive  int64
	expert int64
	memo   int64
	cost   float64
	seq    uint64 // FNV-1a of the (class, a, b) sequence the comparators were asked
	steps  int64
}

func (a schedOutcome) String() string {
	return fmt.Sprintf("{answer=%s naive=%d expert=%d memo=%d cost=%g seq=%#016x steps=%d}",
		a.answer, a.naive, a.expert, a.memo, a.cost, a.seq, a.steps)
}

// seqRecorder feeds every comparison it is asked into a shared hash, tagged
// with its worker class, before answering it through inner.
type seqRecorder struct {
	inner worker.Comparator
	class byte
	h     hash.Hash64
}

func (s *seqRecorder) Compare(a, b item.Item) item.Item {
	var buf [17]byte
	buf[0] = s.class
	binary.LittleEndian.PutUint64(buf[1:], uint64(int64(a.ID)))
	binary.LittleEndian.PutUint64(buf[9:], uint64(int64(b.ID)))
	s.h.Write(buf[:])
	return s.inner.Compare(a, b)
}

// schedRig is one run's fixture: fresh ledger, memoized oracles, and
// stateful seeded workers whose asks are hashed.
type schedRig struct {
	ledger *cost.Ledger
	naive  *tournament.Oracle
	expert *tournament.Oracle
	prices cost.Prices
	items  []item.Item
	r      *rng.Source
	seq    hash.Hash64
}

// newSchedRig builds the fixture for one seeded run. The naive comparator
// is wrapped by wrapNaive when non-nil (the cancellation tests hook call
// counting there).
func newSchedRig(seed uint64, n, un int, wrapNaive func(worker.Comparator) worker.Comparator) *schedRig {
	r := rng.New(seed)
	cal, err := dataset.UniformCalibrated(n, un, 1, r.Child("data"))
	if err != nil {
		panic(err)
	}
	deltaE, err := cal.Set.DeltaForU(min(3, n))
	if err != nil {
		panic(err)
	}
	seq := fnv.New64a()
	ledger := cost.NewLedger()
	var nw worker.Comparator = &seqRecorder{inner: &worker.Threshold{Delta: cal.DeltaN, Tie: worker.RandomTie{R: r.Child("naive")}, R: r.Child("nw")}, class: 0, h: seq}
	if wrapNaive != nil {
		nw = wrapNaive(nw)
	}
	ew := &seqRecorder{inner: &worker.Threshold{Delta: deltaE, Tie: worker.RandomTie{R: r.Child("expert")}, R: r.Child("ew")}, class: 1, h: seq}
	return &schedRig{
		ledger: ledger,
		naive:  tournament.NewOracle(nw, worker.Naive, ledger, tournament.NewMemo()),
		expert: tournament.NewOracle(ew, worker.Expert, ledger, tournament.NewMemo()),
		prices: cost.Prices{Naive: 1, Expert: 25},
		items:  cal.Set.Items(),
		r:      r,
		seq:    seq,
	}
}

// outcome closes the run: answer fingerprint plus the ledger readings.
func (rig *schedRig) outcome(answer string) schedOutcome {
	if len(answer) > 64 {
		h := fnv.New64a()
		h.Write([]byte(answer))
		answer = fmt.Sprintf("fnv:%#016x", h.Sum64())
	}
	return schedOutcome{
		answer: answer,
		naive:  rig.ledger.Naive(),
		expert: rig.ledger.Expert(),
		memo:   rig.ledger.MemoHits(worker.Naive) + rig.ledger.MemoHits(worker.Expert),
		cost:   rig.ledger.Cost(rig.prices),
		seq:    rig.seq.Sum64(),
		steps:  rig.ledger.Steps(),
	}
}

// fpItems fingerprints an item list order-sensitively.
func fpItems(items []item.Item) string {
	s := "["
	for _, it := range items {
		s += fmt.Sprintf("%d,", it.ID)
	}
	return s + "]"
}

// fpErr appends an error to a fingerprint so error paths must match too.
func fpErr(s string, err error) string {
	if err != nil {
		return s + "|err:" + err.Error()
	}
	return s
}

// assertGolden runs fn for seeds 1..seeds and requires each outcome to
// equal its recorded golden.
func assertGolden(t *testing.T, name string, seeds int, fn func(seed uint64) schedOutcome) {
	t.Helper()
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		key := fmt.Sprintf("%s/seed=%d", name, seed)
		want, ok := schedGoldens[key]
		if !ok {
			t.Fatalf("no golden recorded for %s", key)
		}
		if got := fn(seed); got != want {
			t.Fatalf("%s diverged from the recorded sequence\n  got  %s\n  want %s", key, got, want)
		}
	}
}

func TestSchedEquivFilter(t *testing.T) {
	for _, track := range []bool{false, true} {
		t.Run(fmt.Sprintf("trackLosses=%v", track), func(t *testing.T) {
			assertGolden(t, fmt.Sprintf("filter/trackLosses=%v", track), 8, func(seed uint64) schedOutcome {
				rig := newSchedRig(seed, 150+int(seed)*31, 4, nil)
				out, err := Filter(context.Background(), rig.items, rig.naive, FilterOptions{Un: 4, TrackLosses: track})
				return rig.outcome(fpErr(fpItems(out), err))
			})
		})
	}
}

func TestSchedEquivTwoMaxFind(t *testing.T) {
	assertGolden(t, "2maxfind", 8, func(seed uint64) schedOutcome {
		rig := newSchedRig(seed, 60+int(seed)*17, 4, nil)
		best, err := TwoMaxFind(context.Background(), rig.items, rig.expert)
		return rig.outcome(fpErr(fmt.Sprintf("best=%d", best.ID), err))
	})
}

func TestSchedEquivRandomized(t *testing.T) {
	assertGolden(t, "randomized", 6, func(seed uint64) schedOutcome {
		rig := newSchedRig(seed, 120+int(seed)*23, 4, nil)
		best, err := RandomizedMaxFind(context.Background(), rig.items, rig.expert, RandomizedOptions{R: rig.r.Child("p2")})
		return rig.outcome(fpErr(fmt.Sprintf("best=%d", best.ID), err))
	})
}

func TestSchedEquivFindMaxAllPhase2s(t *testing.T) {
	for _, p2 := range []Phase2Algorithm{Phase2TwoMaxFind, Phase2Randomized, Phase2AllPlayAll} {
		t.Run(p2.String(), func(t *testing.T) {
			assertGolden(t, "findmax/"+p2.String(), 6, func(seed uint64) schedOutcome {
				rig := newSchedRig(seed, 140+int(seed)*29, 4, nil)
				res, err := FindMax(context.Background(), rig.items, rig.naive, rig.expert, FindMaxOptions{
					Un:         4,
					Phase2:     p2,
					Randomized: RandomizedOptions{R: rig.r.Child("p2")},
				})
				return rig.outcome(fpErr(fmt.Sprintf("best=%d cand=%s", res.Best.ID, fpItems(res.Candidates)), err))
			})
		})
	}
}

func TestSchedEquivTopK(t *testing.T) {
	assertGolden(t, "topk", 4, func(seed uint64) schedOutcome {
		rig := newSchedRig(seed, 90+int(seed)*13, 3, nil)
		top, err := TopK(context.Background(), rig.items, rig.naive, rig.expert, TopKOptions{K: 3, U: 3, TrackLosses: true})
		return rig.outcome(fpErr(fpItems(top), err))
	})
}

func TestSchedEquivBudgetExhaustion(t *testing.T) {
	// A hard comparison budget truncates the run mid-wave. Charging goes
	// pair by pair in sequence order, so the run must exhaust at the
	// recorded comparison and return the recorded partial result.
	assertGolden(t, "budget", 6, func(seed uint64) schedOutcome {
		rig := newSchedRig(seed, 150+int(seed)*31, 4, nil)
		budget := dispatch.NewBudget(dispatch.Limits{
			MaxNaive:  900 + int64(seed)*137,
			MaxExpert: 40,
		})
		rig.naive.WithBudget(budget)
		rig.expert.WithBudget(budget)
		res, err := FindMax(context.Background(), rig.items, rig.naive, rig.expert, FindMaxOptions{Un: 4})
		if !errors.Is(err, dispatch.ErrBudgetExhausted) {
			t.Fatalf("seed %d: want ErrBudgetExhausted, got %v", seed, err)
		}
		return rig.outcome(fpErr(fmt.Sprintf("best=%d cand=%s", res.Best.ID, fpItems(res.Candidates)), err))
	})
}

// cancelAfter cancels a context after exactly limit comparator calls,
// modelling a mid-phase shutdown at a deterministic point.
type cancelAfter struct {
	inner  worker.Comparator
	calls  int
	limit  int
	cancel context.CancelFunc
}

func (c *cancelAfter) Compare(a, b item.Item) item.Item {
	c.calls++
	if c.calls == c.limit {
		c.cancel()
	}
	return c.inner.Compare(a, b)
}

func TestSchedEquivMidPhaseCancellation(t *testing.T) {
	// Cancellation fires after a fixed number of naive comparisons — mid
	// filter iteration. Every later ask fails its ctx check, so the run
	// must truncate at the recorded comparison index with the recorded
	// partial survivor state and billing.
	assertGolden(t, "cancel", 6, func(seed uint64) schedOutcome {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rig := newSchedRig(seed, 150+int(seed)*31, 4, func(inner worker.Comparator) worker.Comparator {
			return &cancelAfter{inner: inner, limit: 700 + int(seed)*101, cancel: cancel}
		})
		res, err := FindMax(ctx, rig.items, rig.naive, rig.expert, FindMaxOptions{Un: 4})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: want context.Canceled, got %v", seed, err)
		}
		return rig.outcome(fpErr(fmt.Sprintf("best=%d cand=%s", res.Best.ID, fpItems(res.Candidates)), err))
	})
}

// TestSchedDAGReducesFilterSteps pins the frontier's point on a multi-group
// filter instance (600 elements in groups of 16, ~38 groups in iteration
// one alone): 4 logical steps, one per iteration, where one batch per group
// took 52 — while asking the recorded comparison sequence.
func TestSchedDAGReducesFilterSteps(t *testing.T) {
	assertGolden(t, "filter-n600", 1, func(uint64) schedOutcome {
		rig := newSchedRig(42, 600, 4, nil)
		out, err := Filter(context.Background(), rig.items, rig.naive, FilterOptions{Un: 4})
		return rig.outcome(fpErr(fpItems(out), err))
	})
}

// schedGoldens holds the recorded outcomes, keyed "<case>/seed=<n>".
var schedGoldens = map[string]schedOutcome{
	"2maxfind/seed=1":                 {answer: "best=8", naive: 0, expert: 104, memo: 0, cost: 2600, seq: 0x15a56d498a51d841, steps: 2},                                           // per-group steps 2
	"2maxfind/seed=2":                 {answer: "best=26", naive: 0, expert: 157, memo: 8, cost: 3925, seq: 0xfdb1fd52a6f4bbbc, steps: 3},                                          // per-group steps 3
	"2maxfind/seed=3":                 {answer: "best=91", naive: 0, expert: 155, memo: 1, cost: 3875, seq: 0x57987ae2480ec08e, steps: 2},                                          // per-group steps 2
	"2maxfind/seed=4":                 {answer: "best=92", naive: 0, expert: 227, memo: 10, cost: 5675, seq: 0xe2ae57e148e9b7ee, steps: 3},                                         // per-group steps 3
	"2maxfind/seed=5":                 {answer: "best=42", naive: 0, expert: 238, memo: 8, cost: 5950, seq: 0xd15cd761b293a6d5, steps: 3},                                          // per-group steps 3
	"2maxfind/seed=6":                 {answer: "best=17", naive: 0, expert: 237, memo: 5, cost: 5925, seq: 0x48cef0c52ba1bb69, steps: 3},                                          // per-group steps 3
	"2maxfind/seed=7":                 {answer: "best=177", naive: 0, expert: 337, memo: 14, cost: 8425, seq: 0x5e47b73552bd436c, steps: 4},                                        // per-group steps 4
	"2maxfind/seed=8":                 {answer: "best=130", naive: 0, expert: 273, memo: 1, cost: 6825, seq: 0x98058d41c6803ecc, steps: 2},                                         // per-group steps 2
	"budget/seed=1":                   {answer: "fnv:0x616f34f38f12df94", naive: 1037, expert: 0, memo: 0, cost: 1037, seq: 0x3a1c772ab865cac5, steps: 1},                          // per-group steps 9
	"budget/seed=2":                   {answer: "fnv:0x35680047fb0b40b9", naive: 1174, expert: 0, memo: 0, cost: 1174, seq: 0xd5bc50b8511ba63c, steps: 1},                          // per-group steps 10
	"budget/seed=3":                   {answer: "fnv:0xc72063da2d7388fd", naive: 1311, expert: 0, memo: 0, cost: 1311, seq: 0x0dcccc7073a760e4, steps: 1},                          // per-group steps 11
	"budget/seed=4":                   {answer: "fnv:0x9b393b3b1de78056", naive: 1448, expert: 0, memo: 0, cost: 1448, seq: 0x204f039e3b1d00d5, steps: 1},                          // per-group steps 13
	"budget/seed=5":                   {answer: "fnv:0x90f32f261876953c", naive: 1585, expert: 0, memo: 0, cost: 1585, seq: 0x85c784f3a5bf18b8, steps: 1},                          // per-group steps 14
	"budget/seed=6":                   {answer: "fnv:0x4b08a83c94d515d8", naive: 1722, expert: 0, memo: 0, cost: 1722, seq: 0x0305533013fea57d, steps: 1},                          // per-group steps 15
	"cancel/seed=1":                   {answer: "fnv:0x8356906089d8e88b", naive: 801, expert: 0, memo: 0, cost: 801, seq: 0x4720af4f8d21d041, steps: 1},                            // per-group steps 7
	"cancel/seed=2":                   {answer: "fnv:0x95cffb86d807c67c", naive: 902, expert: 0, memo: 0, cost: 902, seq: 0xd2144da6619c4581, steps: 1},                            // per-group steps 8
	"cancel/seed=3":                   {answer: "fnv:0x69994c0adfbfa79b", naive: 1003, expert: 0, memo: 0, cost: 1003, seq: 0x2d2f1edf8196c490, steps: 1},                          // per-group steps 9
	"cancel/seed=4":                   {answer: "fnv:0xf26640b073355573", naive: 1104, expert: 0, memo: 0, cost: 1104, seq: 0xf5ca69c7c2329c46, steps: 1},                          // per-group steps 10
	"cancel/seed=5":                   {answer: "fnv:0x3f6aa6b4fd35ca7d", naive: 1205, expert: 0, memo: 0, cost: 1205, seq: 0x534e9d6b83b593ba, steps: 1},                          // per-group steps 11
	"cancel/seed=6":                   {answer: "fnv:0x6c0ed61ab0555d00", naive: 1306, expert: 0, memo: 0, cost: 1306, seq: 0x027c9d7f6b87c281, steps: 1},                          // per-group steps 11
	"filter-n600/seed=1":              {answer: "[4,169,515,532,]", naive: 5604, expert: 0, memo: 306, cost: 5604, seq: 0x715db4fa21da87e1, steps: 4},                              // per-group steps 52
	"filter/trackLosses=false/seed=1": {answer: "[106,127,158,]", naive: 1667, expert: 0, memo: 89, cost: 1667, seq: 0xffe714da901adc67, steps: 3},                                 // per-group steps 16
	"filter/trackLosses=false/seed=2": {answer: "[26,144,188,199,202,208,]", naive: 1963, expert: 0, memo: 105, cost: 1963, seq: 0x9142ccfccb65a738, steps: 3},                     // per-group steps 18
	"filter/trackLosses=false/seed=3": {answer: "[2,23,91,127,]", naive: 2271, expert: 0, memo: 114, cost: 2271, seq: 0xefe39b67410edea3, steps: 3},                                // per-group steps 20
	"filter/trackLosses=false/seed=4": {answer: "[34,92,142,211,]", naive: 2547, expert: 0, memo: 146, cost: 2547, seq: 0x86b597d64efeb0d1, steps: 4},                              // per-group steps 25
	"filter/trackLosses=false/seed=5": {answer: "[42,113,296,299,303,]", naive: 2840, expert: 0, memo: 144, cost: 2840, seq: 0x113781a672e32127, steps: 4},                         // per-group steps 27
	"filter/trackLosses=false/seed=6": {answer: "[105,106,165,182,]", naive: 3125, expert: 0, memo: 158, cost: 3125, seq: 0x1a35435aab87fc95, steps: 4},                            // per-group steps 29
	"filter/trackLosses=false/seed=7": {answer: "[77,108,215,312,353,356,364,]", naive: 3385, expert: 0, memo: 174, cost: 3385, seq: 0x02dbf344c1db411b, steps: 3},                 // per-group steps 31
	"filter/trackLosses=false/seed=8": {answer: "[33,130,218,242,266,289,386,]", naive: 3694, expert: 0, memo: 183, cost: 3694, seq: 0xdb6e3f1f52ac39b3, steps: 3},                 // per-group steps 33
	"filter/trackLosses=true/seed=1":  {answer: "[106,127,]", naive: 1661, expert: 0, memo: 84, cost: 1661, seq: 0x1decffa02ed2c748, steps: 3},                                     // per-group steps 16
	"filter/trackLosses=true/seed=2":  {answer: "[26,144,188,199,202,208,]", naive: 1963, expert: 0, memo: 105, cost: 1963, seq: 0x9142ccfccb65a738, steps: 3},                     // per-group steps 18
	"filter/trackLosses=true/seed=3":  {answer: "[2,23,91,127,]", naive: 2271, expert: 0, memo: 114, cost: 2271, seq: 0xefe39b67410edea3, steps: 3},                                // per-group steps 20
	"filter/trackLosses=true/seed=4":  {answer: "[34,92,142,211,]", naive: 2547, expert: 0, memo: 146, cost: 2547, seq: 0x86b597d64efeb0d1, steps: 4},                              // per-group steps 25
	"filter/trackLosses=true/seed=5":  {answer: "[42,113,296,299,303,]", naive: 2840, expert: 0, memo: 144, cost: 2840, seq: 0x113781a672e32127, steps: 4},                         // per-group steps 27
	"filter/trackLosses=true/seed=6":  {answer: "[105,106,165,182,]", naive: 3125, expert: 0, memo: 158, cost: 3125, seq: 0x1a35435aab87fc95, steps: 4},                            // per-group steps 29
	"filter/trackLosses=true/seed=7":  {answer: "[77,108,215,312,353,356,364,]", naive: 3385, expert: 0, memo: 174, cost: 3385, seq: 0x02dbf344c1db411b, steps: 3},                 // per-group steps 31
	"filter/trackLosses=true/seed=8":  {answer: "[33,130,218,242,266,289,386,]", naive: 3694, expert: 0, memo: 183, cost: 3694, seq: 0xdb6e3f1f52ac39b3, steps: 3},                 // per-group steps 33
	"findmax/2-MaxFind/seed=1":        {answer: "best=106 cand=[23,106,158,]", naive: 1533, expert: 2, memo: 87, cost: 1583, seq: 0xddd9835d6e99b74f, steps: 5},                    // per-group steps 17
	"findmax/2-MaxFind/seed=2":        {answer: "best=188 cand=[26,64,144,188,]", naive: 1833, expert: 3, memo: 103, cost: 1908, seq: 0x472bc89e8850d538, steps: 5},                // per-group steps 20
	"findmax/2-MaxFind/seed=3":        {answer: "best=2 cand=[2,23,127,148,]", naive: 2107, expert: 3, memo: 108, cost: 2182, seq: 0x0483be1813174f61, steps: 5},                   // per-group steps 21
	"findmax/2-MaxFind/seed=4":        {answer: "best=92 cand=[34,92,142,187,211,]", naive: 2388, expert: 5, memo: 117, cost: 2513, seq: 0xad53cad72e914136, steps: 5},             // per-group steps 23
	"findmax/2-MaxFind/seed=5":        {answer: "best=42 cand=[42,55,113,184,268,270,275,]", naive: 2617, expert: 7, memo: 129, cost: 2792, seq: 0xe961b5d588dba748, steps: 5},     // per-group steps 26
	"findmax/2-MaxFind/seed=6":        {answer: "best=106 cand=[105,106,165,182,291,299,312,]", naive: 2914, expert: 7, memo: 131, cost: 3089, seq: 0x9b1e235f07acb68b, steps: 5},  // per-group steps 28
	"findmax/all-play-all/seed=1":     {answer: "best=106 cand=[23,106,158,]", naive: 1533, expert: 3, memo: 87, cost: 1608, seq: 0x89542515ca64811d, steps: 4},                    // per-group steps 16
	"findmax/all-play-all/seed=2":     {answer: "best=188 cand=[26,64,144,188,]", naive: 1833, expert: 6, memo: 102, cost: 1983, seq: 0x68d7fcb15e87b2f5, steps: 4},                // per-group steps 19
	"findmax/all-play-all/seed=3":     {answer: "best=2 cand=[2,23,127,148,]", naive: 2107, expert: 6, memo: 108, cost: 2257, seq: 0x9c1673d1c4d73800, steps: 4},                   // per-group steps 20
	"findmax/all-play-all/seed=4":     {answer: "best=92 cand=[34,92,142,187,211,]", naive: 2388, expert: 10, memo: 117, cost: 2638, seq: 0x83928894f9e50e3d, steps: 4},            // per-group steps 22
	"findmax/all-play-all/seed=5":     {answer: "best=42 cand=[42,55,113,184,268,270,275,]", naive: 2617, expert: 21, memo: 129, cost: 3142, seq: 0xf161672ce7d1585c, steps: 4},    // per-group steps 25
	"findmax/all-play-all/seed=6":     {answer: "best=105 cand=[105,106,165,182,291,299,312,]", naive: 2914, expert: 21, memo: 131, cost: 3439, seq: 0xd45ab8e2e5064842, steps: 4}, // per-group steps 27
	"findmax/randomized/seed=1":       {answer: "best=23 cand=[23,106,158,]", naive: 1533, expert: 3, memo: 91, cost: 1608, seq: 0xeda2cd9ad9ee84e3, steps: 4},                     // per-group steps 16
	"findmax/randomized/seed=2":       {answer: "best=144 cand=[26,64,144,188,]", naive: 1833, expert: 6, memo: 109, cost: 1983, seq: 0xf8682d5bf4348735, steps: 4},                // per-group steps 19
	"findmax/randomized/seed=3":       {answer: "best=2 cand=[2,23,127,148,]", naive: 2107, expert: 6, memo: 118, cost: 2257, seq: 0xa296271b90b87000, steps: 4},                   // per-group steps 20
	"findmax/randomized/seed=4":       {answer: "best=211 cand=[34,92,142,187,211,]", naive: 2388, expert: 10, memo: 137, cost: 2638, seq: 0x443e989cfb4f6143, steps: 4},           // per-group steps 22
	"findmax/randomized/seed=5":       {answer: "best=113 cand=[42,55,113,184,268,270,275,]", naive: 2617, expert: 21, memo: 174, cost: 3142, seq: 0xf3b337db193410ae, steps: 4},   // per-group steps 25
	"findmax/randomized/seed=6":       {answer: "best=105 cand=[105,106,165,182,291,299,312,]", naive: 2914, expert: 21, memo: 181, cost: 3439, seq: 0x62a19b5a305bc7be, steps: 4}, // per-group steps 27
	"randomized/seed=1":               {answer: "best=106", naive: 0, expert: 10153, memo: 484084, cost: 253825, seq: 0xe64e128d84f0deb8, steps: 1},                                // per-group steps 1
	"randomized/seed=2":               {answer: "best=26", naive: 0, expert: 13695, memo: 757561, cost: 342375, seq: 0x48da52a3c88195ef, steps: 1},                                 // per-group steps 1
	"randomized/seed=3":               {answer: "best=2", naive: 0, expert: 17766, memo: 1119339, cost: 444150, seq: 0x90df2b0cce57804b, steps: 1},                                 // per-group steps 1
	"randomized/seed=4":               {answer: "best=142", naive: 0, expert: 22366, memo: 1581900, cost: 559150, seq: 0x6daeeb84fe67f31f, steps: 1},                               // per-group steps 1
	"randomized/seed=5":               {answer: "best=42", naive: 0, expert: 27495, memo: 2156335, cost: 687375, seq: 0x02ae65811e30f8a8, steps: 1},                                // per-group steps 1
	"randomized/seed=6":               {answer: "best=182", naive: 0, expert: 32875, memo: 2552715, cost: 821875, seq: 0x6f319f3a05d56523, steps: 5},                               // per-group steps 7
	"topk/seed=1":                     {answer: "[80,23,8,]", naive: 820, expert: 5, memo: 1317, cost: 945, seq: 0x7cfb8e049330da28, steps: 13},                                    // per-group steps 30
	"topk/seed=2":                     {answer: "[26,113,64,]", naive: 886, expert: 4, memo: 1450, cost: 986, seq: 0x5a88ccec383f3e30, steps: 12},                                  // per-group steps 30
	"topk/seed=3":                     {answer: "[2,127,23,]", naive: 1006, expert: 5, memo: 1673, cost: 1131, seq: 0xe54f8fc6e16aa071, steps: 13},                                 // per-group steps 35
	"topk/seed=4":                     {answer: "[92,34,93,]", naive: 1135, expert: 4, memo: 1832, cost: 1235, seq: 0xc1c0fc706cf4f0ee, steps: 13},                                 // per-group steps 39
}
