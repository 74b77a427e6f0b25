package core

import (
	"context"
	"math"

	"crowdmax/internal/cost"
	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/sched"
	"crowdmax/internal/tournament"
)

// twoMaxState carries one 2-MaxFind run's loop state.
type twoMaxState struct {
	k          int
	sc         *obs.Scope
	candidates []item.Item
	leader     item.Item
	round      int
	beaten     map[int]bool // reused across rounds
}

// crownPivot scores a sample tournament: the top-by-wins element becomes the
// round's pivot/leader, and x's tournament victims are removed from the
// candidate set directly — those comparisons were already performed and must
// not be re-asked (their answers could flip below the threshold). Returns
// the remaining candidates the pivot pass runs over.
func (st *twoMaxState) crownPivot(sample []item.Item, res tournament.Result) (item.Item, []item.Item) {
	x := res.TopByWins()
	st.leader = x
	if st.beaten == nil {
		st.beaten = make(map[int]bool, len(sample))
	} else {
		clear(st.beaten)
	}
	for i := range sample {
		for _, w := range res.Losers[i] {
			if w == x.ID {
				st.beaten[sample[i].ID] = true
			}
		}
	}
	remaining := st.candidates[:0]
	for _, c := range st.candidates {
		if !st.beaten[c.ID] {
			remaining = append(remaining, c)
		}
	}
	return x, remaining
}

// finishRound folds a pivot pass's survivors back into the loop state.
func (st *twoMaxState) finishRound(before int, survivors []item.Item) {
	st.candidates = survivors
	if st.sc != nil {
		st.sc.Round()
		st.sc.Event("2maxfind.round",
			obs.Fi("round", int64(st.round)), obs.Fi("candidates", int64(before)),
			obs.Fi("survivors", int64(len(survivors))))
	}
	st.round++
}

// TwoMaxFind is Algorithm 3 (2-MaxFind, from Ajtai et al. Section 3.1): a
// deterministic max-finding algorithm that, under the threshold model
// T(δ, 0), returns an element within 2δ of the maximum using O(s^{3/2})
// comparisons on s elements.
//
// While more than ⌈√s⌉ candidates remain, an arbitrary set of ⌈√s⌉
// candidates plays an all-play-all tournament; the element x with the most
// wins is compared against every candidate, and candidates losing to x are
// eliminated. A final all-play-all tournament among the at most ⌈√s⌉
// survivors returns the element with the most wins.
//
// The sample-tournament results are reused in the elimination pass (the
// first Appendix A optimization): besides saving comparisons, this is what
// guarantees progress — and hence the O(s^{3/2}) bound — even against
// adversarial tie-breaking, because x's tournament victims stay eliminated.
//
// 2-MaxFind is a true dependency chain — the pivot pass needs the sample
// tournament's winner, and the next round's sample needs the pivot pass's
// survivors — so unlike Filter there is no round merging: the comparison
// scheduler dispatches two steps per round, its dependency edges expressing
// the chain.
//
// On cancellation or budget exhaustion the current leader — the most recent
// round's pivot, i.e. the best element identified so far — is returned
// alongside the error, so a truncated run still yields a usable answer.
func TwoMaxFind(ctx context.Context, items []item.Item, o *tournament.Oracle) (item.Item, error) {
	s := len(items)
	if s == 0 {
		return item.Item{}, ErrNoItems
	}
	if s == 1 {
		return items[0], nil
	}
	k := int(math.Ceil(math.Sqrt(float64(s))))
	if k < 2 {
		k = 2
	}
	sc := o.Obs().WithPhase(obs.PhaseTwoMaxFind)
	var startLedger cost.Snapshot
	if sc != nil {
		startLedger = o.LedgerSnapshot()
		sc.Event("2maxfind.start", obs.Fi("s", int64(s)), obs.Fi("k", int64(k)))
	}
	st := &twoMaxState{k: k, sc: sc, candidates: make([]item.Item, s)}
	copy(st.candidates, items)
	st.leader = st.candidates[0]

	final, err := twoMaxWaves(ctx, o, st)
	if err != nil {
		return st.leader, err
	}
	if sc != nil {
		d := o.LedgerSnapshot().Sub(startLedger)
		sc.PhaseComparisons(d.Comparisons)
		sc.Event("2maxfind.done",
			obs.Fi("rounds", int64(st.round)), obs.Fi("finalists", int64(len(st.candidates))),
			obs.Fi("comparisons", d.TotalComparisons()), obs.Fi("memo_hits", d.TotalMemoHits()))
	}
	return final.TopByWins(), nil
}

// twoMaxWaves runs the rounds on the work-frontier dispatcher: each
// completion hook enqueues the one successor its results unlock, so every
// wave holds exactly one node — the chain is the DAG's critical path.
func twoMaxWaves(ctx context.Context, o *tournament.Oracle, st *twoMaxState) (tournament.Result, error) {
	f := sched.NewFrontier(o)
	var final tournament.Result
	var enqueue func()
	enqueue = func() {
		if len(st.candidates) <= st.k {
			// The final tournament; its result is the answer.
			f.AddRoundRobin(st.candidates, tournament.RoundRobinOpts{}, func(res tournament.Result) error {
				final = res
				return nil
			})
			return
		}
		before := len(st.candidates)
		sample := st.candidates[:st.k]
		f.AddRoundRobin(sample, tournament.RoundRobinOpts{RecordLosers: true}, func(res tournament.Result) error {
			x, remaining := st.crownPivot(sample, res)
			f.AddPivot(x, remaining, func(survivors []item.Item, _ []int) error {
				st.finishRound(before, survivors)
				enqueue()
				return nil
			})
			return nil
		})
	}
	enqueue()
	if err := f.Run(ctx); err != nil {
		return tournament.Result{}, err
	}
	return final, nil
}
