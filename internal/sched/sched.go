// Package sched implements the dependency-DAG comparison scheduler every
// algorithm of the repository runs on.
//
// The paper measures an algorithm's latency in logical steps — the batch
// rounds of Venetis et al.'s execution model. The paper's pseudo-code
// submits one batch per tournament group, which serializes work that has no
// data dependency: the groups of one filter iteration are independent of
// each other, and a pivot pass depends on its pivot's crowning, not on every
// comparison of the previous round. Following the round-complexity view of
// Braverman–Mao–Weinberg (Parallel Algorithms for Select and Partition with
// Noisy Comparisons), this package schedules comparisons as a dependency DAG
// instead: nodes are comparison groups (a tournament, a pivot pass, raw
// pairs), edges are true data dependencies (a node is created only once its
// inputs exist), and a work-frontier dispatcher drains every ready node as
// one wave — one logical step — so every comparison that can be in flight
// is.
//
// # Comparison sequence
//
// Within one wave, ready nodes are answered in enqueue order, each node's
// pairs in the order of the tournament helpers (AppendAllPairs,
// AppendPivotPairs). On the element-wise dispatch path the underlying
// comparator (or backend) is therefore asked exactly the sequence the
// per-group schedule of the paper's pseudo-code asks — answers, paid counts
// and monetary cost are identical to it, including the truncation point
// under budget exhaustion or cancellation; only the step count falls to one
// per wave. internal/core's golden tests pin these sequences. A Batched
// oracle (one over the platform simulator) receives each wave as a single
// batch; with a hard budget attached, the platform's all-or-nothing
// admission unit is one wave.
//
// # Allocation
//
// A node records what to ask, not the pairs: the element-wise path writes
// one node's pairs at a time into a reused buffer and answers them in one
// pass, and the node is scored at once, so the pair and winner buffers need
// only one node's length. The state-changing completion hooks still fire
// after the whole wave. Steady-state dispatch performs no per-wave
// allocations beyond what the algorithm's own bookkeeping requires (see
// TestFrontierReusesBuffersAcrossWaves and the allocs/op tests in
// internal/tournament).
package sched

import (
	"context"

	"crowdmax/internal/item"
	"crowdmax/internal/obs"
	"crowdmax/internal/tournament"
)

// nodeKind is what a node asks.
type nodeKind uint8

const (
	rawPairs   nodeKind = iota // pairs, as given
	roundRobin                 // every pair of items
	pivotPass                  // pivot against every item but itself
)

// node is one scheduled comparison group: what to ask, the completion hook
// of its kind, and its scored result between answering and the hook. A node
// exists only once its data dependencies are resolved — enqueueing is how
// edges are expressed — so the ready queue is always a frontier of the DAG.
type node struct {
	kind  nodeKind
	items []item.Item // round-robin participants or pivot candidates
	pivot item.Item
	pairs [][2]item.Item // raw pairs
	opts  tournament.RoundRobinOpts

	onPairs func(winners []item.Item) error
	onRR    func(tournament.Result) error
	onPivot func(survivors []item.Item, eliminated []int) error

	res        tournament.Result
	survivors  []item.Item
	eliminated []int
	off, n     int // the node's window of a Batched wave's pairs, then of rawWinners
}

// appendPairs appends the node's comparison sequence to buf.
func (nd *node) appendPairs(buf [][2]item.Item) [][2]item.Item {
	switch nd.kind {
	case roundRobin:
		return tournament.AppendAllPairs(buf, nd.items)
	case pivotPass:
		return tournament.AppendPivotPairs(buf, nd.pivot, nd.items)
	default:
		return append(buf, nd.pairs...)
	}
}

// Frontier is the work-frontier dispatcher: algorithms enqueue data-ready
// comparison groups, Run answers each wave of ready groups as one logical
// step, and each group's completion hook may enqueue the successor groups
// its results unlock. Not safe for concurrent use; completion hooks run
// sequentially in enqueue order on the Run goroutine, so algorithm state
// needs no locking.
type Frontier struct {
	o *Oracle

	// cur holds the draining wave while next accumulates its successors.
	cur, next  []node
	pairs      [][2]item.Item // one node's pairs (a whole wave's when Batched)
	winners    []item.Item    // parallel to pairs
	rawWinners []item.Item    // the wave's raw-pair winners, kept for the hooks
	scratch    tournament.BatchScratch
	waves      int
}

// Oracle is the comparison source a Frontier drains into; it is the
// tournament Oracle, aliased to keep call sites short.
type Oracle = tournament.Oracle

// NewFrontier returns an empty frontier dispatching into o.
func NewFrontier(o *Oracle) *Frontier { return &Frontier{o: o} }

// Waves returns the number of logical steps dispatched so far: the length
// of the longest dependency chain among the groups executed, which is the
// paper's round-latency measure for the scheduled portion of a run.
func (f *Frontier) Waves() int { return f.waves }

// AddPairs schedules a raw comparison group: pairs are asked in the next
// wave and done receives the winners, parallel to pairs. pairs is read when
// the wave runs, so the caller must not change it before then; the winners
// slice passed to done is only valid during the call.
func (f *Frontier) AddPairs(pairs [][2]item.Item, done func(winners []item.Item) error) {
	f.next = append(f.next, node{kind: rawPairs, pairs: pairs, onPairs: done})
}

// AddRoundRobin schedules an all-play-all tournament among items as one
// group, with the same pair order, scoring and observability as
// tournament.RoundRobin; done receives the scored Result.
func (f *Frontier) AddRoundRobin(items []item.Item, opts tournament.RoundRobinOpts, done func(tournament.Result) error) {
	if m := obs.Active(); m != nil {
		m.ObserveGroup(len(items))
	}
	f.next = append(f.next, node{kind: roundRobin, items: items, opts: opts, onRR: done})
}

// AddPivot schedules a pivot elimination pass — x against every candidate
// but itself, scored by tournament.ScorePivot — as one group; done receives
// the survivors and eliminated IDs.
func (f *Frontier) AddPivot(x item.Item, candidates []item.Item, done func(survivors []item.Item, eliminated []int) error) {
	f.next = append(f.next, node{kind: pivotPass, pivot: x, items: candidates, onPivot: done})
}

// Run drains the DAG: each iteration swaps the accumulated ready set in as
// the current wave, answers and scores its nodes, bills one logical step if
// the wave sent any comparison, then fires the completion hooks in enqueue
// order (each may enqueue successors into the next wave). Run returns when
// no ready groups remain, or with the first error — a failed wave's hooks
// never run, so algorithm state always reflects the last fully completed
// join.
func (f *Frontier) Run(ctx context.Context) error {
	for len(f.next) > 0 {
		f.cur, f.next = f.next, f.cur[:0]
		f.rawWinners = f.rawWinners[:0]
		var err error
		if f.o.Batched() {
			err = f.answerWave(ctx)
		} else {
			err = f.answerNodes(ctx)
		}
		if err != nil {
			return err
		}
		f.waves++
		for i := range f.cur {
			if err := f.fire(&f.cur[i]); err != nil {
				return err
			}
		}
		clear(f.cur) // drop the wave's results and hooks
	}
	return nil
}

// answerNodes answers the wave node by node on the element-wise path: one
// node's pairs at a time in the reused buffer, each node scored as soon as
// it is answered. The wave shares one step flag, so it bills one step.
func (f *Frontier) answerNodes(ctx context.Context) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	stepped := false
	for i := range f.cur {
		nd := &f.cur[i]
		pairs := nd.pairs
		if nd.kind != rawPairs {
			f.pairs = nd.appendPairs(f.pairs[:0])
			pairs = f.pairs
		}
		winners := f.winnersFor(len(pairs))
		if err := f.o.AnswerInto(ctx, pairs, winners, &stepped); err != nil {
			return err
		}
		f.score(nd, winners)
	}
	return nil
}

// answerWave hands a Batched oracle the whole wave as one CompareBatchInto
// call — one platform batch, one logical step — then scores each node from
// its window of the winners.
func (f *Frontier) answerWave(ctx context.Context) error {
	f.pairs = f.pairs[:0]
	for i := range f.cur {
		off := len(f.pairs)
		f.pairs = f.cur[i].appendPairs(f.pairs)
		f.cur[i].off, f.cur[i].n = off, len(f.pairs)-off
	}
	winners := f.winnersFor(len(f.pairs))
	if err := f.o.CompareBatchInto(ctx, f.pairs, winners, &f.scratch); err != nil {
		return err
	}
	for i := range f.cur {
		nd := &f.cur[i]
		f.score(nd, winners[nd.off:nd.off+nd.n])
	}
	return nil
}

// winnersFor returns the reused winners buffer resized to n.
func (f *Frontier) winnersFor(n int) []item.Item {
	if cap(f.winners) < n {
		f.winners = make([]item.Item, n)
	}
	f.winners = f.winners[:n]
	return f.winners
}

// score turns a node's winners into its result, held until its hook fires.
func (f *Frontier) score(nd *node, winners []item.Item) {
	switch nd.kind {
	case roundRobin:
		nd.res = tournament.ScoreRoundRobin(nd.items, winners, nd.opts)
	case pivotPass:
		nd.survivors, nd.eliminated = tournament.ScorePivot(nd.pivot, nd.items, winners)
	default:
		nd.off, nd.n = len(f.rawWinners), len(winners)
		f.rawWinners = append(f.rawWinners, winners...)
	}
}

// fire runs a node's completion hook on its scored result.
func (f *Frontier) fire(nd *node) error {
	switch nd.kind {
	case roundRobin:
		return nd.onRR(nd.res)
	case pivotPass:
		return nd.onPivot(nd.survivors, nd.eliminated)
	default:
		return nd.onPairs(f.rawWinners[nd.off : nd.off+nd.n])
	}
}
