// Package worker implements the paper's human-worker error models.
//
// The central model is the threshold model T(δ, ε) of Section 3.2: a worker
// comparing elements k, j returns the more valuable one with probability
// 1 − ε when d(k, j) > δ, and answers *arbitrarily* when d(k, j) ≤ δ. The
// arbitrary regime is the model's distinctive feature — unlike a purely
// probabilistic comparator, repetition and majority voting cannot recover
// the truth below the threshold. The probabilistic error model of prior work
// is the special case δ = 0.
//
// Section 3.3 splits the workforce into classes: naïve workers follow
// T(δn, εn) and experts follow T(δe, εe) with δe ≪ δn and εe ≤ εn. The
// package also provides the empirical pair-bias model used to reproduce
// Figure 2, spammer workers for the platform's quality-control experiments,
// and adversarial tie-breaking for worst-case analysis.
package worker

import (
	"fmt"
	"math"
	"sync"

	"crowdmax/internal/item"
	"crowdmax/internal/rng"
)

// Class identifies the billing/accuracy class of a worker. The paper uses
// two classes; higher values support the multi-class extension of
// Section 3.3 ("a natural extension models multiple classes of workers").
type Class int

// The two worker classes of the paper.
const (
	Naive Class = iota
	Expert
)

// String returns the lower-case class name.
func (c Class) String() string {
	switch c {
	case Naive:
		return "naive"
	case Expert:
		return "expert"
	default:
		return fmt.Sprintf("class%d", int(c))
	}
}

// Comparator is any source of answers to pairwise comparison tasks. Compare
// returns the element the worker believes has the larger value ("wins the
// comparison"). Implementations may be randomized and need not be
// consistent across repeated calls with the same arguments.
type Comparator interface {
	Compare(a, b item.Item) item.Item
}

// Func adapts a function to the Comparator interface.
type Func func(a, b item.Item) item.Item

// Compare calls f.
func (f Func) Compare(a, b item.Item) item.Item { return f(a, b) }

// Truth is the infallible comparator: it always returns the element with the
// larger value (the first argument on exact ties). It is the δ = 0, ε = 0
// limit of the threshold model and is used in tests and as a reference.
var Truth Comparator = Func(func(a, b item.Item) item.Item {
	if b.Value > a.Value {
		return b
	}
	return a
})

// TieBreaker decides comparisons between indistinguishable elements
// (d(a, b) ≤ δ), where the threshold model allows any behaviour.
type TieBreaker interface {
	// Pick returns the element reported as winner of an
	// under-threshold comparison.
	Pick(a, b item.Item) item.Item
}

// RandomTie answers under-threshold comparisons uniformly at random,
// independently at every call. This matches the paper's simulation setup:
// "When a worker is asked to rank a pair of elements whose value difference
// is below her threshold, each element is chosen as the answer with
// probability 1/2."
type RandomTie struct{ R *rng.Source }

// Pick returns a or b with probability 1/2 each.
func (t RandomTie) Pick(a, b item.Item) item.Item {
	if t.R.Bool() {
		return a
	}
	return b
}

// StickyTie answers under-threshold comparisons with a per-pair answer that
// is random on first encounter and repeated thereafter ("if asked multiple
// times to compare k and j, the worker may return k on some occasions and j
// in others, or always k or j" — this is the "always" variant). Safe for
// concurrent use.
type StickyTie struct {
	R  *rng.Source
	mu sync.Mutex
	m  map[[2]int]int // pair → winning ID
}

// NewStickyTie returns a StickyTie drawing first answers from r.
func NewStickyTie(r *rng.Source) *StickyTie {
	return &StickyTie{R: r, m: make(map[[2]int]int)}
}

// Pick returns the pair's sticky answer, drawing it on first use.
func (t *StickyTie) Pick(a, b item.Item) item.Item {
	k := pairKey(a.ID, b.ID)
	t.mu.Lock()
	w, ok := t.m[k]
	if !ok {
		w = a.ID
		if t.R.Bool() {
			w = b.ID
		}
		t.m[k] = w
	}
	t.mu.Unlock()
	if w == a.ID {
		return a
	}
	return b
}

// HashTie answers under-threshold comparisons with an unbiased coin that is
// a pure function of (Seed, pair): the same pair always gets the same
// answer, different pairs get (statistically) independent answers, and the
// outcome does not depend on when or from which goroutine the question is
// asked. It is the order-independent, stateless counterpart of StickyTie,
// and the tie policy that lets a resumed run replay a Threshold worker's
// answers bit-identically.
type HashTie struct {
	// Seed selects the coin family; two HashTies with the same seed agree
	// on every pair.
	Seed uint64
}

// Pick returns the pair's hashed answer; symmetric in its arguments.
func (t HashTie) Pick(a, b item.Item) item.Item {
	lo, hi := a, b
	if lo.ID > hi.ID {
		lo, hi = hi, lo
	}
	h := splitmix(t.Seed ^ splitmix(uint64(int64(lo.ID))) ^ splitmix(uint64(int64(hi.ID))*0x9e3779b97f4a7c15))
	if h&1 == 0 {
		return lo
	}
	return hi
}

// splitmix is the SplitMix64 finalizer, decorrelating structured inputs.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// AdversarialTie makes the *less* valuable element win every
// under-threshold comparison. This is the worst-case adversary of
// Section 5: in 2-MaxFind's elimination step it makes the pivot lose, so no
// indistinguishable candidate is ever eliminated, maximizing the number of
// comparisons; in phase 1 it makes the maximum lose every game the model
// allows it to lose.
type AdversarialTie struct{}

// Pick returns the element with the smaller value (the second on ties).
func (AdversarialTie) Pick(a, b item.Item) item.Item {
	if a.Value < b.Value {
		return a
	}
	return b
}

// FirstLosesTie makes the element presented first lose every
// under-threshold comparison. Algorithms present the pivot first in
// elimination passes (tournament.AppendPivotPairs pairs x with each
// candidate), so this is exactly the worst case of Section 5: "in all the
// comparisons of step 4 of Algorithm 3, whenever the difference is below
// the threshold, we make element x lose, such as to maximize the number of
// elements that go to the next round."
type FirstLosesTie struct{}

// Pick returns the second element.
func (FirstLosesTie) Pick(_, b item.Item) item.Item { return b }

// Threshold is a worker following the threshold model T(δ, ε).
// Above the threshold it errs with probability Epsilon; below, the Tie
// policy decides. The zero Epsilon, RandomTie configuration is the paper's
// simulation default.
//
// Compare touches R only when Epsilon > 0, so a Threshold with Epsilon == 0
// and a concurrency-safe, order-independent Tie (HashTie, AdversarialTie,
// FirstLosesTie) is itself safe for concurrent use and order-independent —
// the prerequisite for bit-identical resume and for sharing one worker
// across parallel trials.
type Threshold struct {
	// Delta is the discernment threshold δ ≥ 0.
	Delta float64
	// Epsilon is the residual error probability ε ∈ [0, 1) applied when
	// d(a, b) > δ.
	Epsilon float64
	// Tie decides under-threshold comparisons.
	Tie TieBreaker
	// R drives the residual-error coin flips.
	R *rng.Source
}

// NewThreshold returns a T(δ, ε) worker with uniformly random tie-breaking.
func NewThreshold(delta, epsilon float64, r *rng.Source) *Threshold {
	return &Threshold{Delta: delta, Epsilon: epsilon, Tie: RandomTie{R: r}, R: r}
}

// Compare implements the threshold model.
func (w *Threshold) Compare(a, b item.Item) item.Item {
	if item.Distance(a, b) <= w.Delta {
		return w.Tie.Pick(a, b)
	}
	hi, lo := a, b
	if b.Value > a.Value {
		hi, lo = b, a
	}
	if w.Epsilon > 0 && w.R.Bernoulli(w.Epsilon) {
		return lo
	}
	return hi
}

// NewProbabilistic returns a worker following the probabilistic error model
// of prior work ([Feige et al.], [Davidson et al.]): a fixed error
// probability p on every comparison, independent of the values. It is the
// threshold model with δ = 0 and ε = p.
func NewProbabilistic(p float64, r *rng.Source) *Threshold {
	return NewThreshold(0, p, r)
}

// DistanceError is the Appendix A generalization of the threshold model:
// above the threshold the error probability depends on the distance through
// EpsilonAt, typically decreasing as elements move farther apart.
type DistanceError struct {
	// Delta is the discernment threshold.
	Delta float64
	// EpsilonAt returns the error probability for a comparison at
	// distance d > Delta. Values are clamped to [0, 1].
	EpsilonAt func(d float64) float64
	// Tie decides under-threshold comparisons.
	Tie TieBreaker
	// R drives the error coin flips.
	R *rng.Source
}

// Compare implements the distance-dependent threshold model.
func (w *DistanceError) Compare(a, b item.Item) item.Item {
	d := item.Distance(a, b)
	if d <= w.Delta {
		return w.Tie.Pick(a, b)
	}
	hi, lo := a, b
	if b.Value > a.Value {
		hi, lo = b, a
	}
	eps := w.EpsilonAt(d)
	if eps < 0 {
		eps = 0
	} else if eps > 1 {
		eps = 1
	}
	if w.R.Bernoulli(eps) {
		return lo
	}
	return hi
}

// Spammer answers every comparison uniformly at random regardless of the
// elements. The platform's gold-question quality control (Section 3.1:
// workers under 70% gold accuracy are ignored) exists to filter these out.
type Spammer struct{ R *rng.Source }

// Compare returns a or b with probability 1/2 each.
func (s Spammer) Compare(a, b item.Item) item.Item {
	if s.R.Bool() {
		return a
	}
	return b
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Valuer is a source of cardinal value estimates — the crowd-scoring query
// model of Nordio et al., where a worker is shown one element and asked for
// a score instead of being shown a pair and asked for a winner. rep is the
// vote index: asking V independent votes on the same element calls Value V
// times with rep = 0..V−1, and an implementation must return (statistically)
// independent estimates across rep values.
type Valuer interface {
	Value(it item.Item, rep int) float64
}

// ValuerFunc adapts a function to the Valuer interface.
type ValuerFunc func(it item.Item, rep int) float64

// Value calls f.
func (f ValuerFunc) Value(it item.Item, rep int) float64 { return f(it, rep) }

// TruthValuer reports every element's exact value regardless of rep — the
// σ = 0 limit of the noisy scoring model, used in tests and as a reference.
var TruthValuer Valuer = ValuerFunc(func(it item.Item, _ int) float64 { return it.Value })

// NoisyValuer is a crowd scorer with additive noise: each vote is the true
// value plus a Gaussian perturbation of standard deviation Sigma. The noise
// is a pure function of (Seed, item ID, rep) — the same vote always returns
// the same estimate, different votes are (statistically) independent, and
// the outcome does not depend on when or from which goroutine the question
// is asked. It is the value-query counterpart of HashTie: the property that
// makes a scoring run safe for parallel dispatch and bit-identical
// checkpoint replay.
//
// Calibration: a NoisyValuer with Sigma on the order of the naive class's
// discernment threshold δn models the same workforce answering cardinal
// questions — aggregating V votes shrinks the effective error by ~1/√V.
type NoisyValuer struct {
	// Sigma is the per-vote noise standard deviation; 0 reports exact
	// values.
	Sigma float64
	// Seed selects the noise family; two NoisyValuers with the same seed
	// agree on every (item, rep) vote.
	Seed uint64
}

// Value returns the vote's deterministic noisy estimate.
func (v NoisyValuer) Value(it item.Item, rep int) float64 {
	if v.Sigma == 0 {
		return it.Value
	}
	h := splitmix(v.Seed ^ splitmix(uint64(int64(it.ID))) ^ splitmix(uint64(int64(rep))*0x9e3779b97f4a7c15))
	// Box-Muller from two uniforms derived from one hash chain.
	u1 := float64(h>>11) / (1 << 53)
	h2 := splitmix(h)
	u2 := float64(h2>>11) / (1 << 53)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return it.Value + v.Sigma*z
}
