// Package dispatch is the comparison-dispatch layer between the algorithms
// and whatever actually answers comparisons. The paper's algorithms are
// defined over an abstract stream of pairwise comparisons; a real
// crowdsourcing deployment answers that stream asynchronously, fallibly, and
// only while the money lasts. This package provides the seam that makes
// those properties first-class without touching the algorithm layer:
//
//   - Backend is the pluggable answer source: Answer(ctx, Request) can fail,
//     block, and be cancelled. Simulated wraps an in-process
//     worker.Comparator (the historical behaviour); Flaky injects faults and
//     latency for resilience testing; Retry decorates any backend with
//     per-attempt timeouts and exponential backoff.
//   - Budget enforces hard caps on per-class comparison counts and monetary
//     spend. Spending is all-or-nothing and pre-charged, so a cap is never
//     exceeded — not even by a single comparison — regardless of concurrency.
//
// tournament.Oracle routes every comparison through this layer; algorithms
// observe failures as ordinary errors (context.Canceled, ErrBudgetExhausted,
// a backend's own error) and surface best-so-far partial results upward.
package dispatch

import (
	"context"
	"errors"
	"fmt"

	"crowdmax/internal/item"
	"crowdmax/internal/worker"
)

// ErrBackendUnavailable marks a transient backend failure — the request did
// not produce an answer but retrying may succeed. Flaky wraps its injected
// faults in it, and Retry treats any error as retryable except context
// cancellation and budget exhaustion.
var ErrBackendUnavailable = errors.New("dispatch: backend unavailable")

// ErrPermanent marks a failure that no amount of retrying can repair — the
// backend is gone for good (an injected crash, a revoked credential, a
// decommissioned platform). Retry gives up immediately on errors wrapping
// it, exactly like cancellation and budget exhaustion.
var ErrPermanent = errors.New("dispatch: permanent backend failure")

// RequestKind distinguishes the query types a backend can answer. The zero
// value is the pairwise comparison every max-finding algorithm asks; value
// queries are the cardinal-score alternative of the crowd-scoring workload
// (Nordio et al.), where a worker estimates one element's value directly
// instead of ranking a pair.
type RequestKind int

const (
	// KindCompare asks for the more valuable of the pair (A, B).
	KindCompare RequestKind = iota
	// KindValue asks for a cardinal estimate of A's value; B is unused.
	// Rep distinguishes repeated votes on the same element.
	KindValue
)

// Request is one task submitted to a backend: a pairwise comparison
// (KindCompare, the zero value) or a cardinal value query (KindValue).
type Request struct {
	// A and B are the elements to compare. Value queries set only A.
	A, B item.Item
	// Class is the worker class the task is intended for; backends use it
	// to route to the matching worker pool (and platforms to price the
	// task).
	Class worker.Class
	// Kind selects the query type; the zero value is a comparison.
	Kind RequestKind
	// Rep is the vote index of a value query (0-based): asking the crowd
	// for V independent estimates of one element submits V requests that
	// differ only in Rep. Ignored for comparisons.
	Rep int
}

// Answer is a backend's reply to a Request.
type Answer struct {
	// Winner is the element the worker reported as more valuable. It must
	// be one of the request's two elements. Zero for value queries.
	Winner item.Item
	// Value is the worker's cardinal estimate for a KindValue request;
	// zero (and meaningless) for comparisons.
	Value float64
	// Retries counts transport-level retries spent obtaining this answer
	// (0 for a first-attempt success); decorators like Retry populate it.
	Retries int
}

// Backend answers comparison requests. Implementations may block (a real
// platform round-trip), fail (transient outages, hard errors), and must
// honor ctx cancellation promptly. An oracle asks its backend one request
// at a time, from its run's goroutine; a backend that several runs share,
// or that a Hedge wraps (a hedge asks its inner backend from two goroutines
// at once), must be safe for concurrent use.
type Backend interface {
	Answer(ctx context.Context, req Request) (Answer, error)
}

// Func adapts a function to the Backend interface.
type Func func(ctx context.Context, req Request) (Answer, error)

// Answer calls f.
func (f Func) Answer(ctx context.Context, req Request) (Answer, error) {
	return f(ctx, req)
}

// Simulated is the in-process backend: it answers every request by calling a
// worker.Comparator (or, for value queries, a worker.Valuer) synchronously.
// It is infallible apart from context cancellation, which it checks before
// every answer — a cancelled dispatch returns ctx.Err() without consulting
// the worker — and value queries submitted without a valuer, which fail
// permanently (the workload asked a question this crowd cannot answer).
type Simulated struct {
	cmp worker.Comparator
	val worker.Valuer
}

// NewSimulated wraps an in-process comparator as a Backend.
func NewSimulated(cmp worker.Comparator) *Simulated {
	return &Simulated{cmp: cmp}
}

// NewSimulatedValuer wraps an in-process comparator and valuer as a Backend
// that answers both comparisons and cardinal value queries.
func NewSimulatedValuer(cmp worker.Comparator, val worker.Valuer) *Simulated {
	return &Simulated{cmp: cmp, val: val}
}

// Answer implements Backend.
func (s *Simulated) Answer(ctx context.Context, req Request) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	if req.Kind == KindValue {
		if s.val == nil {
			return Answer{}, fmt.Errorf("dispatch: value query without a valuer: %w", ErrPermanent)
		}
		return Answer{Value: s.val.Value(req.A, req.Rep)}, nil
	}
	return Answer{Winner: s.cmp.Compare(req.A, req.B)}, nil
}

// Comparator returns the wrapped in-process comparator.
func (s *Simulated) Comparator() worker.Comparator { return s.cmp }

// Valuer returns the wrapped in-process valuer, nil when comparisons-only.
func (s *Simulated) Valuer() worker.Valuer { return s.val }
