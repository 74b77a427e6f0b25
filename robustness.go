package crowdmax

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"crowdmax/internal/chaos"
	"crowdmax/internal/checkpoint"
	"crowdmax/internal/cost"
	"crowdmax/internal/dispatch"
	"crowdmax/internal/faults"
	"crowdmax/internal/obs"
	"crowdmax/internal/tournament"
	"crowdmax/internal/trust"
)

// StorageFS is the injectable filesystem durable artifacts are written
// through; see internal/faults. Nil means the real filesystem.
type StorageFS = faults.FS

// CheckpointConfig enables crash recovery for Session runs.
type CheckpointConfig struct {
	// Path is the snapshot file; empty disables checkpointing. Snapshots
	// are written atomically (temp file + rename), so the file always
	// holds one complete snapshot.
	Path string
	// Every also snapshots after every N paid backend comparisons, in
	// addition to the run-start and phase-boundary snapshots; defaults
	// to 500. Memo hits are free and do not advance the counter.
	Every int
	// FS routes snapshot reads and writes through an injectable
	// filesystem so durability is testable under injected disk faults;
	// nil uses the real filesystem.
	FS StorageFS
	// OnSnapshot, when non-nil, is called after every successfully
	// written snapshot. It runs on the run's goroutine, inside a paid
	// comparison or at a phase boundary, so it must be fast and must not
	// block — it exists for progress stamps (the service watchdog), not
	// for work.
	OnSnapshot func()
}

// ChaosPlan declares the semantic faults to inject into a Session run:
// an adversarial persona poisoning the naïve backend and/or a deterministic
// crash after a fixed number of comparisons. Parse one from the -chaos flag
// syntax with ParseChaosPlan.
type ChaosPlan = chaos.Plan

// ParseChaosPlan parses a comma-separated chaos spec such as "crash:500",
// "spammer:0.2" or "colluder:7,crash:1000"; see chaos.ParsePlan.
func ParseChaosPlan(spec string) (ChaosPlan, error) { return chaos.ParsePlan(spec) }

// ErrInjectedCrash marks a run killed by the chaos crash injector. It wraps
// ErrPermanentBackend, so retry decorators never retry it; resume the run
// from its checkpoint with Session.Resume.
var ErrInjectedCrash = chaos.ErrCrash

// ErrPermanentBackend marks backend failures that retrying cannot repair;
// RetryBackend gives up on them immediately.
var ErrPermanentBackend = dispatch.ErrPermanent

// RetryError is the terminal failure of a retry backend: it carries the
// attempt count and (via errors.Unwrap) the final underlying error.
type RetryError = dispatch.RetryError

// HealthConfig configures worker health tracking: gold-set probing,
// disagreement sampling, the quarantine circuit breaker, and hedging.
type HealthConfig = dispatch.HealthConfig

// ScorerMode selects the detector feeding a WorkerPool's quarantine
// breaker: ScorerGold (gold probes + disagreement rate, the zero value),
// ScorerGraph (gold-free agreement-graph extraction), or ScorerHybrid
// (both).
type ScorerMode = dispatch.ScorerMode

// The scorer modes HealthConfig.Scorer accepts.
const (
	ScorerGold   = dispatch.ScorerGold
	ScorerGraph  = dispatch.ScorerGraph
	ScorerHybrid = dispatch.ScorerHybrid
)

// TrustConfig parameterizes the agreement-graph extractor behind
// ScorerGraph and ScorerHybrid (HealthConfig.Trust).
type TrustConfig = trust.Config

// TrustExtraction is one dense-core extraction from the worker agreement
// graph: the expert core, everyone's agreement scores, and the confidence
// the breaker demands before acting on graph verdicts. Read the latest one
// from WorkerPool.TrustExtraction.
type TrustExtraction = trust.Extraction

// GoldPair is one probe comparison with a known correct answer.
type GoldPair = dispatch.GoldPair

// GoldFromTraining builds gold probes from a training set with known
// maximum, Algorithm-4 style; see dispatch.GoldFromTraining.
func GoldFromTraining(training []Item, minGap float64, max int) []GoldPair {
	return dispatch.GoldFromTraining(training, minGap, max)
}

// WorkerPool multiplexes comparisons across named worker backends and,
// with HealthConfig enabled, quarantines workers below the reliability
// floor.
type WorkerPool = dispatch.Pool

// PoolWorker is one named worker backend in a WorkerPool.
type PoolWorker = dispatch.PoolWorker

// NewWorkerPool builds a pool over workers with seeded routing.
func NewWorkerPool(workers []PoolWorker, seed uint64) (*WorkerPool, error) {
	return dispatch.NewPool(workers, seed)
}

// NewHedgeBackend duplicates requests the inner backend has not answered
// within delay and returns the first successful answer. Wall-clock-driven
// and therefore not deterministic; keep it out of checkpointed runs.
func NewHedgeBackend(inner Backend, delay time.Duration) Backend {
	return dispatch.NewHedge(inner, delay)
}

// Resume continues a run truncated by a crash (or any permanent failure)
// from the snapshot at path, which must have been written by a session with
// the same configuration fingerprint — seed, un, phase-2 algorithm,
// loss-tracking setting — applied to the same items. The workload is
// reconstructed from the snapshot's kind and state blob (a top-k snapshot
// resumes as the same top-k run, a score snapshot as the same score run;
// pre-workload snapshots load as max-find). The snapshot's memo tables are
// replayed, so already-paid comparisons are served free at their recorded
// cost, and with deterministic comparators (ε = 0 and an order-independent
// tie policy such as HashTie) the resumed run returns answers, paid totals,
// and candidate sets bit-identical to an uninterrupted run with the same
// seed.
func (s *Session) Resume(ctx context.Context, path string, items []Item) (Result, error) {
	st, err := checkpoint.LoadFS(s.cfg.Checkpoint.FS, path)
	if err != nil {
		return Result{}, err
	}
	w, err := workloadFromState(st)
	if err != nil {
		return Result{}, err
	}
	if err := s.checkpointCompatible(st, items); err != nil {
		return Result{}, err
	}
	return s.run(ctx, w, items, st)
}

// ResumeWorkload is Resume for callers that know which workload the
// snapshot must belong to: it refuses a snapshot whose recorded kind differs
// from w's instead of silently running whatever the file says.
func (s *Session) ResumeWorkload(ctx context.Context, w Workload, path string, items []Item) (Result, error) {
	if w == nil {
		return Result{}, errors.New("crowdmax: nil workload")
	}
	st, err := checkpoint.LoadFS(s.cfg.Checkpoint.FS, path)
	if err != nil {
		return Result{}, err
	}
	if st.Kind != w.Kind() {
		return Result{}, fmt.Errorf("crowdmax: checkpoint belongs to workload %q, cannot resume it as %q", st.Kind, w.Kind())
	}
	if err := s.checkpointCompatible(st, items); err != nil {
		return Result{}, err
	}
	return s.run(ctx, w, items, st)
}

// workloadFromState reconstructs the workload a snapshot belongs to from its
// recorded kind and state blob.
func workloadFromState(st *checkpoint.State) (Workload, error) {
	switch st.Kind {
	case MaxFindKind:
		return MaxFind(), nil
	case TopKKind:
		k, _, err := decodeTopKBlob(st.Workload)
		if err != nil {
			return nil, err
		}
		return TopKWorkload(k), nil
	case ScoreKind:
		cfg, err := decodeScoreBlob(st.Workload)
		if err != nil {
			return nil, err
		}
		return ScoreWorkload(cfg), nil
	default:
		return nil, fmt.Errorf("crowdmax: checkpoint has unknown workload kind %q", st.Kind)
	}
}

// checkpointCompatible refuses snapshots whose configuration fingerprint
// does not match this session and input — resuming under a different
// configuration would silently produce answers neither run would have.
func (s *Session) checkpointCompatible(st *checkpoint.State, items []Item) error {
	if s.cfg.DisableMemoization {
		return errors.New("crowdmax: Resume requires memoization (resume replays the checkpoint's memo tables)")
	}
	seed := uint64(0)
	if s.cfg.Rand != nil {
		seed = s.cfg.Rand.Seed()
	}
	switch {
	case st.Un != s.cfg.Un:
		return fmt.Errorf("crowdmax: checkpoint was taken with un=%d, session has un=%d", st.Un, s.cfg.Un)
	case st.Phase2 != int(s.cfg.Phase2):
		return fmt.Errorf("crowdmax: checkpoint was taken with phase2=%d, session has %d", st.Phase2, int(s.cfg.Phase2))
	case st.TrackLosses != s.cfg.TrackLosses:
		return errors.New("crowdmax: checkpoint and session disagree on TrackLosses")
	case st.Seed != seed:
		return fmt.Errorf("crowdmax: checkpoint was taken with seed %d, session has %d", st.Seed, seed)
	case st.NItems != len(items):
		return fmt.Errorf("crowdmax: checkpoint covers %d items, got %d", st.NItems, len(items))
	case st.ItemsHash != itemsFingerprint(items):
		return errors.New("crowdmax: checkpoint items hash does not match the given items")
	}
	return nil
}

// itemsFingerprint hashes the input's IDs and value bits (FNV-1a) so Resume
// can detect a snapshot applied to different data.
func itemsFingerprint(items []Item) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, it := range items {
		binary.LittleEndian.PutUint64(buf[:8], uint64(int64(it.ID)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(it.Value))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// ckSource renders one run's live state as snapshot bytes. The fingerprint
// is fixed at run start; the ledger, budget, value memo and workload hooks
// are read at snapshot time; and each pair-memo class is kept as a
// tournament.MemoImage, so a snapshot sorts only the answers published
// since the previous one.
type ckSource struct {
	st            checkpoint.State // the fingerprint; per-snapshot fields are overwritten
	led           *Ledger
	budget        *Budget
	naive, expert *tournament.MemoImage
	vm            *tournament.ValueMemo
	hooks         *snapHooks
}

// checkpointSource binds a snapshot source to one run's live state.
func (s *Session) checkpointSource(kind string, items []Item, seed uint64, led *Ledger, budget *Budget, nm, em *Memo, vm *tournament.ValueMemo, hooks *snapHooks) *ckSource {
	return &ckSource{
		st: checkpoint.State{
			Kind:        kind,
			Seed:        seed,
			Un:          s.cfg.Un,
			Phase2:      int(s.cfg.Phase2),
			TrackLosses: s.cfg.TrackLosses,
			NItems:      len(items),
			ItemsHash:   itemsFingerprint(items),
		},
		led:    led,
		budget: budget,
		naive:  tournament.NewMemoImage(nm),
		expert: tournament.NewMemoImage(em),
		vm:     vm,
		hooks:  hooks,
	}
}

// encode appends the snapshot taken now, labelled phase, to dst.
func (c *ckSource) encode(dst []byte, phase string, survivors []int64) []byte {
	st := &c.st
	st.Phase, st.Survivors = phase, survivors
	snap := c.led.Snapshot()
	st.Comparisons, st.MemoHits, st.Steps = snap.Comparisons, snap.MemoHits, snap.Steps
	if c.budget != nil {
		for i := 0; i < cost.MaxClasses; i++ {
			st.BudgetSpent[i] = c.budget.Spent(Class(i))
		}
		st.BudgetCost = c.budget.SpentCost()
	}
	st.ValueMemo = valueAnswers(c.vm)
	if c.hooks != nil {
		ctl, blob := c.hooks.snapshot()
		if ctl != nil {
			// The achieved rung and decision-log hash ride in the snapshot
			// so a resumed run can be audited against the walk that
			// produced it.
			st.Rung, st.DecisionHash = ctl.Snapshot()
		}
		st.Workload = blob
	}
	return checkpoint.AppendSnapshot(dst, st, packedPairs(c.naive.Refresh()), packedPairs(c.expert.Refresh()))
}

// packedPairs is the checkpoint.PairTable view of a MemoImage's entries.
type packedPairs []uint64

func (t packedPairs) Len() int { return len(t) }

func (t packedPairs) At(i int) checkpoint.PairAnswer {
	a, b, w := tournament.UnpackEntry(t[i])
	return checkpoint.PairAnswer{A: int64(a), B: int64(b), Winner: int64(w)}
}

// ckWriter drives a run's checkpointing: a backend decorator counts paid
// comparisons and snapshots every N of them, and the core algorithm's
// OnPhase hook snapshots at phase boundaries. A failed snapshot write fails
// the run fast — the next dispatched comparison returns the write error —
// because continuing to spend money a crash would strand defeats the point.
// Every call happens on the run's goroutine: the decorator sits outermost,
// so it runs in the oracle's dispatch, before any decorator that hands the
// request to another goroutine (a hedge).
type ckWriter struct {
	path      string
	every     int64
	since     int64
	survivors []int64
	src       *ckSource
	buf       []byte // the last snapshot's bytes, reused by the next
	fs        faults.FS
	onSnap    func()
	err       error
}

func newCkWriter(cfg CheckpointConfig, src *ckSource) *ckWriter {
	every := int64(cfg.Every)
	if every <= 0 {
		every = 500
	}
	return &ckWriter{path: cfg.Path, every: every, src: src, fs: cfg.FS, onSnap: cfg.OnSnapshot}
}

// wrap decorates a backend so successful answers advance the interval
// counter; the decorator sits outermost, so chaos-injected failures and
// memo hits (which never reach a backend) do not count.
func (w *ckWriter) wrap(b Backend) Backend {
	return dispatch.Func(func(ctx context.Context, req BackendRequest) (BackendAnswer, error) {
		if w.err != nil {
			return BackendAnswer{}, w.err
		}
		ans, err := b.Answer(ctx, req)
		if err != nil {
			return ans, err
		}
		w.since++
		if w.since >= w.every {
			w.since = 0
			w.snapshot("interval")
		}
		return ans, nil
	})
}

// boundary records a phase boundary and snapshots immediately. Matches the
// core.FindMaxOptions.OnPhase signature.
func (w *ckWriter) boundary(phase string, survivors []Item) {
	ids := make([]int64, len(survivors))
	for i, it := range survivors {
		ids[i] = int64(it.ID)
	}
	w.survivors = ids
	w.since = 0
	w.snapshot(phase)
}

// testHookSnapshot, when set, observes every snapshot a writer encodes,
// just before it is written.
var testHookSnapshot func(w *ckWriter, label string, data []byte)

// snapshot encodes and atomically writes one snapshot.
func (w *ckWriter) snapshot(label string) {
	w.buf = w.src.encode(w.buf[:0], label, w.survivors)
	if testHookSnapshot != nil {
		testHookSnapshot(w, label, w.buf)
	}
	if err := checkpoint.SaveEncodedFS(w.fs, w.path, w.buf); err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	if m := obs.Active(); m != nil {
		m.CheckpointWrite()
	}
	if w.onSnap != nil {
		w.onSnap()
	}
}

// Err returns the first snapshot-write failure, if any.
func (w *ckWriter) Err() error { return w.err }
