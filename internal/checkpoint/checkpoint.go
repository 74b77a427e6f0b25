// Package checkpoint persists the state of a long max-finding run so a
// crashed session can resume without repaying for answered comparisons.
//
// # What a snapshot holds, and why resume is replay
//
// A snapshot is not a serialized call stack. It records the run's
// *knowledge*: the configuration fingerprint (seed, un, phase-2 choice,
// items hash), the current phase and survivor set, the ledger counters and
// budget spend so far, and — crucially — the full memo tables, i.e. every
// pair's frozen answer per worker class. Session.Resume re-runs the
// algorithm from the beginning with the memo tables primed: every
// pre-checkpoint comparison is a free memo hit, the restored ledger carries
// its paid count, and the first genuinely new comparison lands exactly where
// the crashed run left off. With deterministic comparators (ε = 0 and an
// order-independent tie policy such as worker.HashTie) the resumed run's
// final answer, paid totals, and survivor sets are bit-identical to an
// uninterrupted run — replay sidesteps serializing any in-flight algorithm
// state, which is what makes the guarantee provable rather than hopeful.
//
// # Format
//
// The on-disk format is a fixed header — magic "CMCK", a version, the
// payload length, and a CRC-32C checksum — followed by a little-endian
// fixed-width payload. Decoding is strictly bounds-checked and fails closed:
// a truncated, bit-flipped, or version-skewed file yields an error wrapping
// ErrCorrupt, never a panic and never a silently wrong resume. Save writes
// via a temp file in the target directory followed by an atomic rename, so
// readers observe either the previous complete snapshot or the new one.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"

	"crowdmax/internal/cost"
	"crowdmax/internal/faults"
)

// ErrCorrupt marks a checkpoint file that failed validation — wrong magic,
// unsupported version, truncation, checksum mismatch, or an inconsistent
// payload. Every Decode/Load failure mode wraps it, so callers need exactly
// one errors.Is check to distinguish "bad file" from I/O trouble.
var ErrCorrupt = errors.New("checkpoint: corrupt or truncated checkpoint")

// magic identifies a checkpoint file; version is the codec revision.
// Version 2 added the degrade-controller state (Rung, DecisionHash); version
// 3 added the workload envelope (Kind, the opaque per-workload state blob,
// and the value-query memo table). Decode reads v3 and — because a v2 file
// can only have been written by a max-find run — v2, which loads with
// Kind = KindMaxFind and empty extras. Anything else fails closed: a v1 file
// predates the quality ladder and silently resuming it could report a
// guarantee the original run never established.
const (
	magic           = "CMCK"
	version         = 3
	versionPreKinds = 2 // last revision before workload kinds; max-find only

	// headerSize = magic + u32 version + u32 crc + u64 payload length.
	headerSize = 4 + 4 + 4 + 8

	// maxStringLen bounds decoded string fields; maxPairs bounds decoded
	// memo tables and survivor sets (an n=10^6 run has < 10^8 pairs asked;
	// anything past this is a forged length, not a real run).
	maxStringLen = 256
	maxPairs     = 1 << 28
)

// castagnoli is the CRC-32C table (the polynomial with hardware support).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// KindMaxFind is the workload kind of the original two-phase max-finding
// session — the kind every pre-v3 snapshot implicitly has.
const KindMaxFind = "max-find"

// PairAnswer is one memoized comparison: the unordered pair's item IDs and
// the frozen winner ID.
type PairAnswer struct {
	A, B, Winner int64
}

// ValueAnswer is one memoized cardinal value query: the item ID, the vote
// index, and the frozen estimate.
type ValueAnswer struct {
	ID, Rep int64
	Value   float64
}

// State is one snapshot of a session run. Fields divide into the
// configuration fingerprint (Seed..ItemsHash — Resume refuses a snapshot
// whose fingerprint does not match the session and items it is applied to),
// progress markers (Phase, Survivors), restored accounting (ledger counters,
// budget spend), and the replay substrate (the two memo tables).
type State struct {
	// Seed is the session's root rng seed; identical seeds are what make
	// resumed and uninterrupted runs comparable at all.
	Seed uint64
	// Un, Phase2 and TrackLosses fingerprint the algorithm configuration.
	Un          int
	Phase2      int
	TrackLosses bool
	// NItems and ItemsHash fingerprint the input (count + FNV-1a over IDs
	// and value bits).
	NItems    int
	ItemsHash uint64

	// Phase labels the boundary or interval the snapshot was taken at
	// ("start", "phase1", "done", or "interval").
	Phase string
	// Survivors holds the item IDs of the last known survivor set (the
	// phase-1 output when taken at or past that boundary).
	Survivors []int64
	// Rung and DecisionHash carry the degrade controller's state at
	// snapshot time: the quality-ladder rung the run had reached ("" when
	// no controller ran or none was decided yet) and the FNV hash of its
	// decision log. A resumed run replays to the same rung; the hash lets
	// harnesses verify the whole ladder walk matched, not just its
	// endpoint.
	Rung         string
	DecisionHash uint64

	// Comparisons, MemoHits and Steps are the run ledger's counters at
	// snapshot time.
	Comparisons [cost.MaxClasses]int64
	MemoHits    [cost.MaxClasses]int64
	Steps       int64
	// BudgetSpent and BudgetCost are the budget's admitted totals at
	// snapshot time (zero when the run has no budget).
	BudgetSpent [cost.MaxClasses]int64
	BudgetCost  float64

	// NaiveMemo and ExpertMemo are the frozen pair answers per class,
	// sorted by (A, B) so encoding is deterministic.
	NaiveMemo, ExpertMemo []PairAnswer

	// Kind names the workload the snapshot belongs to (KindMaxFind,
	// "top-k", "score"). Resume dispatches on it; a v2 file decodes with
	// KindMaxFind. Encode writes KindMaxFind when empty.
	Kind string
	// Workload is the workload's opaque private state blob (nil for
	// max-find): the top-k completed-rank log, the score configuration.
	// The checkpoint codec frames and checksums it but never interprets it.
	Workload []byte
	// ValueMemo is the frozen value-query answers (crowd scoring), sorted
	// by (ID, Rep) so encoding is deterministic. Empty for comparison-only
	// workloads.
	ValueMemo []ValueAnswer
}

// SortPairs orders both pair-memo tables by (A, B) and the value-memo table
// by (ID, Rep); Encode requires sorted tables for byte-identical output
// across runs.
func (s *State) SortPairs() {
	for _, t := range [][]PairAnswer{s.NaiveMemo, s.ExpertMemo} {
		sort.Slice(t, func(i, j int) bool {
			if t[i].A != t[j].A {
				return t[i].A < t[j].A
			}
			return t[i].B < t[j].B
		})
	}
	sort.Slice(s.ValueMemo, func(i, j int) bool {
		if s.ValueMemo[i].ID != s.ValueMemo[j].ID {
			return s.ValueMemo[i].ID < s.ValueMemo[j].ID
		}
		return s.ValueMemo[i].Rep < s.ValueMemo[j].Rep
	})
}

// Encode renders the state in the versioned, checksummed binary format.
func Encode(s *State) []byte {
	return AppendSnapshot(nil, s, PairAnswers(s.NaiveMemo), PairAnswers(s.ExpertMemo))
}

// PairTable is a pair-memo table sorted by (A, B), held in whatever form
// its owner keeps it; AppendSnapshot reads the memo tables through it.
// AppendSnapshot is generic over the table type so that passing a table
// boxes nothing.
type PairTable interface {
	Len() int
	At(i int) PairAnswer
}

// PairAnswers is the PairTable of a plain answer slice.
type PairAnswers []PairAnswer

// Len returns the number of answers.
func (t PairAnswers) Len() int { return len(t) }

// At returns the i-th answer.
func (t PairAnswers) At(i int) PairAnswer { return t[i] }

// AppendSnapshot appends the encoding of s to dst and returns the extended
// slice, taking the two pair-memo tables from naive and expert rather than
// from s.NaiveMemo and s.ExpertMemo. It grows dst once to the exact
// encoded size and writes the envelope header in place, so a writer that
// reuses dst across snapshots encodes without copying. The bytes equal
// Encode's for the same content.
func AppendSnapshot[T PairTable](dst []byte, s *State, naive, expert T) []byte {
	start := len(dst)
	p := payload{b: beginEnvelope(slices.Grow(dst, encodedSize(s, naive.Len()+expert.Len())), magic, version)}
	p.u64(s.Seed)
	p.i64(int64(s.Un))
	p.i64(int64(s.Phase2))
	p.bool(s.TrackLosses)
	p.i64(int64(s.NItems))
	p.u64(s.ItemsHash)
	p.str(s.Phase)
	p.i64(int64(len(s.Survivors)))
	for _, id := range s.Survivors {
		p.i64(id)
	}
	p.str(s.Rung)
	p.u64(s.DecisionHash)
	for i := 0; i < cost.MaxClasses; i++ {
		p.i64(s.Comparisons[i])
	}
	for i := 0; i < cost.MaxClasses; i++ {
		p.i64(s.MemoHits[i])
	}
	p.i64(s.Steps)
	for i := 0; i < cost.MaxClasses; i++ {
		p.i64(s.BudgetSpent[i])
	}
	p.u64(math.Float64bits(s.BudgetCost))
	for _, table := range [2]T{naive, expert} {
		n := table.Len()
		p.i64(int64(n))
		for i := 0; i < n; i++ {
			e := table.At(i)
			p.i64(e.A)
			p.i64(e.B)
			p.i64(e.Winner)
		}
	}
	p.str(kindOf(s))
	p.i64(int64(len(s.Workload)))
	p.b = append(p.b, s.Workload...)
	p.i64(int64(len(s.ValueMemo)))
	for _, e := range s.ValueMemo {
		p.i64(e.ID)
		p.i64(e.Rep)
		p.u64(math.Float64bits(e.Value))
	}
	sealFrame(p.b[start:])
	return p.b
}

// kindOf is the workload kind Encode writes for s.
func kindOf(s *State) string {
	if s.Kind == "" {
		return KindMaxFind
	}
	return s.Kind
}

// encodedSize is the exact length of the encoding of s with pairs entries
// across its two pair-memo tables.
func encodedSize(s *State, pairs int) int {
	return headerSize + 8*6 + 1 + strSize(s.Phase) + 8*len(s.Survivors) + strSize(s.Rung) + 8 +
		8*(3*cost.MaxClasses+2) + 8*2 + 24*pairs +
		strSize(kindOf(s)) + 8 + len(s.Workload) + 8 + 24*len(s.ValueMemo)
}

// strSize is the encoded size of a length-prefixed string field.
func strSize(s string) int { return 8 + min(len(s), maxStringLen) }

// Decode parses an encoded state, failing closed (ErrCorrupt, wrapped) on
// any inconsistency. It never panics on hostile input: every read is
// bounds-checked and every count validated against the remaining bytes
// before allocation.
func Decode(data []byte) (*State, error) {
	body, v, err := OpenEnvelopeAny(magic, data)
	if err != nil {
		return nil, err
	}
	if v != version && v != versionPreKinds {
		return nil, fmt.Errorf("%w: unsupported version %d (want %d or %d)",
			ErrCorrupt, v, versionPreKinds, version)
	}

	r := reader{b: body}
	s := &State{}
	s.Seed = r.u64()
	s.Un = int(r.i64())
	s.Phase2 = int(r.i64())
	s.TrackLosses = r.bool()
	s.NItems = int(r.i64())
	s.ItemsHash = r.u64()
	s.Phase = r.str()
	if n := r.count(8); n > 0 {
		s.Survivors = make([]int64, n)
		for i := range s.Survivors {
			s.Survivors[i] = r.i64()
		}
	}
	s.Rung = r.str()
	s.DecisionHash = r.u64()
	for i := 0; i < cost.MaxClasses; i++ {
		s.Comparisons[i] = r.i64()
	}
	for i := 0; i < cost.MaxClasses; i++ {
		s.MemoHits[i] = r.i64()
	}
	s.Steps = r.i64()
	for i := 0; i < cost.MaxClasses; i++ {
		s.BudgetSpent[i] = r.i64()
	}
	s.BudgetCost = math.Float64frombits(r.u64())
	for _, table := range []*[]PairAnswer{&s.NaiveMemo, &s.ExpertMemo} {
		if n := r.count(24); n > 0 {
			*table = make([]PairAnswer, n)
			for i := range *table {
				(*table)[i] = PairAnswer{A: r.i64(), B: r.i64(), Winner: r.i64()}
			}
		}
	}
	if v == versionPreKinds {
		// A v2 file was written by a max-find run; the workload envelope
		// fields did not exist yet.
		s.Kind = KindMaxFind
	} else {
		if s.Kind = r.str(); s.Kind == "" {
			// Encode always writes a kind; normalize a hand-forged empty
			// one the same way Encode would have.
			s.Kind = KindMaxFind
		}
		if n := r.count(1); n > 0 {
			s.Workload = append([]byte(nil), r.take(int(n))...)
		}
		if n := r.count(24); n > 0 {
			s.ValueMemo = make([]ValueAnswer, n)
			for i := range s.ValueMemo {
				s.ValueMemo[i] = ValueAnswer{ID: r.i64(), Rep: r.i64(), Value: math.Float64frombits(r.u64())}
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != r.off {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.b)-r.off)
	}
	return s, nil
}

// Save atomically writes the state to path: encode, write to a temp file in
// the same directory, fsync, rename. An interrupted save leaves the previous
// snapshot (or no file) behind, never a truncated one.
func Save(path string, s *State) error {
	return SaveFS(nil, path, s)
}

// SaveFS is Save over an injectable filesystem (nil for the real one), so
// snapshot durability is testable under injected disk faults.
func SaveFS(fsys faults.FS, path string, s *State) error {
	s.SortPairs()
	return SaveEncodedFS(fsys, path, Encode(s))
}

// SaveEncodedFS atomically writes an already encoded snapshot (Encode or
// AppendSnapshot output) to path, the way SaveFS does.
func SaveEncodedFS(fsys faults.FS, path string, data []byte) error {
	if err := WriteFileAtomicFS(fsys, path, data, 0o644); err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", path, err)
	}
	return nil
}

// Load reads and decodes the snapshot at path. Decoding failures wrap
// ErrCorrupt; a missing file surfaces as the usual fs.ErrNotExist.
func Load(path string) (*State, error) {
	return LoadFS(nil, path)
}

// LoadFS is Load over an injectable filesystem (nil for the real one).
func LoadFS(fsys faults.FS, path string) (*State, error) {
	if fsys == nil {
		fsys = faults.OS()
	}
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load %s: %w", path, err)
	}
	return s, nil
}

// payload is the append-side of the little-endian codec.
type payload struct{ b []byte }

func (p *payload) u64(v uint64) { p.b = binary.LittleEndian.AppendUint64(p.b, v) }
func (p *payload) i64(v int64)  { p.u64(uint64(v)) }
func (p *payload) bool(v bool) {
	if v {
		p.b = append(p.b, 1)
	} else {
		p.b = append(p.b, 0)
	}
}
func (p *payload) str(s string) {
	if len(s) > maxStringLen {
		s = s[:maxStringLen]
	}
	p.i64(int64(len(s)))
	p.b = append(p.b, s...)
}

// reader is the bounds-checked decode side; the first failure latches err
// and every subsequent read returns zero, so decode loops need one error
// check at the end.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail("need %d bytes at offset %d, have %d", n, r.off, len(r.b)-r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

func (r *reader) bool() bool {
	s := r.take(1)
	return s != nil && s[0] != 0
}

func (r *reader) str() string {
	n := r.count(1)
	if n < 0 {
		return ""
	}
	if n > maxStringLen {
		r.fail("string length %d exceeds cap %d", n, maxStringLen)
		return ""
	}
	return string(r.take(int(n)))
}

// count reads a length prefix and validates it against the remaining bytes
// at elemSize bytes per element, so a forged length can never trigger a
// huge allocation. Returns -1 after a latched error.
func (r *reader) count(elemSize int) int64 {
	n := r.i64()
	if r.err != nil {
		return -1
	}
	if n < 0 || n > maxPairs || n*int64(elemSize) > int64(len(r.b)-r.off) {
		r.fail("count %d inconsistent with %d remaining bytes", n, len(r.b)-r.off)
		return -1
	}
	return n
}
