package tournament

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Memo caches the first answer to every unordered pair for one worker class
// — the n × n comparison table of Appendix A — as a lock-free hash table.
//
// Each entry is a single packed uint64 (both 31-bit item IDs, a winner bit,
// and an occupancy bit), published with one compare-and-swap into an
// open-addressed table of atomic words. Lookups are pure atomic loads and
// stores are a bounded linear probe ending in one CAS, so the memo never
// serializes the goroutines of a parallel batch the way the previous
// 64-stripe locked design could, and both operations are allocation-free in
// the steady state — the property the zero-alloc hot-path benchmarks assert.
//
// A run that can bound its distinct pairs up front builds its memo with
// NewMemoSized — a session sizes its naïve memo from the filter's 4·n·un
// comparison bound — and so keeps every entry in one table. Within a table
// the first store for a pair wins outright: a losing CAS re-reads the slot
// and adopts the frozen answer, which store returns to every caller. When a
// table fills anyway (an unsized NewMemo, or a run past its bound), a larger
// one is atomically chained in front of it (tables are append-only and never
// migrated, so no entry is ever lost or re-homed); lookups probe
// newest-to-oldest and return the first match. Every path through Oracle
// serializes duplicate asks of one pair (CompareBatch deduplicates within a
// batch, batches on one run are ordered), so at every batch boundary each
// pair has exactly one reachable entry and every observer agrees on its
// answer forever after.
//
// Every table also keeps an append-only publication log of the entries it
// published, which is what lets a MemoImage refresh in time proportional to
// the entries new since its last refresh rather than to the table's size.
type Memo struct {
	head atomic.Pointer[memoTable]
}

// memoTable is one fixed-capacity open-addressed table in the memo's chain.
// Slots hold packed entries; zero means empty. count reserves occupancy
// before the publishing CAS, keeping live entries strictly under limit so a
// probe always terminates at an empty slot.
type memoTable struct {
	prev  *memoTable // older and smaller; immutable once chained behind
	mask  uint64     // len(slots) − 1 (capacity is a power of two)
	limit int64      // max entries before a larger table is chained in
	count atomic.Int64
	slots []atomic.Uint64
	log   pubLog // every entry published here, in publication order
}

// pubLog is a memo table's publication log. The store that wins a slot's
// CAS reserves the next log index and then writes its entry there; entries
// are never zero, so a zero word marks an index reserved but not yet
// written. Chunks are allocated on first use, so the log's memory follows
// the entries actually published, not the table's capacity.
type pubLog struct {
	next   atomic.Int64 // log indices reserved so far, ≤ the table's limit
	chunks []atomic.Pointer[logChunk]
}

const (
	logChunkBits = 8
	logChunkMask = 1<<logChunkBits - 1
)

// logChunk holds 2^logChunkBits consecutive log entries.
type logChunk [1 << logChunkBits]atomic.Uint64

// reserve hands out the next log index.
func (l *pubLog) reserve() int64 { return l.next.Add(1) - 1 }

// write publishes e at the reserved index i, allocating its chunk on first
// use; a racing allocator's chunk is adopted.
func (l *pubLog) write(i int64, e uint64) {
	p := &l.chunks[i>>logChunkBits]
	c := p.Load()
	if c == nil {
		p.CompareAndSwap(nil, new(logChunk))
		c = p.Load()
	}
	c[i&logChunkMask].Store(e)
}

// at returns the entry at reserved index i, or zero while it is unwritten.
func (l *pubLog) at(i int64) uint64 {
	c := l.chunks[i>>logChunkBits].Load()
	if c == nil {
		return 0
	}
	return c[i&logChunkMask].Load()
}

// Packed entry layout (single uint64):
//
//	bits 63..33  lo ID (the smaller of the pair, 31 bits)
//	bits 32..2   hi ID (the larger of the pair, 31 bits)
//	bit  1       winner-is-hi
//	bit  0       occupied (keeps every entry non-zero, even pair (0, 1))
const (
	memoIDLimit   = 1 << 31
	memoKeyMask   = ^uint64(3)
	memoWinnerBit = uint64(2)
	memoLiveBit   = uint64(1)

	// memoMinSlots is the initial table capacity of NewMemo; growth
	// quadruples, so even million-pair runs chain only a handful of tables.
	memoMinSlots = 1 << 10
	// memoGrowth is the capacity multiplier of each chained table.
	memoGrowth = 4
)

// NewMemo returns an empty memo table with the default initial capacity.
func NewMemo() *Memo { return NewMemoSized(0) }

// NewMemoSized returns an empty memo whose first table holds pairs distinct
// entries without chaining a second one: the smallest power-of-two capacity
// (at least the default) that keeps pairs entries under the table's 3/4 load
// limit. Callers that can bound a run's comparisons up front (4·n·un for a
// filter run) thereby keep every lookup and store to a single table. pairs
// ≤ 0 selects the default initial capacity.
func NewMemoSized(pairs int) *Memo {
	slots := memoMinSlots
	for int64(slots)*3/4 < int64(pairs) {
		slots *= 2
	}
	m := &Memo{}
	m.head.Store(newMemoTable(slots, nil))
	return m
}

func newMemoTable(slots int, prev *memoTable) *memoTable {
	limit := int64(slots) * 3 / 4
	return &memoTable{
		prev:  prev,
		mask:  uint64(slots - 1),
		limit: limit,
		slots: make([]atomic.Uint64, slots),
		log:   pubLog{chunks: make([]atomic.Pointer[logChunk], (limit>>logChunkBits)+1)},
	}
}

// packKey orders the pair and packs it into the key bits of an entry.
func packKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	if a < 0 || b >= memoIDLimit {
		panic(fmt.Sprintf("tournament: memo item IDs must be in [0, 2^31), got (%d, %d)", a, b))
	}
	return uint64(a)<<33 | uint64(b)<<2
}

// memoHash avalanches the key bits; cheap and uniform (SplitMix64 finalizer).
func memoHash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ k>>31
}

// get probes one table for the key; returns the packed entry when present.
// Probes terminate at the first empty slot: entries are never deleted and
// occupancy stays under limit, so an absent key always meets a zero word.
func (t *memoTable) get(k uint64) (uint64, bool) {
	h := memoHash(k)
	for i := uint64(0); ; i++ {
		e := t.slots[(h+i)&t.mask].Load()
		if e == 0 {
			return 0, false
		}
		if e&memoKeyMask == k {
			return e, true
		}
	}
}

// entryWinner decodes an entry's winner ID given its key.
func entryWinner(e uint64) int {
	lo := int(e >> 33)
	hi := int(e >> 2 & (memoIDLimit - 1))
	if e&memoWinnerBit != 0 {
		return hi
	}
	return lo
}

// lookup returns the cached winner ID for the pair, if any.
func (m *Memo) lookup(a, b int) (int, bool) {
	k := packKey(a, b)
	for t := m.head.Load(); t != nil; t = t.prev {
		if e, ok := t.get(k); ok {
			return entryWinner(e), true
		}
	}
	return 0, false
}

// store records the winner ID for the pair and returns the pair's frozen
// winner: the first published entry for a pair is never overwritten, so a
// caller racing a concurrent store of another answer gets that answer back.
func (m *Memo) store(a, b, winner int) int {
	k := packKey(a, b)
	e := k | memoLiveBit
	if hi := int(k >> 2 & (memoIDLimit - 1)); winner == hi && a != b {
		e |= memoWinnerBit
	}
	for {
		head := m.head.Load()
		for t := head.prev; t != nil; t = t.prev {
			if _, ok := t.get(k); ok {
				// Frozen by an earlier store; answer as lookup does, in
				// case a store/grow race also left the pair in a newer table.
				w, _ := m.lookup(a, b)
				return w
			}
		}
		if f, ok := head.tryInsert(k, e); ok {
			return entryWinner(f)
		}
		// The newest table is full (or filled while we probed): chain a
		// larger one in front and retry. The CAS admits exactly one grower;
		// losers simply observe the new head on retry.
		m.head.CompareAndSwap(head, newMemoTable(len(head.slots)*memoGrowth, head))
	}
}

// tryInsert publishes the entry into this table — slot first, then its
// publication log — or adopts an earlier or concurrent store of the same
// key. It returns the table's frozen entry for the key, and reports false
// only when the table is at capacity, telling the caller to grow.
func (t *memoTable) tryInsert(k, e uint64) (uint64, bool) {
	h := memoHash(k)
	for i := uint64(0); i <= t.mask; i++ {
		s := &t.slots[(h+i)&t.mask]
		cur := s.Load()
		if cur == 0 {
			// Reserve occupancy before publishing so live entries never
			// reach capacity and probes always terminate.
			if t.count.Add(1) > t.limit {
				t.count.Add(-1)
				return 0, false
			}
			if s.CompareAndSwap(0, e) {
				t.log.write(t.log.reserve(), e)
				return e, true
			}
			t.count.Add(-1)
			cur = s.Load()
		}
		if cur&memoKeyMask == k {
			return cur, true // frozen by an earlier or concurrent store
		}
	}
	return 0, false
}

// Len returns the number of cached pairs.
func (m *Memo) Len() int { return len(NewMemoImage(m).Refresh()) }

// Entries returns every cached (a, b, winner) triple with a ≤ b, sorted by
// (a, b) — the deterministic serialization order the checkpoint codec
// requires. Safe for concurrent use (entries are atomic snapshots).
func (m *Memo) Entries() [][3]int {
	packed := NewMemoImage(m).Refresh()
	out := make([][3]int, len(packed))
	for i, e := range packed {
		a, b, w := UnpackEntry(e)
		out[i] = [3]int{a, b, w}
	}
	return out
}

// UnpackEntry decodes one packed entry of a MemoImage into the pair's IDs
// (a ≤ b) and the winner ID.
func UnpackEntry(e uint64) (a, b, winner int) {
	return int(e >> 33), int(e >> 2 & (memoIDLimit - 1)), entryWinner(e)
}

// MemoImage is a sorted copy of a Memo's entries that a checkpoint writer
// keeps across snapshots, so each snapshot sorts only the answers published
// since the previous one instead of the whole memo.
//
// Entries are kept packed: because the lo ID occupies the high bits and the
// hi ID the bits below it, packed entries order numerically exactly as
// their pairs order by (a, b). Per memo table, the image remembers how far
// into the table's publication log it has copied. A refresh copies each
// log's new entries up to the first index still being written, sorts them
// and merges them into its run, so its cost follows the new entries, never
// the table's size; published entries never change, so the run stays exact.
//
// A MemoImage is not safe for concurrent use, but its memo may be stored to
// concurrently with Refresh: an entry published during a refresh is copied
// by it or by a later one, exactly once.
type MemoImage struct {
	m      *Memo
	tables []imageTable // newest first, like the memo's chain
	run    []uint64     // every copied entry, one per pair, ascending
	fresh  []uint64     // scratch: the entries first seen by a refresh
}

// imageTable tracks how much of one memo table's log the image has copied.
type imageTable struct {
	t    *memoTable
	seen int64 // log entries copied
}

// NewMemoImage returns an empty image of m; the first Refresh copies
// everything.
func NewMemoImage(m *Memo) *MemoImage { return &MemoImage{m: m} }

// Memo returns the memo the image mirrors.
func (im *MemoImage) Memo() *Memo { return im.m }

// Refresh brings the image up to date with the memo and returns every
// reachable entry, packed and in ascending (a, b) order, one per pair. When
// a store/grow race left one pair in two tables, the newest table's entry
// wins — the one lookup returns. The returned slice belongs to the image
// and is valid until the next Refresh.
func (im *MemoImage) Refresh() []uint64 {
	im.adoptTables()
	f := im.fresh[:0]
	for i := range im.tables {
		f = im.tables[i].collect(f)
	}
	im.fresh = f
	if len(f) == 0 {
		return im.run
	}
	slices.Sort(f)
	im.run = im.merge(im.run, im.dedup(f))
	return im.run
}

// adoptTables prepends the tables chained in since the last refresh.
func (im *MemoImage) adoptTables() {
	var known *memoTable
	if len(im.tables) > 0 {
		known = im.tables[0].t
	}
	var added []imageTable
	for t := im.m.head.Load(); t != nil && t != known; t = t.prev {
		added = append(added, imageTable{t: t})
	}
	if len(added) > 0 {
		im.tables = append(added, im.tables...)
	}
}

// collect appends the table's entries published since the last collect. It
// stops at the first index whose publisher has not written it yet; the next
// collect resumes there.
func (it *imageTable) collect(dst []uint64) []uint64 {
	log := &it.t.log
	for end := log.next.Load(); it.seen < end; it.seen++ {
		e := log.at(it.seen)
		if e == 0 {
			break
		}
		dst = append(dst, e)
	}
	return dst
}

// newer reports whether entry a, rather than entry b of the same pair, is
// the one lookup returns: the entry of the newest table holding the pair.
func (im *MemoImage) newer(a, b uint64) bool {
	for _, it := range im.tables {
		if e, ok := it.t.get(a & memoKeyMask); ok {
			return e == a
		}
	}
	return false
}

// dedup keeps one entry per pair of the sorted fresh entries.
func (im *MemoImage) dedup(f []uint64) []uint64 {
	out := f[:1]
	for _, e := range f[1:] {
		last := &out[len(out)-1]
		if e&memoKeyMask != *last&memoKeyMask {
			out = append(out, e)
		} else if im.newer(e, *last) {
			*last = e
		}
	}
	return out
}

// merge merges the ascending entries of add into the ascending run in
// place, from the back, and returns the grown run. A pair present in both
// keeps the newer table's entry.
func (im *MemoImage) merge(run, add []uint64) []uint64 {
	i, j := len(run)-1, len(add)-1
	run = slices.Grow(run, len(add))[:len(run)+len(add)]
	k := len(run) - 1
	for ; j >= 0; k-- {
		switch ri, aj := run[max(i, 0)]&memoKeyMask, add[j]&memoKeyMask; {
		case i >= 0 && ri > aj:
			run[k] = run[i]
			i--
		case i >= 0 && ri == aj:
			run[k] = run[i]
			if im.newer(add[j], run[i]) {
				run[k] = add[j]
			}
			i--
			j--
		default:
			run[k] = add[j]
			j--
		}
	}
	// Each shared pair left one unused slot between the untouched prefix
	// run[:i+1] and the merged tail run[k+1:].
	if k > i {
		run = run[:i+1+copy(run[i+1:], run[k+1:])]
	}
	return run
}

// Prime pre-loads the answer for one pair — how a resumed session replays a
// checkpoint's frozen answers. Like store, the first answer for a pair wins.
func (m *Memo) Prime(a, b, winner int) { m.store(a, b, winner) }
