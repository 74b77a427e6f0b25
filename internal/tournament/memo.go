package tournament

import (
	"fmt"
	"slices"
)

// Memo caches the first answer to every unordered pair for one worker class
// — the n × n comparison table of Appendix A — as an open-addressed hash
// table owned by one run's goroutine.
//
// Each entry is a single packed uint64 (both 31-bit item IDs, a winner bit,
// and an occupancy bit) in a power-of-two slot array probed linearly, so
// lookups and stores are allocation-free in the steady state — the
// property the zero-alloc hot-path benchmarks assert. The first store for a
// pair wins: a later store of the same pair leaves the entry as it is and
// returns the frozen answer.
//
// A run that can bound its distinct pairs up front builds its memo with
// NewMemoSized — a session sizes its naïve memo from the filter's 4·n·un
// comparison bound — and never rehashes within that bound. A memo that
// fills anyway (an unsized NewMemo, or a run past its bound) rehashes every
// entry into a slot array twice the size, so there is always one table.
//
// The memo also keeps a publication log: every entry in the order it was
// stored, in fixed-size chunks allocated as entries arrive. A MemoImage
// copies the log from where it stopped, so a refresh costs time in
// proportion to the entries new since the previous one; a rehash moves
// slots, never the log.
//
// A Memo is not safe for concurrent use. Its run's goroutine stores to it,
// and a checkpoint writer reads it on the same goroutine, between stores.
type Memo struct {
	slots []uint64   // packed entries, zero when empty; len is a power of two
	count int        // entries stored; kept ≤ limit, so a probe meets a zero slot
	limit int        // 3/4 of len(slots)
	log   [][]uint64 // every stored entry, in store order, memoLogChunk per chunk
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

	// memoMinSlots is the slot count of NewMemo; each rehash doubles it.
	memoMinSlots = 1 << 10

	memoLogBits  = 10
	memoLogChunk = 1 << memoLogBits // log entries per chunk
	memoLogMask  = memoLogChunk - 1
)

// NewMemo returns an empty memo table with the default initial capacity.
func NewMemo() *Memo { return NewMemoSized(0) }

// NewMemoSized returns an empty memo that holds pairs distinct entries
// without rehashing: the smallest power-of-two capacity (at least the
// default) that keeps pairs entries under the table's 3/4 load limit.
// Callers that can bound a run's comparisons up front (4·n·un for a filter
// run) thereby allocate the table once. pairs ≤ 0 selects the default
// initial capacity.
func NewMemoSized(pairs int) *Memo {
	slots := memoMinSlots
	for slots*3/4 < pairs {
		slots *= 2
	}
	return newMemo(slots)
}

// newMemo returns an empty memo of the given power-of-two slot count.
func newMemo(slots int) *Memo {
	return &Memo{slots: make([]uint64, slots), limit: slots * 3 / 4}
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

// packEntry builds the live entry recording winner for key k. A winner
// other than the pair's hi ID records lo.
func packEntry(k uint64, winner int) uint64 {
	e := k | memoLiveBit
	if winner == int(k>>2&(memoIDLimit-1)) && winner != int(k>>33) {
		e |= memoWinnerBit
	}
	return e
}

// memoHash avalanches the key bits; cheap and uniform (SplitMix64 finalizer).
func memoHash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ k>>31
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

// probe returns the index of the slot holding key k, or of the empty slot
// that ends k's probe sequence, and that slot's word (zero when empty).
// Entries are never deleted and occupancy stays under the slot count, so an
// absent key always meets a zero word.
func (m *Memo) probe(k uint64) (uint64, uint64) {
	mask := uint64(len(m.slots) - 1)
	for i := memoHash(k); ; i++ {
		if e := m.slots[i&mask]; e == 0 || e&memoKeyMask == k {
			return i & mask, e
		}
	}
}

// memoSlot is where a lookup that found no entry stopped: the pair's key,
// the empty slot its entry belongs in, and the memo's entry count then,
// which tells fill whether the slot is still the right one.
type memoSlot struct {
	k     uint64
	slot  uint64
	count int
}

// find returns the cached winner ID for the pair, if any; on a miss it also
// returns where the probe stopped, for fill.
func (m *Memo) find(a, b int) (winner int, ok bool, at memoSlot) {
	k := packKey(a, b)
	slot, e := m.probe(k)
	if e != 0 {
		return entryWinner(e), true, memoSlot{}
	}
	return 0, false, memoSlot{k: k, slot: slot, count: m.count}
}

// lookup returns the cached winner ID for the pair, if any.
func (m *Memo) lookup(a, b int) (int, bool) {
	w, ok, _ := m.find(a, b)
	return w, ok
}

// fill stores winner for the pair a find missed at, and returns the pair's
// frozen winner. The entry goes straight into the slot the probe stopped
// at, unless the memo has changed since: a store in between (which may have
// frozen this very pair or rehashed the table) sends it through store.
func (m *Memo) fill(at memoSlot, winner int) int {
	if at.count != m.count || m.count == m.limit {
		return m.storeKey(at.k, winner)
	}
	return m.insert(at.slot, packEntry(at.k, winner))
}

// store records the winner ID for the pair and returns the pair's frozen
// winner: the first entry stored for a pair is never overwritten.
func (m *Memo) store(a, b, winner int) int { return m.storeKey(packKey(a, b), winner) }

func (m *Memo) storeKey(k uint64, winner int) int {
	slot, e := m.probe(k)
	if e != 0 {
		return entryWinner(e)
	}
	if m.count == m.limit {
		m.rehash()
		slot, _ = m.probe(k)
	}
	return m.insert(slot, packEntry(k, winner))
}

// insert writes entry e into the empty slot and appends it to the log; it
// returns the entry's winner.
func (m *Memo) insert(slot, e uint64) int {
	m.slots[slot] = e
	if m.count&memoLogMask == 0 {
		m.log = append(m.log, make([]uint64, memoLogChunk))
	}
	m.log[m.count>>memoLogBits][m.count&memoLogMask] = e
	m.count++
	return entryWinner(e)
}

// rehash moves every entry into a slot array twice the size.
func (m *Memo) rehash() {
	old := m.slots
	m.slots = make([]uint64, 2*len(old))
	m.limit = len(m.slots) * 3 / 4
	mask := uint64(len(m.slots) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := memoHash(e & memoKeyMask)
		for m.slots[i&mask] != 0 {
			i++
		}
		m.slots[i&mask] = e
	}
}

// appendLog appends the log's entries from index from onwards to dst, in
// store order.
func (m *Memo) appendLog(dst []uint64, from int) []uint64 {
	for i := from; i < m.count; {
		lo := i & memoLogMask
		hi := min(memoLogChunk, lo+m.count-i)
		dst = append(dst, m.log[i>>memoLogBits][lo:hi]...)
		i += hi - lo
	}
	return dst
}

// Len returns the number of cached pairs.
func (m *Memo) Len() int { return m.count }

// Entries returns every cached (a, b, winner) triple with a ≤ b, sorted by
// (a, b) — the deterministic serialization order the checkpoint codec
// requires.
func (m *Memo) Entries() [][3]int {
	packed := m.appendLog(nil, 0)
	slices.Sort(packed)
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
// keeps across snapshots, so each snapshot sorts only the answers stored
// since the previous one instead of the whole memo.
//
// Entries are kept packed: because the lo ID occupies the high bits and the
// hi ID the bits below it, packed entries order numerically exactly as
// their pairs order by (a, b). The image remembers how far into the memo's
// publication log it has copied. A refresh copies the log's new entries,
// sorts them and merges them into its run, so its cost follows the new
// entries, never the table's size; stored entries never change, so the run
// stays exact. Like its memo, a MemoImage is not safe for concurrent use.
type MemoImage struct {
	m     *Memo
	seen  int      // log entries copied
	run   []uint64 // every copied entry, one per pair, ascending
	fresh []uint64 // scratch: the entries first seen by a refresh
}

// NewMemoImage returns an empty image of m; the first Refresh copies
// everything.
func NewMemoImage(m *Memo) *MemoImage { return &MemoImage{m: m} }

// Memo returns the memo the image mirrors.
func (im *MemoImage) Memo() *Memo { return im.m }

// Refresh brings the image up to date with the memo and returns every
// entry, packed and in ascending (a, b) order, one per pair. The returned
// slice belongs to the image and is valid until the next Refresh.
func (im *MemoImage) Refresh() []uint64 {
	f := im.m.appendLog(im.fresh[:0], im.seen)
	im.fresh, im.seen = f, im.m.count
	if len(f) == 0 {
		return im.run
	}
	slices.Sort(f)
	im.run = merge(im.run, f)
	return im.run
}

// merge merges the ascending entries of add, whose pairs run does not hold,
// into the ascending run in place, from the back, and returns the grown run.
func merge(run, add []uint64) []uint64 {
	i, j := len(run)-1, len(add)-1
	run = slices.Grow(run, len(add))[:len(run)+len(add)]
	for k := len(run) - 1; j >= 0; k-- {
		if i >= 0 && run[i] > add[j] {
			run[k] = run[i]
			i--
		} else {
			run[k] = add[j]
			j--
		}
	}
	return run
}

// Prime pre-loads the answer for one pair — how a resumed session replays a
// checkpoint's frozen answers. Like store, the first answer for a pair wins.
func (m *Memo) Prime(a, b, winner int) { m.store(a, b, winner) }
