package tournament

import (
	"slices"
	"sort"
	"sync"
	"testing"
)

// referenceEntries is the from-scratch extraction MemoImage replaces: visit
// every table's slots newest first, keep the first entry seen per key (the
// one lookup returns), then sort by (a, b). Kept here as the oracle the
// incremental image is checked against.
func referenceEntries(m *Memo) []uint64 { return visibleEntries(m, nil) }

// visibleEntries is referenceEntries over the entries a refresh can reach:
// hidden reports the slot entries it cannot reach yet, because their log
// entry, or an earlier one of the same table, is still unwritten.
func visibleEntries(m *Memo, hidden func(t *memoTable, e uint64) bool) []uint64 {
	seen := make(map[uint64]struct{})
	var out []uint64
	for t := m.head.Load(); t != nil; t = t.prev {
		for i := range t.slots {
			e := t.slots[i].Load()
			if e == 0 || hidden != nil && hidden(t, e) {
				continue
			}
			k := e & memoKeyMask
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a>>33 != b>>33 {
			return a>>33 < b>>33
		}
		return a>>2&(memoIDLimit-1) < b>>2&(memoIDLimit-1)
	})
	return out
}

func checkImage(t *testing.T, im *MemoImage, step string) {
	t.Helper()
	checkVisible(t, im, nil, step)
}

func checkVisible(t *testing.T, im *MemoImage, hidden func(*memoTable, uint64) bool, step string) {
	t.Helper()
	got, want := im.Refresh(), visibleEntries(im.Memo(), hidden)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Refresh returned %d entries, reference %d (first difference at %d)",
			step, len(got), len(want), firstDiff(got, want))
	}
}

// chainDepth reports how many tables m's chain holds: 1 as long as the memo
// never outgrew the capacity it was created with.
func chainDepth(m *Memo) int {
	n := 0
	for t := m.head.Load(); t != nil; t = t.prev {
		n++
	}
	return n
}

// claimSlot is tryInsert's slot publication without the log write that
// follows it: it leaves the store paused between its CAS and its log entry.
// It reports false when the key is already present or the table is full.
func claimSlot(t *memoTable, k, e uint64) bool {
	h := memoHash(k)
	for i := uint64(0); i <= t.mask; i++ {
		s := &t.slots[(h+i)&t.mask]
		if cur := s.Load(); cur != 0 {
			if cur&memoKeyMask == k {
				return false
			}
			continue
		}
		if t.count.Add(1) > t.limit {
			t.count.Add(-1)
			return false
		}
		return s.CompareAndSwap(0, e)
	}
	return false
}

// pausedPublisher is a store stopped after its winning CAS: its entry is in
// the table (lookup serves it) but not yet in the table's log. With reserved
// set it already took its log index, so every later entry of the table sits
// behind the unwritten index.
type pausedPublisher struct {
	t        *memoTable
	e        uint64
	reserved bool
	idx      int64
	before   map[uint64]bool // the table's entries when the index was taken
}

func pausePublisher(t *memoTable, k uint64, reserve bool) *pausedPublisher {
	p := &pausedPublisher{t: t, e: k | memoLiveBit}
	if !claimSlot(t, k, p.e) {
		return nil
	}
	if reserve {
		p.reserved, p.idx = true, t.log.reserve()
		p.before = make(map[uint64]bool)
		for i := range t.slots {
			if e := t.slots[i].Load(); e != 0 && e != p.e {
				p.before[e] = true
			}
		}
	}
	return p
}

// hides reports whether a refresh cannot see entry e of table t yet: the
// paused entry itself, and — once its index is reserved — every entry the
// table published after it.
func (p *pausedPublisher) hides(t *memoTable, e uint64) bool {
	if p == nil || t != p.t {
		return false
	}
	return e == p.e || p.reserved && !p.before[e]
}

// finish writes the paused entry's log entry.
func (p *pausedPublisher) finish() {
	if !p.reserved {
		p.idx = p.t.log.reserve()
	}
	p.t.log.write(p.idx, p.e)
}

func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestMemoImageIncremental refreshes one image between batches of stores
// that carry the memo past its first chain point (768 entries in the
// default 1024-slot table) and checks every refresh against a from-scratch
// extraction.
func TestMemoImageIncremental(t *testing.T) {
	m := NewMemo()
	im := NewMemoImage(m)
	checkImage(t, im, "empty")
	const n = 90 // 4005 pairs: two chained tables
	stored := 0
	for a := n - 1; a >= 0; a-- {
		for b := a + 1; b < n; b++ {
			winner := a
			if (a*7+b)%3 == 0 {
				winner = b
			}
			m.store(b, a, winner)
			if stored++; stored%97 == 0 {
				checkImage(t, im, "mid-run")
			}
		}
	}
	checkImage(t, im, "final")
	if chainDepth(m) < 2 {
		t.Fatalf("memo never chained a second table (%d entries)", m.Len())
	}
	if m.Len() != n*(n-1)/2 {
		t.Fatalf("Len = %d, want %d", m.Len(), n*(n-1)/2)
	}
	checkImage(t, im, "idle refresh")
}

// TestMemoImageCrossTableDuplicate forces the store/grow race's outcome —
// one pair published in two tables with opposite answers — and checks that
// the image, Entries and Len all keep only the newest table's entry, the
// answer lookup serves.
func TestMemoImageCrossTableDuplicate(t *testing.T) {
	for _, olderFirst := range []bool{true, false} {
		m := NewMemo()
		im := NewMemoImage(m)
		for i := 0; i < 800; i++ { // past the chain point
			m.store(i, i+1000, i)
		}
		old := m.head.Load().prev
		if old == nil {
			t.Fatal("memo did not chain")
		}
		k := packKey(5, 1005)
		inOld, _ := old.get(k)
		if olderFirst {
			im.Refresh()
		}
		// The late store lands in the newest table with the other answer.
		if _, ok := m.head.Load().tryInsert(k, inOld^memoWinnerBit); !ok {
			t.Fatal("tryInsert failed")
		}
		checkImage(t, im, "after duplicate")
		if w, _ := m.lookup(5, 1005); w != 1005 {
			t.Fatalf("lookup = %d, want the newest table's 1005", w)
		}
		for _, e := range m.Entries() {
			if e[0] == 5 && e[1] == 1005 && e[2] != 1005 {
				t.Fatalf("Entries kept the older answer %v", e)
			}
		}
		if m.Len() != 800 {
			t.Fatalf("Len = %d, want 800", m.Len())
		}
	}
}

// TestMemoImageConcurrentStores refreshes while many goroutines store, into
// an unsized memo that chains tables mid-run and into a sized one that keeps
// a single table: every refresh must be strictly ascending and contain the
// previous one, and the last must equal the reference. Under -race this also
// checks that the image reads slots and logs only through atomics.
func TestMemoImageConcurrentStores(t *testing.T) {
	const workers, keys = 4, 3000
	for _, c := range []struct {
		name string
		m    *Memo
	}{{"unsized", NewMemo()}, {"sized", NewMemoSized(keys)}} {
		t.Run(c.name, func(t *testing.T) {
			m := c.m
			im := NewMemoImage(m)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := w; k < keys; k += workers {
						m.store(k, k+keys, k+keys*(k%2))
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			var prev []uint64
			for finished := false; !finished; {
				select {
				case <-done:
					finished = true
				default:
				}
				got := im.Refresh()
				for i := 1; i < len(got); i++ {
					if got[i-1]&memoKeyMask >= got[i]&memoKeyMask {
						t.Fatalf("refresh not strictly ascending at %d", i)
					}
				}
				for _, e := range prev {
					if _, ok := slices.BinarySearch(got, e); !ok {
						t.Fatalf("refresh dropped entry %#x", e)
					}
				}
				prev = append(prev[:0], got...)
			}
			checkImage(t, im, "final")
			if len(prev) != keys {
				t.Fatalf("final refresh has %d entries, want %d", len(prev), keys)
			}
			if c.name == "sized" && chainDepth(m) != 1 {
				t.Fatalf("sized memo chained %d tables", chainDepth(m))
			}
		})
	}
}

// TestMemoImagePausedPublisher stops a store between its winning CAS and its
// log write — before and after it took its log index — while other stores
// continue. A refresh must not see the paused entry (nor, once its index is
// taken, anything published behind it), and the refresh after the write must
// contain every entry exactly once.
func TestMemoImagePausedPublisher(t *testing.T) {
	for _, reserve := range []bool{false, true} {
		m := NewMemoSized(600) // three log chunks' worth
		im := NewMemoImage(m)
		for i := 0; i < 250; i++ {
			m.store(i, i+1000, i)
		}
		checkImage(t, im, "before pause")
		p := pausePublisher(m.head.Load(), packKey(7, 7000), reserve)
		if p == nil {
			t.Fatal("pause: slot not claimed")
		}
		if w, ok := m.lookup(7, 7000); !ok || w != 7 {
			t.Fatalf("paused entry not served by lookup: %d, %v", w, ok)
		}
		for i := 250; i < 500; i++ { // across a log chunk boundary
			m.store(i, i+1000, i+1000)
			if i%50 == 0 {
				checkVisible(t, im, p.hides, "paused")
			}
		}
		got := im.Refresh()
		if _, ok := slices.BinarySearch(got, p.e); ok {
			t.Fatalf("reserve=%v: refresh copied an unwritten entry", reserve)
		}
		if want := map[bool]int{false: 500, true: 250}[reserve]; len(got) != want {
			t.Fatalf("reserve=%v: paused refresh has %d entries, want %d", reserve, len(got), want)
		}
		p.finish()
		checkImage(t, im, "after write")
		if got := im.Refresh(); len(got) != 501 {
			t.Fatalf("reserve=%v: final refresh has %d entries, want 501", reserve, len(got))
		}
		if m.Len() != 501 || chainDepth(m) != 1 {
			t.Fatalf("Len = %d over %d tables, want 501 over 1", m.Len(), chainDepth(m))
		}
	}
}

// FuzzMemoImage interleaves stores, table growth, forced cross-table
// duplicates, paused publishers and refreshes of one long-lived image, and
// checks each refresh against a from-scratch extraction of the entries whose
// log entries are written. The first byte picks the memo: an unsized chain
// whose tables start at 16 slots, so short inputs reach deep chains, or a
// NewMemoSized memo, whose one large table spans several log chunks.
func FuzzMemoImage(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 0, 5, 9, 3, 1, 0, 7, 7, 2, 1, 3})
	f.Add([]byte{0, 0, 1, 2, 0, 3, 4, 0, 5, 6, 0, 7, 8, 0, 9, 10, 0, 11, 12, 0, 13, 14, 3, 2, 0, 3, 1, 3})
	f.Add([]byte{0, 0, 1, 2, 4, 3, 4, 1, 0, 5, 6, 3, 1, 0, 7, 8, 3, 5, 3, 0, 9, 9, 3})
	f.Add([]byte{1, 40, 0, 1, 2, 4, 3, 4, 0, 0, 5, 6, 0, 7, 8, 3, 5, 3, 0, 9, 10, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 4096)]
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := int(ops[0])
			ops = ops[1:]
			return b
		}
		var m *Memo
		if next()%2 == 0 {
			m = &Memo{}
			m.head.Store(newMemoTable(16, nil))
		} else {
			m = NewMemoSized(next() * 16)
		}
		im := NewMemoImage(m)
		var keys []uint64
		var paused *pausedPublisher
		for step := 0; len(ops) > 0; step++ {
			switch next() % 6 {
			case 0: // store
				a, b := next()%64, next()%64
				m.store(a, b, b)
				keys = append(keys, packKey(a, b))
			case 1: // chain a new table in front, as a grower would
				if head := m.head.Load(); chainDepth(m) < 6 {
					m.head.Store(newMemoTable(len(head.slots)*2, head))
				}
			case 2: // publish an existing pair again in another table
				if len(keys) == 0 {
					continue
				}
				k := keys[next()%len(keys)]
				t := m.head.Load()
				for hops := next() % 6; hops > 0 && t.prev != nil; hops-- {
					t = t.prev
				}
				if _, ok := t.get(k); !ok && t.count.Load() < t.limit-1 {
					t.tryInsert(k, k|memoLiveBit|uint64(next()%2)<<1)
				}
			case 3:
				checkVisible(t, im, paused.hides, "refresh")
			case 4: // pause a publisher of a fresh pair after its CAS
				if paused == nil {
					a, b := next()%64, 64+next()%64
					if _, ok := m.lookup(a, b); !ok {
						paused = pausePublisher(m.head.Load(), packKey(a, b), next()%2 == 1)
					}
				}
			case 5: // the paused publisher writes its log entry
				if paused != nil {
					paused.finish()
					paused = nil
				}
			}
		}
		checkVisible(t, im, paused.hides, "end")
		if paused != nil {
			paused.finish()
			checkImage(t, im, "after the last write")
		}
	})
}
