package tournament

import (
	"slices"
	"sort"
	"sync"
	"testing"
)

// referenceEntries is the from-scratch extraction MemoImage replaces: visit
// every table newest first, keep the first entry seen per key (the one
// lookup returns), then sort by (a, b). Kept here as the oracle the
// incremental image is checked against.
func referenceEntries(m *Memo) []uint64 {
	seen := make(map[uint64]struct{})
	var out []uint64
	for t := m.head.Load(); t != nil; t = t.prev {
		for i := range t.slots {
			e := t.slots[i].Load()
			if e == 0 {
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
	got, want := im.Refresh(), referenceEntries(im.Memo())
	if !slices.Equal(got, want) {
		t.Fatalf("%s: Refresh returned %d entries, reference %d (first difference at %d)",
			step, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func chainDepth(m *Memo) int {
	n := 0
	for t := m.head.Load(); t != nil; t = t.prev {
		n++
	}
	return n
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
		if !m.head.Load().tryInsert(k, inOld^memoWinnerBit) {
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

// TestMemoImageConcurrentStores refreshes while many goroutines store:
// every refresh must be strictly ascending and contain the previous one,
// and the last must equal the reference. Under -race this also checks that
// the image reads slots only through atomics.
func TestMemoImageConcurrentStores(t *testing.T) {
	m := NewMemo()
	im := NewMemoImage(m)
	const workers, keys = 4, 3000
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
}

// FuzzMemoImage interleaves stores, table growth, forced cross-table
// duplicates and refreshes of one long-lived image, and checks each refresh
// against a from-scratch extraction. Tables start at 16 slots so short
// inputs reach deep chains.
func FuzzMemoImage(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 5, 9, 3, 1, 0, 7, 7, 2, 1, 3})
	f.Add([]byte{0, 1, 2, 0, 3, 4, 0, 5, 6, 0, 7, 8, 0, 9, 10, 0, 11, 12, 0, 13, 14, 3, 2, 0, 3, 1, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 4096)]
		m := &Memo{}
		m.head.Store(newMemoTable(16, nil))
		im := NewMemoImage(m)
		var keys []uint64
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := int(ops[0])
			ops = ops[1:]
			return b
		}
		for step := 0; len(ops) > 0; step++ {
			switch next() % 4 {
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
				checkImage(t, im, "refresh")
			}
		}
		checkImage(t, im, "end")
	})
}
