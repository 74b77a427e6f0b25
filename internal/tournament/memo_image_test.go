package tournament

import (
	"slices"
	"testing"
)

// referenceEntries is the from-scratch extraction MemoImage replaces: every
// occupied slot of the memo's table, sorted by (a, b). Kept here as the
// oracle the incremental image is checked against.
func referenceEntries(m *Memo) []uint64 {
	var out []uint64
	for _, e := range m.slots {
		if e != 0 {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(x, y uint64) int {
		xa, xb, _ := UnpackEntry(x)
		ya, yb, _ := UnpackEntry(y)
		if xa != ya {
			return xa - ya
		}
		return xb - yb
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

// TestMemoImageIncremental refreshes one image between batches of stores
// that carry the memo through several rehashes (the first at 768 entries
// in the default 1024-slot table) and checks every refresh against a
// from-scratch extraction.
func TestMemoImageIncremental(t *testing.T) {
	m := NewMemo()
	im := NewMemoImage(m)
	checkImage(t, im, "empty")
	const n = 90 // 4005 pairs: three rehashes
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
	if len(m.slots) == memoMinSlots {
		t.Fatalf("memo never rehashed (%d entries)", m.Len())
	}
	if m.Len() != n*(n-1)/2 {
		t.Fatalf("Len = %d, want %d", m.Len(), n*(n-1)/2)
	}
	checkImage(t, im, "idle refresh")
}

// TestMemoImageAcrossRehash refreshes an image just before a rehash and
// after it, with a log chunk boundary in between, and checks both refreshes
// against a from-scratch extraction: a rehash moves every slot but neither
// the log nor the image's place in it.
func TestMemoImageAcrossRehash(t *testing.T) {
	m := NewMemo()
	im := NewMemoImage(m)
	limit := m.limit
	for i := 0; i < limit; i++ {
		m.store(i, i+5000, i+5000*(i%2))
	}
	checkImage(t, im, "full table")
	slots, extra := len(m.slots), 300
	for i := limit; i < limit+extra; i++ {
		m.store(i, i+5000, i)
	}
	if len(m.slots) != 2*slots {
		t.Fatalf("table has %d slots after passing its limit, want %d", len(m.slots), 2*slots)
	}
	checkImage(t, im, "after rehash")
	if got := len(im.Refresh()); got != limit+extra {
		t.Fatalf("image holds %d entries, want %d", got, limit+extra)
	}
}

// FuzzMemoImage interleaves stores, paid answers filled into the slot their
// lookup stopped at (with or without a store in between), forced rehashes
// and refreshes of one long-lived image, and checks each refresh against a
// from-scratch extraction and every pair against its first answer. The
// first byte picks the memo: a tiny table of 1 to 4 slots, so short inputs
// rehash many times, or a NewMemoSized memo, whose table spans several log
// chunks.
func FuzzMemoImage(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 0, 5, 9, 3, 1, 0, 7, 7, 2, 1, 3})
	f.Add([]byte{0, 0, 1, 2, 0, 3, 4, 0, 5, 6, 0, 7, 8, 0, 9, 10, 0, 11, 12, 0, 13, 14, 1, 2, 0, 3, 1, 1})
	f.Add([]byte{2, 3, 1, 2, 1, 4, 3, 4, 1, 0, 5, 6, 3, 1, 0, 7, 8, 1, 5, 3, 0, 9, 9, 1})
	f.Add([]byte{1, 40, 0, 1, 2, 3, 3, 4, 0, 0, 5, 6, 0, 7, 8, 1, 5, 3, 2, 0, 9, 10, 1})
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
		if sel := next(); sel%2 == 0 {
			m = newMemo(1 << (sel / 2 % 3))
		} else {
			m = NewMemoSized(next() * 16)
		}
		im := NewMemoImage(m)
		first := make(map[uint64]int) // pair key → the first winner stored
		remember := func(a, b, w int) {
			if _, ok := first[packKey(a, b)]; !ok {
				first[packKey(a, b)] = w
			}
		}
		for len(ops) > 0 {
			switch next() % 4 {
			case 0: // store
				a, b := next()%64, next()%64
				m.store(a, b, b)
				remember(a, b, b)
			case 1:
				checkImage(t, im, "refresh")
			case 2: // rehash from wherever the table is, tiny or not
				if len(m.slots) < 1<<12 {
					m.rehash()
				}
			case 3: // the oracle's miss path: find, pay, maybe store, fill
				a, b := next()%64, 64+next()%64
				if _, ok, at := m.find(a, b); !ok {
					if c := next(); c%2 == 1 {
						m.store(a, b, a) // the pair itself, frozen in between
						remember(a, b, a)
					} else {
						m.store(c%64, 128+c, c%64)
						remember(c%64, 128+c, c%64)
					}
					m.fill(at, b)
					remember(a, b, b)
				}
			}
		}
		checkImage(t, im, "end")
		if m.Len() != len(first) {
			t.Fatalf("Len = %d, want %d distinct pairs", m.Len(), len(first))
		}
		for k, want := range first {
			a, b, _ := UnpackEntry(k)
			if w, ok := m.lookup(a, b); !ok || w != want {
				t.Fatalf("lookup(%d, %d) = %d, %v; want the first answer %d", a, b, w, ok, want)
			}
		}
	})
}
