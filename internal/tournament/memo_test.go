package tournament

import "testing"

func TestMemoFirstStoreWins(t *testing.T) {
	m := NewMemo()
	m.store(1, 2, 2)
	m.store(1, 2, 1) // later, conflicting store must lose
	m.store(2, 1, 1) // either pair order hits the same cell
	if w, ok := m.lookup(1, 2); !ok || w != 2 {
		t.Fatalf("lookup(1,2) = %d,%v, want 2,true", w, ok)
	}
	if w, ok := m.lookup(2, 1); !ok || w != 2 {
		t.Fatalf("lookup(2,1) = %d,%v, want 2,true", w, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestMemoStoreReturnsFrozen checks that store returns the pair's frozen
// answer — its own on a first store, the earlier one on a losing store —
// before and after a rehash moved the earlier entry.
func TestMemoStoreReturnsFrozen(t *testing.T) {
	m := NewMemo()
	if w := m.store(1, 2, 2); w != 2 {
		t.Fatalf("first store returned %d, want its own 2", w)
	}
	if w := m.store(2, 1, 1); w != 2 {
		t.Fatalf("losing store returned %d, want the frozen 2", w)
	}
	for i := 0; i < 800; i++ { // past the first table's limit
		m.store(i, i+1000, i+1000)
	}
	if len(m.slots) == memoMinSlots {
		t.Fatal("memo did not rehash")
	}
	if w := m.store(1, 2, 1); w != 2 {
		t.Fatalf("losing store after a rehash returned %d, want the frozen 2", w)
	}
	if w := m.store(5000, 5001, 5000); w != 5000 {
		t.Fatalf("first store after a rehash returned %d, want its own 5000", w)
	}
}

func TestMemoLookupMiss(t *testing.T) {
	m := NewMemo()
	if _, ok := m.lookup(3, 4); ok {
		t.Fatal("empty memo reported a hit")
	}
	m.store(3, 4, 4)
	if _, ok := m.lookup(3, 5); ok {
		t.Fatal("unrelated pair reported a hit")
	}
}

func TestMemoSelfPair(t *testing.T) {
	m := NewMemo()
	m.store(7, 7, 7)
	if w, ok := m.lookup(7, 7); !ok || w != 7 {
		t.Fatalf("lookup(7,7) = %d,%v, want 7,true", w, ok)
	}
}

// TestMemoGrowth drives the table well past its initial capacity, through
// six rehashes, and verifies every entry is still served with its answer.
func TestMemoGrowth(t *testing.T) {
	m := NewMemo()
	const n = 300 // 300*299/2 = 44850 pairs ≫ the 1024-slot initial table
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			winner := a
			if (a+b)%3 == 0 {
				winner = b
			}
			m.store(a, b, winner)
		}
	}
	want := n * (n - 1) / 2
	if m.Len() != want {
		t.Fatalf("Len = %d, want %d", m.Len(), want)
	}
	if len(m.slots) != memoMinSlots<<6 {
		t.Fatalf("table has %d slots, want %d after six rehashes", len(m.slots), memoMinSlots<<6)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			winner := a
			if (a+b)%3 == 0 {
				winner = b
			}
			if w, ok := m.lookup(b, a); !ok || w != winner {
				t.Fatalf("lookup(%d,%d) = %d,%v, want %d,true", b, a, w, ok, winner)
			}
		}
	}
}

// TestMemoEntriesSortedRoundTrip pins the contract the checkpoint codec
// depends on: Entries is sorted by (a, b) and Prime reconstructs an
// equivalent memo.
func TestMemoEntriesSortedRoundTrip(t *testing.T) {
	m := NewMemo()
	// Insert in a scrambled order.
	for i := 500; i > 0; i-- {
		a, b := (i*7)%97, (i*13)%89+97
		m.store(a, b, b)
	}
	entries := m.Entries()
	if len(entries) != m.Len() {
		t.Fatalf("Entries len %d != Len %d", len(entries), m.Len())
	}
	for i := 1; i < len(entries); i++ {
		p, q := entries[i-1], entries[i]
		if p[0] > q[0] || (p[0] == q[0] && p[1] >= q[1]) {
			t.Fatalf("Entries not strictly sorted at %d: %v then %v", i, p, q)
		}
	}
	clone := NewMemo()
	for _, e := range entries {
		clone.Prime(e[0], e[1], e[2])
	}
	for _, e := range entries {
		if w, ok := clone.lookup(e[0], e[1]); !ok || w != e[2] {
			t.Fatalf("clone.lookup(%d,%d) = %d,%v, want %d,true", e[0], e[1], w, ok, e[2])
		}
	}
}

// TestNewMemoSized checks a memo sized for pairs entries holds that many
// without a rehash: the guarantee a run's naïve memo relies on to allocate
// its table once while its paid pairs stay within the size it was given.
func TestNewMemoSized(t *testing.T) {
	for _, pairs := range []int{5000, 80000} {
		m := NewMemoSized(pairs)
		slots := len(m.slots)
		for i := 0; i < pairs; i++ {
			m.store(i, i+100000, i)
		}
		if m.Len() != pairs || len(m.slots) != slots {
			t.Fatalf("NewMemoSized(%d): Len = %d in %d slots, want %d in the %d it started with", pairs, m.Len(), len(m.slots), pairs, slots)
		}
	}
}

// TestMemoFillAfterChange checks fill, the store half of the oracle's
// single-probe miss path: it writes into the slot its lookup stopped at when
// the memo is unchanged, and otherwise probes again — after a rehash moved
// every slot, and after a store froze the same pair with another answer.
func TestMemoFillAfterChange(t *testing.T) {
	m := NewMemo()
	if _, ok, at := m.find(1, 2); ok {
		t.Fatal("empty memo reported a hit")
	} else if w := m.fill(at, 2); w != 2 {
		t.Fatalf("fill into an unchanged memo returned %d, want 2", w)
	}
	_, _, at := m.find(3, 4)
	for i := 0; i < 1000; i++ { // rehashes the table under the pending fill
		m.store(i, i+2000, i)
	}
	if w := m.fill(at, 3); w != 3 {
		t.Fatalf("fill after a rehash returned %d, want 3", w)
	}
	_, _, at = m.find(5, 6)
	m.store(6, 5, 6)
	if w := m.fill(at, 5); w != 6 {
		t.Fatalf("fill after the pair was frozen returned %d, want the frozen 6", w)
	}
	for _, c := range [][3]int{{1, 2, 2}, {3, 4, 3}, {5, 6, 6}, {999, 2999, 999}} {
		if w, ok := m.lookup(c[0], c[1]); !ok || w != c[2] {
			t.Fatalf("lookup(%d, %d) = %d, %v; want %d", c[0], c[1], w, ok, c[2])
		}
	}
	if m.Len() != 1003 {
		t.Fatalf("Len = %d, want 1003", m.Len())
	}
}

func TestMemoPanicsOnUnpackableID(t *testing.T) {
	for _, bad := range [][2]int{{-1, 2}, {1 << 31, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("store(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			NewMemo().store(bad[0], bad[1], bad[0])
		}()
	}
}
