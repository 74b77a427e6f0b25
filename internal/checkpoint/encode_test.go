package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"crowdmax/internal/cost"
)

// referenceEncode is the encoder AppendSnapshot replaced: the payload
// appended word by word, then copied behind a separately built header. It
// stays here as the oracle for byte identity.
func referenceEncode(s *State) []byte {
	var p payload
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
	for _, table := range [][]PairAnswer{s.NaiveMemo, s.ExpertMemo} {
		p.i64(int64(len(table)))
		for _, e := range table {
			p.i64(e.A)
			p.i64(e.B)
			p.i64(e.Winner)
		}
	}
	kind := s.Kind
	if kind == "" {
		kind = KindMaxFind
	}
	p.str(kind)
	p.i64(int64(len(s.Workload)))
	p.b = append(p.b, s.Workload...)
	p.i64(int64(len(s.ValueMemo)))
	for _, e := range s.ValueMemo {
		p.i64(e.ID)
		p.i64(e.Rep)
		p.u64(math.Float64bits(e.Value))
	}
	out := make([]byte, headerSize+len(p.b))
	copy(out, magic)
	binary.LittleEndian.PutUint32(out[4:], version)
	binary.LittleEndian.PutUint32(out[8:], crc32.Checksum(p.b, castagnoli))
	binary.LittleEndian.PutUint64(out[12:], uint64(len(p.b)))
	copy(out[headerSize:], p.b)
	return out
}

func encodeCases() map[string]*State {
	big := sampleState()
	for i := int64(0); i < 1000; i++ {
		big.NaiveMemo = append(big.NaiveMemo, PairAnswer{A: i, B: i + 7, Winner: i + 7*(i%2)})
	}
	long := sampleState()
	long.Phase = strings.Repeat("p", maxStringLen+40) // truncated by the codec
	long.Rung = strings.Repeat("r", maxStringLen)
	long.Kind = ""
	return map[string]*State{"zero": {}, "sample": sampleState(), "big": big, "long-strings": long}
}

// TestAppendSnapshotMatchesReference pins Encode and AppendSnapshot —
// appending after existing bytes, into a reused buffer, or from nil — to
// the reference encoder's bytes.
func TestAppendSnapshotMatchesReference(t *testing.T) {
	var reused []byte
	for name, s := range encodeCases() {
		s.SortPairs()
		want := referenceEncode(s)
		if got := Encode(s); !bytes.Equal(got, want) {
			t.Errorf("%s: Encode differs from the reference", name)
		}
		prefix := []byte("prefix")
		got := AppendSnapshot(prefix, s, PairAnswers(s.NaiveMemo), PairAnswers(s.ExpertMemo))
		if !bytes.Equal(got[:len(prefix)], []byte("prefix")) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: AppendSnapshot after a prefix differs from the reference", name)
		}
		reused = AppendSnapshot(reused[:0], s, PairAnswers(s.NaiveMemo), PairAnswers(s.ExpertMemo))
		if !bytes.Equal(reused, want) {
			t.Errorf("%s: AppendSnapshot into a reused buffer differs from the reference", name)
		}
	}
}

// TestAppendSnapshotSizesExactly checks that AppendSnapshot's size
// computation is exact and that it never allocates into a buffer that
// already holds a snapshot of the same size.
func TestAppendSnapshotSizesExactly(t *testing.T) {
	for name, s := range encodeCases() {
		if got, want := encodedSize(s, len(s.NaiveMemo)+len(s.ExpertMemo)), len(referenceEncode(s)); got != want {
			t.Errorf("%s: encodedSize = %d, encoding is %d bytes", name, got, want)
		}
	}
	s := encodeCases()["big"]
	naive, expert := PairAnswers(s.NaiveMemo), PairAnswers(s.ExpertMemo)
	buf := AppendSnapshot(nil, s, naive, expert)
	if n := testing.AllocsPerRun(20, func() { buf = AppendSnapshot(buf[:0], s, naive, expert) }); n != 0 {
		t.Errorf("AppendSnapshot into a sized buffer allocated %.0f times, want 0", n)
	}
}

// FuzzAppendSnapshot decodes arbitrary bytes and checks that every state
// that decodes encodes to the reference encoder's bytes.
func FuzzAppendSnapshot(f *testing.F) {
	for _, s := range encodeCases() {
		f.Add(Encode(s))
	}
	f.Add(encodeV2(sampleState()))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(Encode(s), referenceEncode(s)) {
			t.Fatal("Encode differs from the reference")
		}
	})
}
