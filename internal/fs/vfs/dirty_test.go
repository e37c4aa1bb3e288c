package vfs_test

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"daxvm/internal/fs/vfs"
)

// wantNext asserts s.Next(from).
func wantNext(t *testing.T, s *vfs.DirtySet, from, want uint64, wantOK bool) {
	t.Helper()
	got, ok := s.Next(from)
	if ok != wantOK || (ok && got != want) {
		if wantOK {
			t.Fatalf("Next(%d) = %d, %v; want %d, true", from, got, ok, want)
		}
		t.Fatalf("Next(%d) = %d, %v; want none", from, got, ok)
	}
}

func TestDirtySetWordBoundary(t *testing.T) {
	var s vfs.DirtySet
	s.Mark(63)
	s.Mark(64)
	wantNext(t, &s, 0, 63, true)
	wantNext(t, &s, 64, 64, true)
	s.Clear(63)
	wantNext(t, &s, 0, 64, true)
	s.Clear(64)
	wantNext(t, &s, 0, 0, false)
}

func TestDirtySetGrowthKeepsMarks(t *testing.T) {
	var s vfs.DirtySet
	s.Mark(5)
	s.Mark(130)
	s.Mark(1 << 16) // grows the bitset well past the first marks
	wantNext(t, &s, 0, 5, true)
	wantNext(t, &s, 6, 130, true)
	wantNext(t, &s, 131, 1<<16, true)
}

func TestDirtySetClearPastEnd(t *testing.T) {
	var s vfs.DirtySet
	s.Clear(1 << 40) // empty set: nothing to clear, nothing allocated
	s.Mark(3)
	s.Clear(1000)
	wantNext(t, &s, 0, 3, true)
	wantNext(t, &s, 4, 0, false)
}

func TestDirtySetNext(t *testing.T) {
	var empty vfs.DirtySet
	wantNext(t, &empty, 0, 0, false)

	var s vfs.DirtySet
	s.Mark(2)
	s.Mark(9)
	wantNext(t, &s, 3, 9, true) // from inside the word, past a lower mark
	wantNext(t, &s, 9, 9, true)
	wantNext(t, &s, 10, 0, false)
	wantNext(t, &s, 1<<20, 0, false) // from past the end
}

// refNext is the reference for DirtySet.Next: the lowest page >= from
// in the map model.
func refNext(marked map[uint64]bool, from uint64) (uint64, bool) {
	best, found := uint64(0), false
	for pg := range marked {
		if pg >= from && (!found || pg < best) {
			best, found = pg, true
		}
	}
	return best, found
}

// Property: Next agrees with a map model under random marking and
// clearing.
func TestQuickDirtySetNext(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s vfs.DirtySet
		marked := map[uint64]bool{}
		for i := 0; i < 300; i++ {
			pg := uint64(rng.Intn(1 << 14))
			if rng.Intn(2) == 0 {
				s.Mark(pg)
				marked[pg] = true
			} else {
				s.Clear(pg)
				delete(marked, pg)
			}
		}
		for q := 0; q < 50; q++ {
			from := uint64(rng.Intn(1 << 14))
			want, wantOK := refNext(marked, from)
			got, ok := s.Next(from)
			if ok != wantOK || (ok && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDirtySet runs a program of 3-byte ops against DirtySet and the map
// model: byte 0 picks Mark, Clear or Next (mod 3) and bytes 1-2 give a
// little-endian page. After each op Next from that page must agree, and
// at the end a full walk must visit exactly the marked pages in order.
func FuzzDirtySet(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		var s vfs.DirtySet
		marked := map[uint64]bool{}
		for ; len(prog) >= 3; prog = prog[3:] {
			pg := uint64(prog[1]) | uint64(prog[2])<<8
			switch prog[0] % 3 {
			case 0:
				s.Mark(pg)
				marked[pg] = true
			case 1:
				s.Clear(pg)
				delete(marked, pg)
			}
			want, wantOK := refNext(marked, pg)
			if got, ok := s.Next(pg); ok != wantOK || (ok && got != want) {
				t.Fatalf("Next(%d) = %d, %v; want %d, %v", pg, got, ok, want, wantOK)
			}
		}
		var want, got []uint64
		for pg := range marked {
			want = append(want, pg)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for pg, ok := s.Next(0); ok; pg, ok = s.Next(pg + 1) {
			got = append(got, pg)
		}
		if len(got) != len(want) {
			t.Fatalf("walk = %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("walk = %v, want %v", got, want)
			}
		}
	})
}
