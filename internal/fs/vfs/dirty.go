package vfs

import "math/bits"

// DirtySet is the set of an inode's pages dirtied through mappings, one
// bit per file page. The simulated kernel charges each update as
// page-cache radix tagging (cost.RadixTreeTag); the host only needs the
// set and "lowest dirty page at or after X", which msync walks. It
// grows to the highest page marked and never shrinks. The zero value is
// empty.
type DirtySet struct {
	words []uint64
}

// Mark adds page pg.
func (s *DirtySet) Mark(pg uint64) {
	w := pg / 64
	if n := w + 1; n > uint64(len(s.words)) {
		//lint:ignore hotalloc growth to the highest dirty page: amortized, one bit per file page
		s.words = append(s.words, make([]uint64, n-uint64(len(s.words)))...)
	}
	s.words[w] |= 1 << (pg % 64)
}

// Clear removes page pg. A page past the end was never marked.
func (s *DirtySet) Clear(pg uint64) {
	if w := pg / 64; w < uint64(len(s.words)) {
		s.words[w] &^= 1 << (pg % 64)
	}
}

// Next returns the lowest marked page at or after from.
func (s *DirtySet) Next(from uint64) (uint64, bool) {
	w := from / 64
	if w >= uint64(len(s.words)) {
		return 0, false
	}
	word := s.words[w] &^ (1<<(from%64) - 1)
	for {
		if word != 0 {
			return w*64 + uint64(bits.TrailingZeros64(word)), true
		}
		w++
		if w >= uint64(len(s.words)) {
			return 0, false
		}
		word = s.words[w]
	}
}
