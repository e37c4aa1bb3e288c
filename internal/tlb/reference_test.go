package tlb

import (
	"daxvm/internal/mem"
	"daxvm/internal/pt"
)

// refTLB is the map-based TLB the flat tables replaced, kept as the
// oracle FuzzTLBMatchesReference compares against. It defines the
// behaviour the simulated numbers depend on, quirks included: an insert
// at a held key (live or stale) overwrites in place with no FIFO push,
// eviction deletes whatever sits at each popped key, stale entries count
// toward capacity, and FlushAll resets a pool only when its FIFO holds
// more than four capacities of keys.
type refTLB struct {
	small      map[mem.VirtAddr]*Entry
	large      map[mem.VirtAddr]*Entry
	orderSmall []mem.VirtAddr
	orderLarge []mem.VirtAddr
	capSmall   int
	capLarge   int
	gen        uint64

	Stats Stats
}

func newRef(small, large int) *refTLB {
	return &refTLB{
		small:    make(map[mem.VirtAddr]*Entry, small),
		large:    make(map[mem.VirtAddr]*Entry, large),
		capSmall: small,
		capLarge: large,
	}
}

func (t *refTLB) Lookup(va mem.VirtAddr) (*Entry, bool) {
	if e, ok := t.small[va.PageDown()]; ok && e.gen == t.gen {
		t.Stats.Hits++
		return e, true
	}
	if e, ok := t.large[va.HugeDown()]; ok && e.gen == t.gen {
		t.Stats.Hits++
		return e, true
	}
	t.Stats.Misses++
	return nil, false
}

func (t *refTLB) Insert(va mem.VirtAddr, pte pt.Entry, writable, huge bool) {
	t.Stats.Insertions++
	m, order, capacity, key := t.small, &t.orderSmall, t.capSmall, va.PageDown()
	if huge {
		m, order, capacity, key = t.large, &t.orderLarge, t.capLarge, va.HugeDown()
	}
	if e, exists := m[key]; exists {
		*e = Entry{VA: key, PTE: pte, Writable: writable, Huge: huge, gen: t.gen}
		return
	}
	for len(m) >= capacity && len(*order) > 0 {
		victim := (*order)[0]
		*order = (*order)[1:]
		delete(m, victim)
	}
	*order = append(*order, key)
	m[key] = &Entry{VA: key, PTE: pte, Writable: writable, Huge: huge, gen: t.gen}
}

func (t *refTLB) InvalidatePage(va mem.VirtAddr) {
	t.Stats.PageInval++
	delete(t.small, va.PageDown())
	delete(t.large, va.HugeDown())
}

func (t *refTLB) InvalidateRange(start, end mem.VirtAddr) {
	for va := start.PageDown(); va < end; va += mem.PageSize {
		delete(t.small, va)
	}
	for va := start.HugeDown(); va < end; va += mem.HugeSize {
		delete(t.large, va)
	}
}

func (t *refTLB) FlushAll() {
	t.Stats.FullFlush++
	t.gen++
	if len(t.orderSmall) > 4*t.capSmall {
		clear(t.small)
		t.orderSmall = t.orderSmall[:0]
	}
	if len(t.orderLarge) > 4*t.capLarge {
		clear(t.large)
		t.orderLarge = t.orderLarge[:0]
	}
}

func (t *refTLB) Len() int {
	n := 0
	for _, e := range t.small {
		if e.gen == t.gen {
			n++
		}
	}
	for _, e := range t.large {
		if e.gen == t.gen {
			n++
		}
	}
	return n
}
