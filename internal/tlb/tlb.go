// Package tlb models a per-core translation lookaside buffer.
//
// Geometry loosely follows a Cascade Lake L2 STLB: a unified pool of 4 KiB
// entries plus a smaller pool for 2 MiB entries, with FIFO replacement.
// Full flushes use a generation counter so they are O(1), mirroring the
// cheapness of a CR3 write relative to per-page invlpg — the asymmetry
// DaxVM's batched unmapping exploits.
//
// Each pool is a fixed array of capacity entries found through an
// open-addressed index, so lookups, fills and invalidations allocate
// nothing.
package tlb

import (
	"daxvm/internal/mem"
	"daxvm/internal/pt"
)

// Default capacities.
const (
	DefaultEntries4K = 1536
	DefaultEntries2M = 32
)

// Entry is a cached translation.
type Entry struct {
	VA       mem.VirtAddr // page-aligned (4 KiB or 2 MiB)
	PTE      pt.Entry
	Writable bool // effective permission honoring upper levels
	Huge     bool
	gen      uint64
}

// TLB is one core's TLB.
type TLB struct {
	small pool
	large pool
	gen   uint64

	Stats Stats
}

// Stats counts TLB behaviour.
type Stats struct {
	Hits       uint64
	Misses     uint64
	FullFlush  uint64
	PageInval  uint64
	Insertions uint64
}

// New creates a TLB with default geometry.
func New() *TLB { return NewSized(DefaultEntries4K, DefaultEntries2M) }

// NewSized creates a TLB with explicit entry counts (each at least 1).
func NewSized(small, large int) *TLB {
	t := &TLB{}
	t.small.init(small, mem.PageShift)
	t.large.init(large, mem.HugeShift)
	return t
}

// Lookup returns the cached translation for va.
func (t *TLB) Lookup(va mem.VirtAddr) (*Entry, bool) {
	if e := t.small.get(va.PageDown()); e != nil && e.gen == t.gen {
		t.Stats.Hits++
		return e, true
	}
	if e := t.large.get(va.HugeDown()); e != nil && e.gen == t.gen {
		t.Stats.Hits++
		return e, true
	}
	t.Stats.Misses++
	return nil, false
}

// Insert caches a translation. An entry already held at the key (live or
// generation-stale) is overwritten in place without joining the FIFO
// again; otherwise FIFO keys are popped, deleting whatever is held at
// each, until a slot is free. A popped key may name an entry re-inserted
// after an invalidation, which then goes early: the model keeps that
// quirk because the simulated numbers depend on it.
func (t *TLB) Insert(va mem.VirtAddr, pte pt.Entry, writable, huge bool) {
	t.Stats.Insertions++
	p, key := &t.small, va.PageDown()
	if huge {
		p, key = &t.large, va.HugeDown()
	}
	e := p.get(key)
	if e == nil {
		for p.nfree == 0 && p.fifo.n > 0 {
			p.remove(p.fifo.pop())
		}
		e = p.add(key)
		p.fifo.push(key)
	}
	*e = Entry{VA: key, PTE: pte, Writable: writable, Huge: huge, gen: t.gen}
}

// InvalidatePage drops the translation covering va (invlpg semantics:
// both page sizes checked).
func (t *TLB) InvalidatePage(va mem.VirtAddr) {
	t.Stats.PageInval++
	t.small.remove(va.PageDown())
	t.large.remove(va.HugeDown())
}

// InvalidateRange drops all translations overlapping [start, end).
func (t *TLB) InvalidateRange(start, end mem.VirtAddr) {
	for va := start.PageDown(); va < end; va += mem.PageSize {
		t.small.remove(va)
	}
	for va := start.HugeDown(); va < end; va += mem.HugeSize {
		t.large.remove(va)
	}
}

// FlushAll drops every translation (CR3 write) in O(1).
func (t *TLB) FlushAll() {
	t.Stats.FullFlush++
	t.gen++
	// Pools are lazily cleaned by generation checks; reset one when its
	// FIFO backlog grows stale to bound memory.
	t.small.trim()
	t.large.trim()
}

// Len reports live entries (generation-current).
func (t *TLB) Len() int { return t.small.live(t.gen) + t.large.live(t.gen) }

// pool is one page size's entries: a fixed slot array, an open-addressed
// index from page-aligned VA to slot, a stack of free slots, and the FIFO
// of inserted keys that drives eviction.
type pool struct {
	slots []Entry
	free  []int32 // free[:nfree] is the stack of unused slot numbers
	nfree int

	// index is linear-probed with backward-shift deletion; its length
	// is a power of two at least twice the capacity. A bucket holds
	// slot+1, so the zero bucket is empty; the key is the slot's VA.
	index []int32
	shift uint // page shift of the keys
	bits  uint // log2(len(index))

	fifo ring
}

func (p *pool) init(capacity int, pageShift uint) {
	if capacity < 1 {
		panic("tlb: capacity must be at least 1")
	}
	p.slots = make([]Entry, capacity)
	p.free = make([]int32, capacity)
	p.freeAll()
	p.bits = 1
	for 1<<p.bits < 2*capacity {
		p.bits++
	}
	p.index = make([]int32, 1<<p.bits)
	p.shift = pageShift
}

// home is key's preferred bucket: a Fibonacci hash of the page number.
func (p *pool) home(key mem.VirtAddr) int {
	return int((uint64(key) >> p.shift) * 0x9E3779B97F4A7C15 >> (64 - p.bits))
}

// find returns key's bucket, or -1.
func (p *pool) find(key mem.VirtAddr) int {
	mask := len(p.index) - 1
	for i := p.home(key); ; i = (i + 1) & mask {
		b := p.index[i]
		if b == 0 {
			return -1
		}
		if p.slots[b-1].VA == key {
			return i
		}
	}
}

// get returns the entry held at key, live or stale, or nil.
func (p *pool) get(key mem.VirtAddr) *Entry {
	if i := p.find(key); i >= 0 {
		return &p.slots[p.index[i]-1]
	}
	return nil
}

// add takes a free slot for key, which must be absent, and indexes it.
// The caller fills the entry, keeping key as its VA.
func (p *pool) add(key mem.VirtAddr) *Entry {
	p.nfree--
	slot := p.free[p.nfree]
	mask := len(p.index) - 1
	i := p.home(key)
	for p.index[i] != 0 {
		i = (i + 1) & mask
	}
	p.index[i] = slot + 1
	return &p.slots[slot]
}

// remove drops the entry held at key, if any.
func (p *pool) remove(key mem.VirtAddr) {
	i := p.find(key)
	if i < 0 {
		return
	}
	p.free[p.nfree] = p.index[i] - 1
	p.nfree++
	// Backward-shift deletion: pull later buckets of the probe run into
	// the hole unless their home lies cyclically in (hole, j].
	mask := len(p.index) - 1
	for j := (i + 1) & mask; p.index[j] != 0; j = (j + 1) & mask {
		if h := p.home(p.slots[p.index[j]-1].VA); (j-h)&mask >= (j-i)&mask {
			p.index[i] = p.index[j]
			i = j
		}
	}
	p.index[i] = 0
}

// trim empties the pool when its FIFO holds more than four capacities of
// keys (the backlog invalidations leave behind).
func (p *pool) trim() {
	if p.fifo.n <= 4*len(p.slots) {
		return
	}
	clear(p.index)
	p.freeAll()
	p.fifo.reset()
}

// freeAll marks every slot free, lowest slot on top.
func (p *pool) freeAll() {
	for i := range p.free {
		p.free[i] = int32(len(p.free) - 1 - i)
	}
	p.nfree = len(p.free)
}

// live counts the entries of generation gen.
func (p *pool) live(gen uint64) int {
	n := 0
	for _, b := range p.index {
		if b != 0 && p.slots[b-1].gen == gen {
			n++
		}
	}
	return n
}

// ring is a FIFO deque of keys over a power-of-two buffer that doubles
// when full.
type ring struct {
	buf  []mem.VirtAddr
	head int
	n    int
}

func (r *ring) push(key mem.VirtAddr) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = key
	r.n++
}

func (r *ring) pop() mem.VirtAddr {
	key := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return key
}

// grow doubles the buffer, unrolling the queue to its start.
func (r *ring) grow() {
	//lint:ignore hotalloc FIFO backlog growth: doubling, only past the largest backlog yet, which FlushAll's trim bounds
	buf := make([]mem.VirtAddr, max(2*len(r.buf), 16))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}

func (r *ring) reset() { r.head, r.n = 0, 0 }
