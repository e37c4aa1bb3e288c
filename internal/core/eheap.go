package core

import (
	"daxvm/internal/cost"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/rbtree"
	"daxvm/internal/sim"
)

// regionSize is the granularity in which the ephemeral heap grows its
// virtual reservation (paper §IV-B: 1 GiB regions).
const regionSize = 1 << 30

// EphemeralHeap is DaxVM's dedicated address-space allocator for
// ephemeral mappings: linear (stack-like) allocation inside 1 GiB virtual
// regions, a per-region live counter for wholesale reuse, and a dedicated
// spinlock-protected VMA list instead of the global VMA tree. Heap
// operations take mmap_sem only as readers, which is what lets
// m(un)map-heavy workloads scale (Fig. 8a).
type EphemeralHeap struct {
	m       *mm.MM
	lock    sim.SpinLock
	regions []*heapRegion

	// vmas holds the live ephemeral mappings keyed by start (the
	// paper's per-heap VMA list, under lock): a red-black tree, as the
	// process VMA tree is, so an interior address resolves with one
	// Floor and walks visit mappings in address order.
	vmas rbtree.Tree[*mm.VMA]

	Stats EphemeralStats
}

// EphemeralStats counts heap activity.
type EphemeralStats struct {
	Allocs       uint64
	Frees        uint64
	RegionGrows  uint64
	RegionResets uint64
}

// heapRegion is one reservation: regionSize bytes, or one mapping's
// length when a mapping is longer.
type heapRegion struct {
	base mem.VirtAddr
	size uint64
	used uint64
	live int
}

// NewEphemeralHeap creates the heap for one process.
func NewEphemeralHeap(m *mm.MM) *EphemeralHeap {
	return &EphemeralHeap{m: m}
}

// Alloc returns a 2 MiB-aligned virtual range of vlen bytes. The caller
// holds mmap_sem as reader; region growth upgrades briefly to writer.
func (h *EphemeralHeap) Alloc(t *sim.Thread, vlen uint64) mem.VirtAddr {
	vlen = mem.AlignedUp(vlen, mem.HugeSize)
	h.lock.Lock(t, cost.SpinLockAcquire)
	t.Charge(cost.EphemeralAlloc)
	var r *heapRegion
	if n := len(h.regions); n > 0 {
		r = h.regions[n-1]
		if r.used+vlen > r.size {
			r = nil
		}
	}
	if r == nil {
		r = h.grow(t, vlen)
	}
	va := r.base + mem.VirtAddr(r.used)
	r.used += vlen
	r.live++
	h.Stats.Allocs++
	h.lock.Unlock(t, cost.SpinLockRelease)
	return va
}

// grow reserves a new region for a vlen-byte mapping: 1 GiB, or vlen if
// that is longer. The reservation itself needs the VA cursor, which
// GetUnmappedArea owns; growth is rare so the extra cost is amortized
// away.
func (h *EphemeralHeap) grow(t *sim.Thread, vlen uint64) *heapRegion {
	size := max(regionSize, vlen)
	va := h.m.GetUnmappedArea(t, size, mem.HugeSize)
	r := &heapRegion{base: va, size: size}
	h.regions = append(h.regions, r)
	h.Stats.RegionGrows++
	return r
}

// Register records a live ephemeral VMA (caller holds Sem as reader).
func (h *EphemeralHeap) Register(t *sim.Thread, v *mm.VMA) {
	h.lock.Lock(t, cost.SpinLockAcquire)
	h.vmas.Insert(uint64(v.Start), v)
	h.lock.Unlock(t, cost.SpinLockRelease)
}

// Unregister drops a VMA and releases its region space when the region
// drains (stack-like reuse).
func (h *EphemeralHeap) Unregister(t *sim.Thread, v *mm.VMA) {
	h.lock.Lock(t, cost.SpinLockAcquire)
	t.Charge(cost.EphemeralFree)
	if h.vmas.Delete(uint64(v.Start)) {
		h.Stats.Frees++
		for _, r := range h.regions {
			if v.Start >= r.base && v.Start < r.base+mem.VirtAddr(r.size) {
				r.live--
				if r.live == 0 {
					r.used = 0
					h.Stats.RegionResets++
				}
				break
			}
		}
	}
	h.lock.Unlock(t, cost.SpinLockRelease)
}

// Lookup resolves va to a live ephemeral VMA (no locking cost: used by
// the fault path under Sem-read, where the DES serializes access).
func (h *EphemeralHeap) Lookup(va mem.VirtAddr) *mm.VMA {
	if _, v, ok := h.vmas.Floor(uint64(va)); ok && va < v.End {
		return v
	}
	return nil
}

// Live reports live ephemeral mappings.
func (h *EphemeralHeap) Live() int { return h.vmas.Len() }
