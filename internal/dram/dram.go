// Package dram models the volatile memory pool of the simulated machine.
//
// Unlike internal/pmem, DRAM contents need no persistence semantics and the
// simulator does not route most user data through it (workload buffers are
// plain Go slices). What the experiments DO need is accounting: how much
// DRAM the kernel consumes for page tables, volatile DaxVM file tables and
// page-cache metadata — the paper reports these as DaxVM's DRAM tax — plus
// an allocation cost model.
//
// The pool is split into per-NUMA-node banks with disjoint PFN ranges, so
// a frame's number identifies its home node. AllocFrameOn implements
// node-preferred allocation with Linux-style fallback to the other nodes
// when the preferred bank is exhausted. A single-node pool (the default)
// behaves exactly like the original flat allocator.
package dram

import (
	"fmt"

	"daxvm/internal/cost"
	"daxvm/internal/mem"
	"daxvm/internal/sim"
	"daxvm/internal/topo"
)

// Pool is a volatile frame allocator.
type Pool struct {
	capacity  uint64 // bytes, whole pool
	used      uint64
	peak      uint64
	bankPages uint64 // frames per bank; bank i owns PFNs [i*bankPages, (i+1)*bankPages)
	banks     []bank

	Stats Stats
}

// bank is one node's share of the pool.
type bank struct {
	used uint64 // bytes
	peak uint64
	next uint64 // frames handed out from the never-allocated region
	free []mem.PFN
	// freed holds the current free-list membership so FreeFrame can
	// detect double frees.
	freed map[mem.PFN]struct{}
}

// Stats aggregates pool activity.
type Stats struct {
	Allocs uint64
	Frees  uint64
}

// New creates a flat single-node pool of the given capacity in bytes.
func New(capacity uint64) *Pool { return NewNUMA(capacity, nil) }

// NewNUMA creates a pool whose capacity is split evenly across the
// topology's nodes (nil topology = one node).
func NewNUMA(capacity uint64, tp *topo.Topology) *Pool {
	if capacity == 0 || !mem.IsAligned(capacity, mem.PageSize) {
		panic(fmt.Sprintf("dram: bad capacity %d", capacity))
	}
	nodes := 1
	if tp.Multi() {
		nodes = tp.Nodes()
	}
	p := &Pool{
		capacity:  capacity,
		bankPages: capacity / uint64(nodes) / mem.PageSize,
		banks:     make([]bank, nodes),
	}
	for i := range p.banks {
		p.banks[i].freed = make(map[mem.PFN]struct{})
	}
	return p
}

// NodeCount returns how many banks the pool spans.
func (p *Pool) NodeCount() int { return len(p.banks) }

// NodeOfFrame returns the home node of a PFN handed out by this pool.
func (p *Pool) NodeOfFrame(pfn mem.PFN) mem.NodeID {
	n := uint64(pfn) / p.bankPages
	if n >= uint64(len(p.banks)) {
		n = uint64(len(p.banks)) - 1
	}
	return mem.NodeID(n)
}

// AllocFrame allocates one zeroed 4 KiB frame from node 0 and returns
// its PFN. The cycle cost models the buddy-allocator fast path plus
// zeroing from the per-CPU free lists (mostly pre-zeroed in modern
// kernels).
func (p *Pool) AllocFrame(t *sim.Thread) mem.PFN { return p.AllocFrameOn(t, 0) }

// AllocFrameOn allocates a frame on the given node, falling back to the
// other nodes in ascending order when that bank is exhausted (the
// Linux zonelist behaviour).
func (p *Pool) AllocFrameOn(t *sim.Thread, node mem.NodeID) mem.PFN {
	idx := p.bankWithSpace(node)
	if idx < 0 {
		//lint:ignore hotalloc fatal path: args are boxed only when panicking
		panic(fmt.Sprintf("dram: out of memory (capacity %d)", p.capacity))
	}
	b := &p.banks[idx]
	b.used += mem.PageSize
	if b.used > b.peak {
		b.peak = b.used
	}
	p.used += mem.PageSize
	if p.used > p.peak {
		p.peak = p.used
	}
	p.Stats.Allocs++
	t.Charge(cost.TableAlloc)
	if n := len(b.free); n > 0 {
		pfn := b.free[n-1]
		b.free = b.free[:n-1]
		delete(b.freed, pfn)
		return pfn
	}
	pfn := mem.PFN(uint64(idx)*p.bankPages + b.next)
	b.next++
	return pfn
}

func (p *Pool) bankWithSpace(node mem.NodeID) int {
	bankCap := p.bankPages * mem.PageSize
	if int(node) >= len(p.banks) {
		node = mem.NodeID(len(p.banks) - 1)
	}
	if p.banks[node].used+mem.PageSize <= bankCap {
		return int(node)
	}
	for i := range p.banks {
		if p.banks[i].used+mem.PageSize <= bankCap {
			return i
		}
	}
	return -1
}

// FreeFrame returns a frame to its home bank. Freeing a PFN that was
// never allocated, or freeing the same PFN twice, is a simulator bug and
// panics with the offending frame number.
func (p *Pool) FreeFrame(t *sim.Thread, pfn mem.PFN) {
	if p.used < mem.PageSize {
		panic("dram: free underflow")
	}
	bankIdx, rel := uint64(pfn)/p.bankPages, uint64(pfn)%p.bankPages
	if bankIdx >= uint64(len(p.banks)) || rel >= p.banks[bankIdx].next {
		panic(fmt.Sprintf("dram: free of never-allocated PFN %#x", uint64(pfn)))
	}
	b := &p.banks[bankIdx]
	if _, dup := b.freed[pfn]; dup {
		panic(fmt.Sprintf("dram: double free of PFN %#x", uint64(pfn)))
	}
	b.used -= mem.PageSize
	p.used -= mem.PageSize
	p.Stats.Frees++
	b.free = append(b.free, pfn)
	b.freed[pfn] = struct{}{}
	t.Charge(cost.KernelListOp)
}

// Used reports current usage in bytes.
func (p *Pool) Used() uint64 { return p.used }

// UsedOn reports one node's current usage in bytes.
func (p *Pool) UsedOn(node int) uint64 { return p.banks[node].used }

// Peak reports the high-water mark in bytes.
func (p *Pool) Peak() uint64 { return p.peak }

// OccupancyPerMille reports pool usage as tenths of a percent of
// capacity (0..1000) — integer so gauge tracks stay byte-stable. Pure
// read for gauge sampling.
func (p *Pool) OccupancyPerMille() uint64 { return p.used * 1000 / p.capacity }

// OccupancyOnPerMille is OccupancyPerMille for one node's bank.
func (p *Pool) OccupancyOnPerMille(node int) uint64 {
	return p.banks[node].used * 1000 / (p.bankPages * mem.PageSize)
}
