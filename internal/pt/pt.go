// Package pt implements simulated x86-64 four-level page tables.
//
// Every node models one 4 KiB, 512-entry table page, as on the hardware;
// leaf entries carry PFN + architectural bits (present/write/accessed/
// dirty/PS). Interior entries are mirrored by Go child pointers so the
// simulator can descend without a physical address space for DRAM nodes.
// Host storage is a separate matter from that simulated size. A process
// node holds all 512 entries in DRAM. A DaxVM file-table node in DRAM (a
// volatile table or a DRAM shadow) holds only the prefix it has
// populated, grown from one cache line of entries by doubling, and reads
// zero past it. A persistent file-table node holds no entries on the
// host: its 512 slots are the words of its PMem page, which the walker
// reads as the hardware does. Charges and table-byte accounting follow
// the simulated page in every case.
//
// Two properties matter for DaxVM:
//
//   - Nodes record the Loc (medium + NUMA node) they live on (process
//     tables in DRAM, DaxVM persistent file tables in PMem); the page
//     walker charges TLB-miss costs accordingly (paper Table II), with
//     remote-node surcharges on a multi-socket topology.
//
//   - Sub-trees can be attached/detached at interior levels (PMD/PUD):
//     DaxVM splices shared pre-populated file tables into process trees and
//     applies per-process permissions at the attachment entry, relying on
//     x86's minimum-permission rule across levels.
package pt

import (
	"fmt"

	"daxvm/internal/mem"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

// Entry is a page-table entry. Layout follows x86-64 where it matters.
type Entry uint64

// Architectural and software bits.
const (
	BitPresent  Entry = 1 << 0
	BitWrite    Entry = 1 << 1
	BitUser     Entry = 1 << 2
	BitAccessed Entry = 1 << 5
	BitDirty    Entry = 1 << 6
	BitHuge     Entry = 1 << 7 // PS: leaf at PMD/PUD level
	// BitSoftPMem is a software bit marking that the frame is on PMem
	// (bit 9, available to software on x86-64).
	BitSoftPMem Entry = 1 << 9
	// BitSoftAttached marks an interior entry that points into a shared
	// DaxVM file table (must be detached, never freed).
	BitSoftAttached Entry = 1 << 10

	pfnShift = 12
	pfnMask  = Entry(0x000F_FFFF_FFFF_F000)
)

// Present reports whether the entry is valid.
func (e Entry) Present() bool { return e&BitPresent != 0 }

// Writable reports the write-permission bit.
func (e Entry) Writable() bool { return e&BitWrite != 0 }

// Huge reports the PS bit.
func (e Entry) Huge() bool { return e&BitHuge != 0 }

// Dirty reports the dirty bit.
func (e Entry) Dirty() bool { return e&BitDirty != 0 }

// Accessed reports the accessed bit.
func (e Entry) Accessed() bool { return e&BitAccessed != 0 }

// PFN extracts the frame number.
func (e Entry) PFN() mem.PFN { return mem.PFN((e & pfnMask) >> pfnShift) }

// OnPMem reports the software PMem-frame bit.
func (e Entry) OnPMem() bool { return e&BitSoftPMem != 0 }

// Attached reports the software attached-subtree bit.
func (e Entry) Attached() bool { return e&BitSoftAttached != 0 }

// MakeEntry builds a leaf entry.
func MakeEntry(pfn mem.PFN, perm mem.Perm, onPMem, huge bool) Entry {
	e := Entry(pfn)<<pfnShift | BitPresent | BitUser
	if perm.CanWrite() {
		e |= BitWrite
	}
	if onPMem {
		e |= BitSoftPMem
	}
	if huge {
		e |= BitHuge
	}
	return e
}

// Levels: 1 = PTE (maps 4 KiB), 2 = PMD (2 MiB), 3 = PUD (1 GiB),
// 4 = PGD (512 GiB).
const (
	LevelPTE = 1
	LevelPMD = 2
	LevelPUD = 3
	LevelPGD = 4
)

// LevelShift returns the VA shift of entries at the given level.
func LevelShift(level int) uint { return uint(mem.PageShift + 9*(level-1)) }

// LevelSpan returns the bytes mapped by one entry at the given level.
func LevelSpan(level int) uint64 { return 1 << LevelShift(level) }

// index returns the table index of va at level.
func index(va mem.VirtAddr, level int) int {
	return int(uint64(va)>>LevelShift(level)) & 511
}

// NoFrame marks a node whose backing frame is not tracked by a DRAM
// pool (PMem-resident nodes, or nodes allocated without a pool).
const NoFrame = ^mem.PFN(0)

// Node is one 512-entry table. Entry reads a slot and SetEntries is the
// only writer.
type Node struct {
	// entries holds a prefix of a DRAM node's slots; slots past its end
	// read 0. Process nodes hold all 512 (in the node's own allocation);
	// DRAM file-table nodes start empty and grow as SetEntries populates
	// them. A persistent node (Backing set) keeps it empty: its entries
	// are on its PMem page only.
	entries []Entry
	// children mirrors interior entries with Go pointers. Only interior
	// nodes own the array: a PTE-level node (every DaxVM file-table node
	// is one) holds leaf entries alone, which keeps 4 KiB of nil pointers
	// per node off the heap and out of GC scans.
	children *[mem.PTEsPerTable]*Node
	Level    int
	Loc      mem.Loc

	// Frame is the DRAM frame holding this node (NoFrame when the node
	// lives on PMem or was allocated outside a pool). Deallocation paths
	// return it to the pool so double frees are caught.
	Frame mem.PFN

	// Shared marks DaxVM file-table nodes: attach points reference them
	// and teardown must detach rather than free.
	Shared bool

	// NoAD drops accessed/dirty bit maintenance on this node's entries
	// (DaxVM file tables: A/D bits only serve volatile-memory
	// reclamation, irrelevant for DAX).
	NoAD bool

	// Backing is the device whose page at BackAddr holds a persistent
	// file-table node's entries, the only copy of them: Entry reads the
	// page's words and SetEntries stores them. NewPersistentNode sets
	// both; nil on every other node.
	Backing  *pmem.Device
	BackAddr mem.PhysAddr

	// Ptl is the split page-table lock guarding this node's entries
	// (Linux's per-PMD ptl). Used on fault paths.
	Ptl sim.SpinLock

	// live counts present entries + children, for teardown pruning.
	live int

	// serial numbers nodes in allocation order (see Serial).
	serial uint64
}

// nodeSerials hands out Node serials, numbered across every kernel the
// process boots. A serial is only the PTE-line set's hash input, so the
// numbering moves probe lengths but never eviction order: that set
// evicts FIFO from its ring (cpu.touchPTELine), and simulated output
// cannot depend on it.
var nodeSerials uint64

// fullNode is a process table node and its 512 entries in one host
// allocation.
type fullNode struct {
	Node
	table [mem.PTEsPerTable]Entry
}

// NewNode allocates a table node holding all 512 entries at the given
// level at the given location (medium + NUMA node).
func NewNode(level int, loc mem.Loc) *Node {
	nodeSerials++
	//lint:ignore hotalloc the allocation is the modeled work: one table node per simulated page-table page
	f := &fullNode{Node: Node{Level: level, Loc: loc, Frame: NoFrame, serial: nodeSerials}}
	n := &f.Node
	n.entries = f.table[:]
	if level > LevelPTE {
		//lint:ignore hotalloc part of the modeled node: an interior table page's child links, allocated with it
		n.children = new([mem.PTEsPerTable]*Node)
	}
	return n
}

// NewFileTableNode allocates a shared PTE-level DaxVM file-table node at
// loc, with no A/D-bit upkeep (A/D bits only serve volatile-memory
// reclamation, irrelevant for DAX). It holds no entries until SetEntries
// stores one: a small file populates a few slots of its table.
func NewFileTableNode(loc mem.Loc) *Node {
	nodeSerials++
	return &Node{Level: LevelPTE, Loc: loc, Frame: NoFrame, Shared: true, NoAD: true, serial: nodeSerials}
}

// NewPersistentNode allocates a file-table node whose entries are the
// words of dev's page at addr, on the PMem node whose DIMMs hold it. The
// node counts its populated slots from 0, so the page must read zero when
// SetEntries first stores to it.
func NewPersistentNode(dev *pmem.Device, addr mem.PhysAddr) *Node {
	n := NewFileTableNode(mem.Loc{Medium: mem.PMem, Node: dev.NodeOf(addr)})
	n.Backing, n.BackAddr = dev, addr
	return n
}

// Serial returns the node's allocation serial. It is a hash input for
// tables keyed by node (the walker's PTE-line cache): identity is still
// the node pointer, and the serial carries no simulated meaning.
func (n *Node) Serial() uint64 { return n.serial }

// Live returns the number of populated slots.
func (n *Node) Live() int { return n.live }

// Entry returns the entry in slot idx: a persistent node's from its
// page on media.
func (n *Node) Entry(idx int) Entry {
	if idx < len(n.entries) {
		return n.entries[idx]
	}
	return n.unheld(idx)
}

// unheld reads a slot the node does not hold on the host: a persistent
// node's word on media, else 0. It is out of line so that Entry, which
// every walk calls on process nodes, stays inlinable.
//
//go:noinline
func (n *Node) unheld(idx int) Entry {
	if n.Backing == nil {
		return 0
	}
	return Entry(n.Backing.Word(n.slotAddr(idx)))
}

// slotAddr returns the media address of a persistent node's slot idx.
func (n *Node) slotAddr(idx int) mem.PhysAddr { return n.BackAddr + mem.PhysAddr(8*idx) }

// Len returns how many slots the node holds on the host: 0 for a
// persistent node, whose slots are on media. A DRAM node's slots at or
// past it read 0.
func (n *Node) Len() int { return len(n.entries) }

// SetEntry writes a leaf/interior entry value: SetEntries of one entry.
func (n *Node) SetEntry(t *sim.Thread, idx int, e Entry) {
	one := [1]Entry{e}
	n.SetEntries(t, idx, one[:])
}

// SetEntries writes es to slots lo, lo+1, .... It is the node's only
// writer, and it books, counts and stores exactly what one SetEntry per
// slot would. A persistent node stores the run on its page with cached
// stores (the caller batches Flush via FlushEntries) and holds nothing on
// the host. A DRAM node stores into its held slots: a nonzero store past
// them grows them, once for the run, and a zero store there changes
// nothing.
func (n *Node) SetEntries(t *sim.Thread, lo int, es []Entry) {
	if n.Backing != nil {
		for i, e := range es {
			n.count(Entry(n.Backing.Word(n.slotAddr(lo+i))), e)
		}
		pmem.WriteCachedWords(n.Backing, t, n.slotAddr(lo), es)
		return
	}
	for i := len(es) - 1; i >= 0 && lo+i >= len(n.entries); i-- {
		if es[i] != 0 {
			n.grow(lo + i)
			break
		}
	}
	for i, e := range es {
		idx := lo + i
		if idx >= len(n.entries) {
			break // the rest are zero stores past the held slots
		}
		n.count(n.entries[idx], e)
		n.entries[idx] = e
	}
}

// count books a slot's store of e over old in the live count.
func (n *Node) count(old, e Entry) {
	switch {
	case old == 0 && e != 0:
		n.live++
	case old != 0 && e == 0:
		n.live--
	}
}

// grow extends a DRAM node's held slots past idx: from one cache line of
// entries, doubling, up to the full table.
func (n *Node) grow(idx int) {
	size := max(mem.PTEsPerCacheLine, 2*len(n.entries))
	for size <= idx {
		size *= 2
	}
	//lint:ignore hotalloc only DRAM file-table nodes grow (volatile tables and shadows), a few times each as files allocate blocks; fault and A/D stores hit process nodes, which hold every slot, and persistent nodes hold none
	grown := make([]Entry, min(size, mem.PTEsPerTable))
	copy(grown, n.entries)
	n.entries = grown
}

// SetChild links an interior entry to a child node.
func (n *Node) SetChild(t *sim.Thread, idx int, child *Node, e Entry) {
	if n.Level <= LevelPTE {
		panic("pt: SetChild on PTE level")
	}
	n.children[idx] = child
	n.SetEntry(t, idx, e)
}

// ClearSlot removes entry and child link at idx (a PTE-level node has
// the entry only).
func (n *Node) ClearSlot(t *sim.Thread, idx int) {
	if n.children != nil {
		n.children[idx] = nil
	}
	n.SetEntry(t, idx, 0)
}

// FlushEntries flushes the backing lines of entries [lo,hi) (persistent
// file tables batch flushes at cache-line granularity — 8 PTEs per line).
func (n *Node) FlushEntries(t *sim.Thread, lo, hi int) {
	if n.Backing == nil {
		return
	}
	start := mem.AlignedDown(uint64(lo*8), mem.CacheLineSize)
	end := mem.AlignedUp(uint64(hi*8), mem.CacheLineSize)
	n.Backing.Flush(t, n.BackAddr+mem.PhysAddr(start), end-start)
}

// AddressSpace is a process page-table tree rooted at a PGD.
type AddressSpace struct {
	Root *Node

	// AllocNode is called to allocate interior nodes (charges DRAM pool).
	AllocNode func(t *sim.Thread, level int) *Node
	// FreeNode returns a node to the pool.
	FreeNode func(t *sim.Thread, n *Node)
}

// NewAddressSpace creates an empty tree with the given node allocator.
func NewAddressSpace(alloc func(t *sim.Thread, level int) *Node, free func(t *sim.Thread, n *Node)) *AddressSpace {
	as := &AddressSpace{AllocNode: alloc, FreeNode: free}
	as.Root = alloc(nil, LevelPGD)
	return as
}

// ensurePath walks (allocating) interior nodes down to targetLevel and
// returns the node whose entries are at targetLevel.
func (as *AddressSpace) ensurePath(t *sim.Thread, va mem.VirtAddr, targetLevel int) *Node {
	n := as.Root
	for lvl := LevelPGD; lvl > targetLevel; lvl-- {
		idx := index(va, lvl)
		child := n.children[idx]
		if child == nil {
			child = as.AllocNode(t, lvl-1)
			n.SetChild(t, idx, child, BitPresent|BitWrite|BitUser)
		}
		n = child
	}
	return n
}

// Map installs a leaf translation for va at the given level (LevelPTE for
// 4 KiB, LevelPMD for 2 MiB huge).
func (as *AddressSpace) Map(t *sim.Thread, va mem.VirtAddr, e Entry, level int) {
	if level == LevelPMD && !e.Huge() {
		panic("pt: PMD leaf without PS bit")
	}
	n := as.ensurePath(t, va, level)
	n.SetEntry(t, index(va, level), e)
}

// Leaf is what one descent of the tree finds for a virtual address.
type Leaf struct {
	// Node holds the leaf entry at Index; nil when va is not mapped.
	Node  *Node
	Index int
	Entry Entry
	// Level is the leaf entry's level, or the level where the descent
	// stopped when va is not mapped.
	Level int
	// Writable is the effective write permission, honoring the
	// minimum-permission rule across levels.
	Writable bool
}

// Resolve descends the tree once for va (no cost charging — the cpu
// package's walker charges).
func (as *AddressSpace) Resolve(va mem.VirtAddr) Leaf {
	n := as.Root
	writable := true
	for lvl := LevelPGD; lvl >= LevelPTE; lvl-- {
		idx := index(va, lvl)
		ent := n.Entry(idx)
		if !ent.Present() {
			return Leaf{Level: lvl}
		}
		if !ent.Writable() {
			writable = false
		}
		if lvl == LevelPTE || ent.Huge() {
			return Leaf{Node: n, Index: idx, Entry: ent, Level: lvl, Writable: writable}
		}
		n = n.children[idx]
		if n == nil {
			return Leaf{Level: lvl}
		}
	}
	return Leaf{}
}

// Lookup resolves va structurally. It returns the leaf entry, its level,
// and the effective writability honoring the minimum-permission rule
// across levels.
func (as *AddressSpace) Lookup(va mem.VirtAddr) (e Entry, level int, writable bool, ok bool) {
	l := as.Resolve(va)
	return l.Entry, l.Level, l.Writable, l.Node != nil
}

// LeafNode returns the node holding va's leaf entry and the index within
// it, or nil if the path is incomplete.
func (as *AddressSpace) LeafNode(va mem.VirtAddr) (*Node, int) {
	l := as.Resolve(va)
	return l.Node, l.Index
}

// Attach splices a shared sub-tree (DaxVM file table fragment) at the
// entry covering va at attachLevel. perm applies at the attachment entry —
// the per-process permission of the shared mapping.
func (as *AddressSpace) Attach(t *sim.Thread, va mem.VirtAddr, attachLevel int, sub *Node, perm mem.Perm) {
	if sub.Level != attachLevel-1 {
		panic(fmt.Sprintf("pt: attaching level-%d node at level %d", sub.Level, attachLevel))
	}
	if !mem.IsAligned(uint64(va), LevelSpan(attachLevel)) {
		panic("pt: unaligned attach")
	}
	n := as.ensurePath(t, va, attachLevel)
	e := BitPresent | BitUser | BitSoftAttached
	if perm.CanWrite() {
		e |= BitWrite
	}
	n.SetChild(t, index(va, attachLevel), sub, e)
}

// Detach removes an attached sub-tree, returning it.
func (as *AddressSpace) Detach(t *sim.Thread, va mem.VirtAddr, attachLevel int) *Node {
	n := as.Root
	for lvl := LevelPGD; lvl > attachLevel; lvl-- {
		idx := index(va, lvl)
		n = n.children[idx]
		if n == nil {
			return nil
		}
	}
	idx := index(va, attachLevel)
	if !n.Entry(idx).Attached() {
		return nil
	}
	sub := n.children[idx]
	n.ClearSlot(t, idx)
	return sub
}

// AttachedPerm rewrites the permission bits of an attachment entry
// (DaxVM mprotect over a whole mapping).
func (as *AddressSpace) AttachedPerm(t *sim.Thread, va mem.VirtAddr, attachLevel int, perm mem.Perm) bool {
	n := as.Root
	for lvl := LevelPGD; lvl > attachLevel; lvl-- {
		n = n.children[index(va, lvl)]
		if n == nil {
			return false
		}
	}
	idx := index(va, attachLevel)
	e := n.Entry(idx)
	if !e.Attached() {
		return false
	}
	e &^= BitWrite
	if perm.CanWrite() {
		e |= BitWrite
	}
	child := n.children[idx]
	n.SetChild(t, idx, child, e)
	return true
}

// ClearRange removes leaf translations in [start, end), returning how many
// present leaves were cleared. Attached sub-trees inside the range are
// detached (not recursed into). Empty non-shared interior nodes are freed.
func (as *AddressSpace) ClearRange(t *sim.Thread, start, end mem.VirtAddr) (cleared uint64) {
	return as.clearIn(t, as.Root, 0, start, end)
}

// clearIn clears [start,end) within node n which covers base..base+span.
func (as *AddressSpace) clearIn(t *sim.Thread, n *Node, base mem.VirtAddr, start, end mem.VirtAddr) (cleared uint64) {
	span := LevelSpan(n.Level)
	lo := 0
	if start > base {
		lo = int((uint64(start) - uint64(base)) / span)
	}
	hi := mem.PTEsPerTable - 1
	if covEnd := uint64(base) + span*mem.PTEsPerTable; uint64(end) < covEnd {
		hi = int((uint64(end) - 1 - uint64(base)) / span)
	}
	for idx := lo; idx <= hi; idx++ {
		e := n.Entry(idx)
		if !e.Present() {
			continue
		}
		slotBase := base + mem.VirtAddr(uint64(idx)*span)
		slotEnd := slotBase + mem.VirtAddr(span)
		covered := start <= slotBase && end >= slotEnd
		switch {
		case n.Level == LevelPTE || e.Huge():
			if !covered {
				panic("pt: partial clear of a leaf entry")
			}
			n.SetEntry(t, idx, 0)
			if e.Huge() {
				cleared += span / mem.PageSize
			} else {
				cleared++
			}
		case e.Attached():
			if !covered {
				// DaxVM mappings are unmapped whole; a partial clear
				// would mutate a shared file table.
				panic("pt: partial clear of attached fragment")
			}
			n.ClearSlot(t, idx)
			cleared += span / mem.PageSize // whole fragment detached
		default:
			child := n.children[idx]
			if child == nil {
				continue
			}
			cleared += as.clearIn(t, child, slotBase, start, end)
			if child.live == 0 && !child.Shared {
				n.ClearSlot(t, idx)
				if as.FreeNode != nil {
					as.FreeNode(t, child)
				}
			}
		}
	}
	return cleared
}
