package core

import (
	"fmt"

	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/dram"
	"daxvm/internal/fs/alloc"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/obs/span"
	"daxvm/internal/pmem"
	"daxvm/internal/pt"
	"daxvm/internal/sim"
	"daxvm/internal/topo"
)

// Flags are the daxvm_mmap flags (paper §IV-F).
type Flags uint32

const (
	// FlagEphemeral routes VA allocation through the ephemeral heap and
	// forbids every memory operation except munmap.
	FlagEphemeral Flags = 1 << iota
	// FlagUnmapAsync defers unmapping: zombie mappings are detached in
	// batches with one full TLB flush.
	FlagUnmapAsync
	// FlagNoMsync (combined with MAP_SYNC semantics) drops all kernel
	// dirty tracking; msync becomes a no-op and durability is entirely
	// user-space's job.
	FlagNoMsync
)

// Attachment attribution labels; "zombie_flush" is also a span class.
var (
	labelAttach      = sim.NewLabel("attach")
	labelDetach      = sim.NewLabel("detach")
	labelZombieFlush = sim.NewLabel("zombie_flush")
)

// Config tunes DaxVM.
type Config struct {
	// VolatileThreshold: files at or below this size use DRAM-only file
	// tables (default 32 KiB).
	VolatileThreshold uint64
	// AsyncBatchPages: zombie pages accumulated before a batched detach +
	// full flush (default 33; the paper also evaluates 512).
	AsyncBatchPages uint64
	// PrezeroBandwidthMBps throttles the background zeroing daemon
	// (default 1024 MB/s on an idle core; Fig. 9c also uses 64).
	PrezeroBandwidthMBps uint64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.VolatileThreshold == 0 {
		c.VolatileThreshold = VolatileThresholdDefault
	}
	if c.AsyncBatchPages == 0 {
		c.AsyncBatchPages = cost.FullFlushThresholdPages
	}
	if c.PrezeroBandwidthMBps == 0 {
		c.PrezeroBandwidthMBps = 1024
	}
	return c
}

// ZeroReleaser is the FS-side sink for daemon-zeroed blocks.
type ZeroReleaser interface {
	ReleaseZeroed(t *sim.Thread, ext []vfs.Extent)
}

// Stats aggregates DaxVM activity.
type Stats struct {
	AttachOps      uint64
	DetachOps      uint64
	AttachedChunks uint64
	ColdBuilds     uint64
	Upgrades       uint64 // volatile -> persistent conversions
	WPFaults2M     uint64
	MetaSyncs      uint64
	ZombieBatches  uint64
	ZombiePages    uint64
	ForcedUnmaps   uint64
	Migrations     uint64
	PMemTableBytes uint64
	DRAMTableBytes uint64
	PrezeroedMB    uint64
}

// DaxVM is the per-filesystem DaxVM state.
type DaxVM struct {
	cfg  Config
	dev  *pmem.Device
	dram *dram.Pool
	cpus *cpu.Set

	// metaAlloc supplies PMem blocks for persistent file tables (shared
	// with file data, as on a real image).
	metaAlloc *alloc.Allocator
	releaser  ZeroReleaser

	// tables holds persistent file tables (they outlive the inode
	// cache); volatile tables hang off vfs.Inode.FileTable.
	tables map[vfs.Ino]*FileTable

	prezero *Prezeroer
	// procs are the processes whose zombies a truncate forces out.
	procs []*Proc

	// placement chooses the node for volatile file-table nodes and
	// monitor-migrated DRAM shadows; ileave is its interleave cursor.
	placement topo.Policy
	ileave    uint64

	Stats Stats

	// descBuf stages one file-table descriptor block for writeDescriptor
	// (the device copies it out before the call returns).
	descBuf [mem.PageSize]byte
	// runBuf stages a run of file-table entries for one node's
	// SetEntries (Populate, Clear, copyTableNode, RecoverFileTable). A
	// run is built and stored with no handoff between, so no other
	// thread sees it.
	runBuf [mem.PTEsPerTable]pt.Entry
}

// New creates the DaxVM manager for one file system.
func New(cfg Config, dev *pmem.Device, pool *dram.Pool, cpus *cpu.Set, metaAlloc *alloc.Allocator, releaser ZeroReleaser) *DaxVM {
	return &DaxVM{
		cfg:       cfg.withDefaults(),
		dev:       dev,
		dram:      pool,
		cpus:      cpus,
		metaAlloc: metaAlloc,
		releaser:  releaser,
		tables:    make(map[vfs.Ino]*FileTable),
	}
}

// Config returns the effective configuration.
func (d *DaxVM) Config() Config { return d.cfg }

// SetPlacement selects where DaxVM's DRAM-resident table nodes go.
func (d *DaxVM) SetPlacement(p topo.Policy) { d.placement = p }

// pickNode applies the placement policy for a DRAM table allocation
// requested by t. Always node 0 on flat machines.
func (d *DaxVM) pickNode(t *sim.Thread) mem.NodeID {
	if d.cpus == nil || !d.cpus.Topo.Multi() {
		return 0
	}
	return d.placement.Pick(d.cpus.Topo, d.cpus.Topo.NodeOfCore(t.Core), &d.ileave)
}

// Hooks builds the vfs.Hooks wiring DaxVM into a file system. Pass
// prezero=true to intercept freed blocks for background zeroing.
func (d *DaxVM) Hooks(prezero bool) *vfs.Hooks {
	h := &vfs.Hooks{
		OnAlloc: func(t *sim.Thread, in *vfs.Inode, ext []vfs.Extent) {
			d.onAlloc(t, in, ext)
		},
		OnTruncate: func(t *sim.Thread, in *vfs.Inode) {
			d.onTruncate(t, in)
		},
		OnShrink: func(t *sim.Thread, in *vfs.Inode, keepBlocks uint64) {
			d.onShrink(t, in, keepBlocks)
		},
		OnEvict: func(t *sim.Thread, in *vfs.Inode) {
			d.onEvict(t, in)
		},
	}
	if prezero {
		h.OnFree = func(t *sim.Thread, ext []vfs.Extent) bool {
			if d.prezero == nil {
				return false
			}
			return d.prezero.Intercept(t, ext)
		}
	}
	return h
}

// StartPrezero creates the pre-zero daemon on the given engine/core.
func (d *DaxVM) StartPrezero(e *sim.Engine, coreID int) {
	d.prezero = NewPrezeroer(d, e, coreID)
}

// DrainPrezero synchronously zeroes and releases all pending blocks
// (experiment setup: "pre-zero in advance of running the workload").
func (d *DaxVM) DrainPrezero(t *sim.Thread) {
	if d.prezero != nil {
		d.prezero.Drain(t)
	}
}

// Prezero exposes the daemon state (stats, tests).
func (d *DaxVM) Prezero() *Prezeroer { return d.prezero }

// table returns the inode's file table, or nil: a persistent table
// lives in d.tables (it outlives the inode cache), a volatile one in
// in.FileTable.
func (d *DaxVM) table(in *vfs.Inode) *FileTable {
	if ft, ok := d.tables[in.Ino]; ok {
		return ft
	}
	ft, _ := in.FileTable.(*FileTable)
	return ft
}

// setTable makes ft the inode's file table, in the place its medium
// keeps it; nil drops the inode's table from both places.
func (d *DaxVM) setTable(in *vfs.Inode, ft *FileTable) {
	delete(d.tables, in.Ino)
	in.FileTable = nil
	switch {
	case ft == nil:
	case ft.Persistent:
		d.tables[in.Ino] = ft
	default:
		in.FileTable = ft
	}
}

// tableFor returns (building if needed) the file table for an inode.
func (d *DaxVM) tableFor(t *sim.Thread, in *vfs.Inode, fs vfs.FS) *FileTable {
	if ft := d.table(in); ft != nil {
		return ft
	}
	// Cold build from the extent map.
	ft := &FileTable{Ino: in.Ino, Persistent: in.Size > d.cfg.VolatileThreshold, d: d}
	ft.Populate(t, fs.Extents(in))
	d.Stats.ColdBuilds++
	d.setTable(in, ft)
	return ft
}

// onAlloc maintains tables as the FS allocates blocks.
func (d *DaxVM) onAlloc(t *sim.Thread, in *vfs.Inode, ext []vfs.Extent) {
	ft := d.table(in)
	if ft == nil {
		// Decide the medium by the size the file will have after this
		// allocation, so large files start persistent directly.
		var adding uint64
		for _, e := range ext {
			adding += e.Len * mem.PageSize
		}
		ft = &FileTable{Ino: in.Ino, Persistent: in.Size+adding > d.cfg.VolatileThreshold, d: d}
		d.setTable(in, ft)
	}
	ft.Populate(t, ext)
	// Volatile table outgrew the threshold: upgrade to persistent.
	if !ft.Persistent && ft.populatedPages()*mem.PageSize > d.cfg.VolatileThreshold {
		d.upgrade(t, in, ft)
	}
}

// upgrade converts a volatile table to a persistent one in place.
func (d *DaxVM) upgrade(t *sim.Thread, in *vfs.Inode, ft *FileTable) {
	d.Stats.Upgrades++
	ft.Persistent = true
	for ci := range ft.chunks {
		c := &ft.chunks[ci]
		if c.node == nil {
			continue
		}
		old := c.node
		c.node = d.copyTableNode(t, old, mem.PMem)
		d.freeTableNode(t, old)
	}
	ft.writeDescriptor(t)
	d.setTable(in, ft)
}

// onShrink trims table coverage after truncate.
func (d *DaxVM) onShrink(t *sim.Thread, in *vfs.Inode, keepBlocks uint64) {
	if ft := d.table(in); ft != nil {
		ft.Clear(t, keepBlocks)
		if keepBlocks == 0 {
			ft.Destroy(t)
			d.setTable(in, nil)
		}
	}
}

// onTruncate forces deferred unmappings of this inode before the FS
// reclaims blocks (safety, §IV-C "File system races").
func (d *DaxVM) onTruncate(t *sim.Thread, in *vfs.Inode) {
	for _, p := range d.procs {
		p.flushZombiesOf(t, in)
	}
}

// onEvict destroys volatile tables with the inode-cache entry; persistent
// tables survive unless the file is deleted.
func (d *DaxVM) onEvict(t *sim.Thread, in *vfs.Inode) {
	if ft := d.table(in); ft != nil && (!ft.Persistent || in.Deleted) {
		ft.Destroy(t)
		d.setTable(in, nil)
	}
}

// TableOf exposes the table for inspection (tests, storage accounting).
func (d *DaxVM) TableOf(in *vfs.Inode) *FileTable { return d.table(in) }

// --- per-process state -------------------------------------------------------

// Proc is DaxVM's per-process state, embedded by the kernel's process.
type Proc struct {
	d    *DaxVM
	MM   *mm.MM
	Heap *EphemeralHeap

	zombies     []*mm.VMA
	zombiePages uint64
}

// NewProc wires DaxVM into a process: installs the fault handlers and the
// ephemeral-VMA lookup.
func (d *DaxVM) NewProc(m *mm.MM) *Proc {
	p := &Proc{d: d, MM: m}
	p.Heap = NewEphemeralHeap(m)
	m.EphemeralLookup = p.Heap.Lookup
	m.DaxWPFault = p.wpFault
	d.procs = append(d.procs, p)
	return p
}

// Mmap is daxvm_mmap: O(1) attachment of pre-populated file tables.
// Returns the VA corresponding to fileOff (the mapping may silently cover
// more of the file for alignment, §IV-F).
func (p *Proc) Mmap(t *sim.Thread, core *cpu.Core, in *vfs.Inode, fileOff, length uint64, perm mem.Perm, flags Flags) (mem.VirtAddr, error) {
	if length == 0 {
		return 0, fmt.Errorf("daxvm: zero-length mmap")
	}
	d := p.d
	m := p.MM
	ft := d.tableFor(t, in, m.FS())

	// Round to attachment granularity.
	span := uint64(mem.HugeSize)
	attachLevel := pt.LevelPMD
	start := mem.AlignedDown(fileOff, span)
	end := mem.AlignedUp(fileOff+length, span)
	if cov := uint64(len(ft.chunks)) * mem.HugeSize; end > cov {
		end = cov
	}
	if end <= start {
		return 0, fmt.Errorf("daxvm: mmap beyond populated file (off %d, file pages %d)", fileOff, ft.populatedPages())
	}
	vlen := end - start

	ephemeral := flags&FlagEphemeral != 0
	var va mem.VirtAddr
	// Mode-conditional locking: the scalable ephemeral path takes mmap_sem
	// as a reader (heap-internal locking covers the rest), the regular path
	// as a writer. The release below branches on the same flag, which the
	// path-insensitive lockdiscipline walker cannot prove.
	//lint:ignore lockdiscipline released in the matching branch below
	if ephemeral {
		// Scalable path: mmap_sem as reader + heap-internal locking.
		m.Sem.RLock(t, cost.SemAcquireFast)
		va = p.Heap.Alloc(t, vlen)
	} else { //lint:ignore lockdiscipline released in the matching branch below
		m.Sem.Lock(t, cost.SemAcquireFast)
		va = m.GetUnmappedArea(t, vlen, span)
	}

	v := &mm.VMA{
		Start: va, End: va + mem.VirtAddr(vlen),
		Perm: perm, Flags: mm.MapShared | mm.MapSync,
		Inode: in, FileOff: start,
		DaxVM: true, Ephemeral: ephemeral,
		NoSync:      flags&FlagNoMsync != 0,
		UnmapAsync:  flags&FlagUnmapAsync != 0,
		AttachLevel: attachLevel,
	}

	p.attachRange(t, v, ft)
	d.Stats.AttachOps++

	if ephemeral {
		p.Heap.Register(t, v)
		in.AddMapper(v, func(t *sim.Thread) { p.forceUnmap(t, v) })
		//lint:ignore lockdiscipline acquired in the matching branch above
		m.Sem.RUnlock(t, cost.SemReleaseFast)
	} else {
		m.InsertVMA(t, v)
		in.AddMapper(v, func(t *sim.Thread) { p.forceUnmap(t, v) })
		//lint:ignore lockdiscipline acquired in the matching branch above
		m.Sem.Unlock(t, cost.SemReleaseFast)
	}
	return va + mem.VirtAddr(fileOff-start), nil
}

// attachPerm strips write when DaxVM dirty tracking (2 MiB-grained)
// applies, so first stores take the coarse tracking fault.
func attachPerm(v *mm.VMA) mem.Perm {
	perm := v.Perm
	if perm.CanWrite() && !v.NoSync {
		perm &^= mem.PermWrite
	}
	return perm
}

// attachRange splices the table fragments covering the VMA.
func (p *Proc) attachRange(t *sim.Thread, v *mm.VMA, ft *FileTable) {
	perm := attachPerm(v)
	cs := ft.chunksUnder(v)
	for i := range cs {
		va := v.Start + mem.VirtAddr(uint64(i)*mem.HugeSize)
		c := &cs[i]
		switch {
		case c.huge:
			p.MM.AS.Map(t, va, pt.MakeEntry(c.hugePFN, perm, true, true), pt.LevelPMD)
		case c.attached() != nil:
			p.MM.AS.Attach(t, va, pt.LevelPMD, c.attached(), perm)
		default:
			continue // hole
		}
		t.ChargeAs(labelAttach, cost.AttachEntry)
		p.d.Stats.AttachedChunks++
	}
}

// Munmap is daxvm_munmap. Async mappings become zombies; sync mappings
// detach immediately.
func (p *Proc) Munmap(t *sim.Thread, core *cpu.Core, va mem.VirtAddr) error {
	m := p.MM
	if v := p.Heap.Lookup(va); v != nil {
		m.Sem.RLock(t, cost.SemAcquireFast)
		if v.UnmapAsync {
			p.addZombie(t, core, v)
		} else {
			p.detachNow(t, core, v)
		}
		m.Sem.RUnlock(t, cost.SemReleaseFast)
		return nil
	}
	m.Sem.Lock(t, cost.SemAcquireFast)
	v := m.FindVMA(t, va)
	if v == nil || !v.DaxVM {
		m.Sem.Unlock(t, cost.SemReleaseFast)
		return fmt.Errorf("daxvm: munmap of non-daxvm mapping at %#x", va)
	}
	m.EraseVMA(t, v)
	if v.UnmapAsync {
		p.zombies = append(p.zombies, v)
		p.zombiePages += p.populatedPagesIn(v)
		if p.zombiePages >= p.d.cfg.AsyncBatchPages {
			p.flushZombies(t, core)
		}
	} else {
		p.detachEntries(t, core, v, true)
	}
	m.Sem.Unlock(t, cost.SemReleaseFast)
	return nil
}

// addZombie defers an ephemeral unmap (caller holds Sem as reader).
func (p *Proc) addZombie(t *sim.Thread, core *cpu.Core, v *mm.VMA) {
	p.Heap.lock.Lock(t, cost.SpinLockAcquire)
	p.zombies = append(p.zombies, v)
	p.zombiePages += p.populatedPagesIn(v)
	trigger := p.zombiePages >= p.d.cfg.AsyncBatchPages
	p.Heap.lock.Unlock(t, cost.SpinLockRelease)
	if trigger {
		p.flushZombies(t, core)
	}
}

// detachNow removes an ephemeral mapping synchronously.
func (p *Proc) detachNow(t *sim.Thread, core *cpu.Core, v *mm.VMA) {
	p.Heap.Unregister(t, v)
	p.detachEntries(t, core, v, true)
}

// detachEntries clears attachment entries and invalidates. Invalidation
// charges follow the POPULATED pages of the mapping, not the 2 MiB-rounded
// virtual span — only live translations can be cached.
func (p *Proc) detachEntries(t *sim.Thread, core *cpu.Core, v *mm.VMA, invalidate bool) {
	pages := p.populatedPagesIn(v)
	p.MM.AS.ClearRange(t, v.Start, v.End)
	nChunks := uint64(v.End-v.Start) / mem.HugeSize
	t.ChargeAs(labelDetach, cost.AttachEntry*nChunks)
	v.Inode.RemoveMapper(v)
	p.d.Stats.DetachOps++
	if invalidate && pages > 0 {
		targets := p.MM.Cores()
		if pages <= cost.FullFlushThresholdPages {
			vas := p.populatedVAsIn(v, cost.FullFlushThresholdPages)
			p.d.cpus.Shootdown(t, core, targets, cpu.ShootPages, vas, 0, 0)
		} else {
			p.d.cpus.Shootdown(t, core, targets, cpu.ShootFull, nil, 0, 0)
		}
	}
}

// populatedVAsIn lists the virtual pages of the mapping that have live
// translations (bounded by limit).
func (p *Proc) populatedVAsIn(v *mm.VMA, limit uint64) []mem.VirtAddr {
	ft := p.d.table(v.Inode)
	var vas []mem.VirtAddr
	if ft == nil {
		return vas
	}
	cs := ft.chunksUnder(v)
	for i := range cs {
		base := v.Start + mem.VirtAddr(uint64(i)*mem.HugeSize)
		cnt := cs[i].pages()
		for pg := 0; pg < cnt; pg++ {
			vas = append(vas, base+mem.VirtAddr(pg*mem.PageSize))
			if uint64(len(vas)) >= limit {
				return vas
			}
		}
	}
	return vas
}

// populatedPagesIn estimates live PTEs under the mapping (for
// invalidation policy).
func (p *Proc) populatedPagesIn(v *mm.VMA) uint64 {
	ft := p.d.table(v.Inode)
	if ft == nil {
		return uint64(v.End-v.Start) / mem.PageSize
	}
	cs := ft.chunksUnder(v)
	var pages uint64
	for i := range cs {
		pages += uint64(cs[i].pages())
	}
	return pages
}

// flushZombies detaches every zombie with ONE full TLB flush across the
// process's cores (§IV-C).
func (p *Proc) flushZombies(t *sim.Thread, core *cpu.Core) {
	t.PushAttr(labelZombieFlush)
	defer t.PopAttr()
	p.Heap.lock.Lock(t, cost.SpinLockAcquire)
	zs := p.zombies
	p.zombies = nil
	pages := p.zombiePages
	p.zombiePages = 0
	p.Heap.lock.Unlock(t, cost.SpinLockRelease)
	if len(zs) == 0 {
		return
	}
	span.Of(t).Open(t, labelZombieFlush)
	defer span.Of(t).End(t)
	p.detachZombies(t, core, zs, false)
	p.d.Stats.ZombieBatches++
	p.d.Stats.ZombiePages += pages
}

// flushZombiesOf forces zombies of one inode synchronously (truncate
// race, §IV-C).
func (p *Proc) flushZombiesOf(t *sim.Thread, in *vfs.Inode) {
	var mine []*mm.VMA
	rest := p.zombies[:0]
	for _, v := range p.zombies {
		if v.Inode == in {
			mine = append(mine, v)
			p.zombiePages -= p.populatedPagesIn(v)
		} else {
			rest = append(rest, v)
		}
	}
	p.zombies = rest
	if len(mine) == 0 {
		return
	}
	p.detachZombies(t, p.MM.AnyCore(), mine, true)
}

// detachZombies detaches each zombie in zs, counting it as a forced
// unmap if forced (truncate race), then flushes every core of the
// process once, from core; a nil core skips the flush.
func (p *Proc) detachZombies(t *sim.Thread, core *cpu.Core, zs []*mm.VMA, forced bool) {
	for _, v := range zs {
		if v.Ephemeral {
			p.Heap.Unregister(t, v)
		}
		p.detachEntries(t, core, v, false)
		if forced {
			p.d.Stats.ForcedUnmaps++
		}
	}
	if core != nil {
		p.d.cpus.Shootdown(t, core, p.MM.Cores(), cpu.ShootFull, nil, 0, 0)
	}
}

// forceUnmap is the inode-mapper callback (truncate of a live mapping).
func (p *Proc) forceUnmap(t *sim.Thread, v *mm.VMA) {
	if v.Ephemeral {
		p.Heap.Unregister(t, v)
	} else {
		p.MM.Sem.Lock(t, cost.SemAcquireFast)
		p.MM.EraseVMA(t, v)
		p.MM.Sem.Unlock(t, cost.SemReleaseFast)
	}
	p.detachEntries(t, p.MM.AnyCore(), v, true)
	p.d.Stats.ForcedUnmaps++
}

// wpFault is the DaxVM write-protect fault path: dirty tracking at the
// attachment granularity (2 MiB), MAP_SYNC commit, permission upgrade at
// the attachment entry.
func (p *Proc) wpFault(t *sim.Thread, core *cpu.Core, v *mm.VMA, va mem.VirtAddr) error {
	t.Charge(cost.WriteProtectFaultService)
	p.d.Stats.WPFaults2M++
	if !v.NoSync {
		if p.MM.FS().SyncMetaIfDirty(t, v.Inode) {
			p.d.Stats.MetaSyncs++
		}
		// Mark the 2 MiB region dirty by its first page (one radix op
		// per region).
		region := (uint64(va.HugeDown()-v.Start) + v.FileOff) / mem.PageSize
		t.Charge(cost.RadixTreeTag)
		v.Inode.DirtyPages.Mark(region)
	}
	// Upgrade the attachment-level entry.
	hva := va.HugeDown()
	if !p.MM.AS.AttachedPerm(t, hva, pt.LevelPMD, v.Perm) {
		// Huge leaf chunk: upgrade the PMD leaf itself.
		leaf, idx := p.MM.AS.LeafNode(hva)
		if leaf == nil {
			//lint:ignore hotalloc error path: a fault on an unmapped page ends the workload
			return fmt.Errorf("daxvm: wp fault on unmapped %#x", va)
		}
		leaf.SetEntry(t, idx, leaf.Entry(idx)|pt.BitWrite|pt.BitDirty)
	}
	t.Charge(cost.PTESetPerPage)
	return nil
}

// Mprotect over a DaxVM mapping: whole mappings only; ephemeral never.
func (p *Proc) Mprotect(t *sim.Thread, core *cpu.Core, va mem.VirtAddr, length uint64, perm mem.Perm) error {
	if v := p.Heap.Lookup(va); v != nil {
		return fmt.Errorf("daxvm: mprotect on ephemeral mapping")
	}
	p.MM.Sem.Lock(t, cost.SemAcquireFast)
	defer p.MM.Sem.Unlock(t, cost.SemReleaseFast)
	v := p.MM.FindVMA(t, va)
	if v == nil || !v.DaxVM {
		return fmt.Errorf("daxvm: mprotect of unknown mapping")
	}
	if va != v.Start+mem.VirtAddr(0) || length < v.Len() {
		return fmt.Errorf("daxvm: partial mprotect unsupported")
	}
	v.Perm = perm
	eff := attachPerm(v)
	for hva := v.Start; hva < v.End; hva += mem.HugeSize {
		p.MM.AS.AttachedPerm(t, hva, pt.LevelPMD, eff)
		t.Charge(cost.AttachEntry)
	}
	p.d.cpus.Shootdown(t, core, p.MM.Cores(), cpu.ShootFull, nil, 0, 0)
	return nil
}

// ZombieCount reports pending deferred unmaps (tests, vulnerability-window
// accounting).
func (p *Proc) ZombieCount() int { return len(p.zombies) }

// vmasOf collects the process's live DaxVM VMAs mapping the given inode:
// the VMA tree's, then the ephemeral heap's, each in address order.
// Caller holds Sem.
func (p *Proc) vmasOf(ino vfs.Ino) []*mm.VMA {
	var out []*mm.VMA
	p.MM.EachVMA(func(v *mm.VMA) {
		if v.DaxVM && v.Inode != nil && v.Inode.Ino == ino {
			out = append(out, v)
		}
	})
	p.Heap.vmas.All(func(_ uint64, v *mm.VMA) bool {
		if v.Inode != nil && v.Inode.Ino == ino {
			out = append(out, v)
		}
		return true
	})
	return out
}
