// Package kernel assembles the simulated machine: PMem device, cores,
// DRAM pool, a mounted file system (ext4-DAX or NOVA, optionally aged),
// the DaxVM extension, processes with their memory managers, and a
// POSIX-ish system-call surface that charges user/kernel crossing costs.
package kernel

import (
	"fmt"

	"daxvm/internal/core"
	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/dram"
	"daxvm/internal/fs/agefs"
	"daxvm/internal/fs/alloc"
	"daxvm/internal/fs/ext4"
	"daxvm/internal/fs/nova"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
	"daxvm/internal/topo"
)

// FSKind selects the file-system model.
type FSKind string

const (
	// Ext4 is ext4-DAX (the paper's default).
	Ext4 FSKind = "ext4-dax"
	// Nova is NOVA in relaxed mode.
	Nova FSKind = "nova"
)

// Config describes the machine.
type Config struct {
	// Cores is the number of hardware threads (the paper's socket has 16).
	Cores int
	// Nodes is the number of NUMA nodes (sockets). Default 1 keeps the
	// flat single-node machine; >1 splits DRAM, PMem DIMMs and cores
	// evenly across nodes.
	Nodes int
	// Placement is the default page/table placement policy for processes:
	// "", "local", "interleave" or "bind:<n>".
	Placement string
	// MountPlacement steers the file system's block allocator and
	// DaxVM's table placement (same syntax as Placement).
	MountPlacement string
	// DeviceBytes is PMem capacity (default 4 GiB).
	DeviceBytes uint64
	// DRAMBytes is volatile capacity (default 8 GiB).
	DRAMBytes uint64
	// FS picks the file-system model (default ext4-DAX).
	FS FSKind
	// Age runs Geriatrix-style churn at boot.
	Age bool
	// AgeConfig overrides the default aging recipe.
	AgeConfig *agefs.Config
	// DaxVM enables the DaxVM extension.
	DaxVM bool
	// DaxVMConfig tunes it.
	DaxVMConfig core.Config
	// Prezero starts the asynchronous block pre-zeroing daemon
	// (requires DaxVM).
	Prezero bool
	// Monitor starts the MMU performance monitor per process.
	Monitor bool
	// TrackPersistence enables crash simulation.
	TrackPersistence bool
	// HugePagesOff turns baseline DAX huge-page support off (it is on by
	// default).
	HugePagesOff bool
	// Obs, when set, receives every subsystem's counters and latency
	// histograms; its tracer receives one slice per closed span, so
	// per-operation trace events need Spans too. May be shared across
	// sequentially booted kernels, each closed before the next boots:
	// Close removes the kernel's counter readers, the histograms and the
	// trace ring accumulate.
	Obs *obs.Obs
	// Timeline, when set, rides a zero-cost sampler daemon on every
	// engine this kernel runs (aging, setup, measured) and brackets each
	// run with a flush, so per-interval cycle deltas reconcile exactly
	// against the engines' TotalCharged. Shared across sequentially
	// booted kernels the same way Obs is: Close removes the kernel's
	// saturation gauges and rebaselines the timeline, so the next
	// kernel's counters count from zero.
	Timeline *timeline.Timeline
	// Spans, when set, opens a causal span per top-level operation
	// (syscalls, faults, data-path accesses, journal commits, NOVA log
	// appends, TLB shootdowns, DaxVM zombie flushes and daemon work) on
	// every engine this kernel runs, with typed wait kinds and self-time
	// that reconciles exactly against the cycle account. Spans are the
	// only per-operation record: with Obs set, each closed span is also
	// written to Obs.Trace. Shared across sequentially booted kernels the
	// same way Obs is. The layers reach it through the thread's engine.
	Spans *span.Collector
}

func (c Config) withDefaults() Config {
	if c.Cores == 0 {
		c.Cores = 16
	}
	if c.DeviceBytes == 0 {
		c.DeviceBytes = 4 << 30
	}
	if c.DRAMBytes == 0 {
		c.DRAMBytes = 8 << 30
	}
	if c.FS == "" {
		c.FS = Ext4
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	return c
}

// MountedFS is the common surface of both FS models: vfs.FS plus the
// shared block core's mount-time controls.
type MountedFS interface {
	vfs.FS
	Allocator() *alloc.Allocator
	ReleaseZeroed(t *sim.Thread, ext []vfs.Extent)
	SetAgingMode(on bool)
	SetHooks(h *vfs.Hooks)
	SetTrustZeroed(on bool)
}

// iCacheCapacity bounds the inode cache.
const iCacheCapacity = 1 << 16

// Kernel is the booted machine.
type Kernel struct {
	Cfg    Config
	Engine *sim.Engine
	Topo   *topo.Topology
	Dev    *pmem.Device
	Cpus   *cpu.Set
	Pool   *dram.Pool
	FS     MountedFS
	ICache *vfs.ICache
	Dax    *core.DaxVM
	Obs    *obs.Obs

	AgeReport agefs.Report

	procs     []*Proc
	monitors  []*core.Monitor
	placement topo.Policy   // default per-process policy
	engines   []*sim.Engine // every engine this kernel attached (main + aging + setup), for run-queue gauges

	// shared latency histograms (registered once, fed by every core/proc)
	walkHist  *obs.Histogram
	faultHist *obs.Histogram

	// names of the counter readers and gauges this kernel registered in
	// the hub, for Close to remove
	counters []string
	gauges   []string
	closed   bool
}

// Boot builds the machine, formats (and optionally ages) the image, and
// wires DaxVM.
func Boot(cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	tp := topo.New(cfg.Nodes, max(cfg.Cores/cfg.Nodes, 1))
	k := &Kernel{
		Cfg:    cfg,
		Engine: sim.New(),
		Topo:   tp,
		Dev:    pmem.New(pmem.Config{Size: cfg.DeviceBytes, TrackPersistence: cfg.TrackPersistence, Topo: tp}),
		Cpus:   cpu.NewSet(cfg.Cores),
		Pool:   dram.NewNUMA(cfg.DRAMBytes, tp),
	}
	k.Cpus.SetTopology(tp)
	k.placement = topo.MustParsePolicy(cfg.Placement)

	switch cfg.FS {
	case Nova:
		k.FS = nova.Mkfs(nova.Config{Dev: k.Dev})
	default:
		k.FS = ext4.Mkfs(ext4.Config{Dev: k.Dev, JournalBytes: 128 << 20})
	}

	if tp.Multi() {
		mp := topo.MustParsePolicy(cfg.MountPlacement)
		a := k.FS.Allocator()
		a.SetPlacement(tp, mp, a.TotalBlocks()/uint64(tp.Nodes()))
	}

	var hooks *vfs.Hooks
	if cfg.DaxVM {
		k.Dax = core.New(cfg.DaxVMConfig, k.Dev, k.Pool, k.Cpus, k.FS.Allocator(), k.FS)
		if tp.Multi() {
			k.Dax.SetPlacement(topo.MustParsePolicy(cfg.MountPlacement))
		}
		hooks = k.Dax.Hooks(cfg.Prezero)
		k.FS.SetHooks(hooks)
		if cfg.Prezero {
			k.Dax.StartPrezero(k.Engine, cfg.Cores-1)
			k.FS.SetTrustZeroed(true)
		}
	}
	k.ICache = vfs.NewICache(k.FS, iCacheCapacity, hooks)

	if cfg.Obs != nil {
		k.wireObs(cfg.Obs)
	} else {
		// No hub, but a timeline sampler may still ride the main engine.
		k.attachEngine(k.Engine)
	}
	if cfg.Timeline != nil {
		k.registerGauges()
	}

	if cfg.Age {
		ac := agefs.DefaultConfig()
		if cfg.AgeConfig != nil {
			ac = *cfg.AgeConfig
		}
		setup := sim.New()
		k.attachEngine(setup)
		setup.Go("ager", 0, 0, func(t *sim.Thread) {
			t.PushAttr(labelSetupAge)
			rep, err := agefs.Age(t, k.FS, ac)
			if err != nil {
				panic(err)
			}
			k.AgeReport = rep
		})
		k.runEngine("age", setup)
		k.Dev.ResetTiming()
	}
	return k
}

// Close ends the machine; it is the only way a booted kernel ends. It
// releases the PMem device's host memory, removes from a shared hub the
// counter readers and saturation gauges this kernel registered, and
// rebaselines the timeline, so a kernel booted next on the same hub
// counts from zero and no export reads this one. The kernel must not run
// afterwards; its subsystems' Stats stay readable. Closing twice is a
// no-op.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	k.Dev.Release()
	if k.Obs != nil {
		k.Obs.Reg.Remove(k.counters...)
	}
	tl := k.Cfg.Timeline
	tl.RemoveGauges(k.gauges...)
	tl.Rebaseline()
}

// Setup runs fn on a dedicated setup engine thread (corpus creation etc.)
// and resets device timing afterwards so measurement starts clean. Setup
// work books under the "setup" attribution root, and the ephemeral engine
// registers with the hub so attributed cycles still reconcile.
func (k *Kernel) Setup(fn func(t *sim.Thread)) {
	e := sim.New()
	k.attachEngine(e)
	e.Go("setup", 0, 0, func(t *sim.Thread) {
		t.PushAttr(labelSetup)
		fn(t)
	})
	k.runEngine("setup", e)
	k.Dev.ResetTiming()
}

// attachEngine wires an engine into the hub (the cycle account reads its
// threads' charge tables; path ids are per engine) and the span
// collector (which the engine carries, and which reads its tallies),
// and rides the timeline sampler daemon on it.
func (k *Kernel) attachEngine(e *sim.Engine) {
	k.engines = append(k.engines, e)
	k.Obs.Attach(e)
	k.Cfg.Spans.Attach(e)
	if tl := k.Cfg.Timeline; tl != nil {
		e.GoSampler("timeline", 0, tl.NextWake, tl.Sample)
	}
}

// runEngine runs an engine, ends the spans its threads left open, and
// flushes the timeline so the tail interval (and the run's span mark)
// lands before the next run starts. A daemon parked inside a span when
// the last workload thread exits is torn down with the span open; ending
// it at the thread's clock books its cycles to its class.
func (k *Kernel) runEngine(label string, e *sim.Engine) uint64 {
	end := e.Run()
	sp := k.Cfg.Spans
	for _, t := range e.Threads() {
		for n := sp.OpenSpans(t); n > 0; n-- {
			//lint:ignore spanbalance ends a span the torn-down thread opened and never reached the End of
			sp.End(t)
		}
	}
	if tl := k.Cfg.Timeline; tl != nil {
		tl.FlushRun(label, end)
	}
	return end
}

// Run executes the main engine until all spawned workload threads finish,
// returning the final virtual time in cycles.
func (k *Kernel) Run() uint64 { return k.runEngine("run", k.Engine) }

// Proc is a simulated process.
type Proc struct {
	K   *Kernel
	MM  *mm.MM
	Dax *core.Proc

	fds    map[int]*FileDesc
	nextFD int
}

// FileDesc is an open file description.
type FileDesc struct {
	In  *vfs.Inode
	Pos uint64
}

// NewProc creates a process able to run on every core of the machine.
func (k *Kernel) NewProc() *Proc {
	p := &Proc{K: k, fds: make(map[int]*FileDesc), nextFD: 3}
	p.MM = mm.New(k.Pool, k.FS, k.Cpus)
	if k.Topo.Multi() {
		p.MM.SetPlacement(k.placement)
	}
	if k.Cfg.HugePagesOff {
		p.MM.HugePagesEnabled = false
	}
	for _, c := range k.Cpus.Cores {
		p.MM.RunOn(c)
	}
	if k.Dax != nil {
		p.Dax = k.Dax.NewProc(p.MM)
		if k.Cfg.Monitor {
			k.monitors = append(k.monitors, core.NewMonitor(p.Dax, k.Engine, 0))
		}
	}
	if k.Obs != nil {
		p.MM.FaultHist = k.faultHist
	}
	k.procs = append(k.procs, p)
	return p
}

// Spawn starts a workload thread of this process pinned to a core. All of
// the thread's work books under the "app" attribution root.
func (p *Proc) Spawn(name string, coreID int, start uint64, fn func(t *sim.Thread, c *cpu.Core)) {
	c := p.K.Cpus.Cores[coreID]
	p.K.Engine.Go(name, coreID, start, func(t *sim.Thread) {
		t.PushAttr(labelApp)
		c.Bind(t)
		fn(t, c)
	})
}

// Attribution labels: the syscall classes (each a span class too), the
// setup and app roots, mapped access and buffer consumption.
var (
	labelSysAppend      = sim.NewLabel("syscall.append")
	labelSysClose       = sim.NewLabel("syscall.close")
	labelSysCreate      = sim.NewLabel("syscall.create")
	labelSysDaxVMMmap   = sim.NewLabel("syscall.daxvm_mmap")
	labelSysDaxVMMunmap = sim.NewLabel("syscall.daxvm_munmap")
	labelSysFallocate   = sim.NewLabel("syscall.fallocate")
	labelSysFsync       = sim.NewLabel("syscall.fsync")
	labelSysFtruncate   = sim.NewLabel("syscall.ftruncate")
	labelSysMmap        = sim.NewLabel("syscall.mmap")
	labelSysMprotect    = sim.NewLabel("syscall.mprotect")
	labelSysMsync       = sim.NewLabel("syscall.msync")
	labelSysMunmap      = sim.NewLabel("syscall.munmap")
	labelSysOpen        = sim.NewLabel("syscall.open")
	labelSysPread       = sim.NewLabel("syscall.pread")
	labelSysPwrite      = sim.NewLabel("syscall.pwrite")
	labelSysRead        = sim.NewLabel("syscall.read")
	labelSysUnlink      = sim.NewLabel("syscall.unlink")
	labelSetupAge       = sim.NewLabel("setup.age")
	labelSetup          = sim.NewLabel("setup")
	labelApp            = sim.NewLabel("app")
	labelAccess         = sim.NewLabel("access")
	labelConsume        = sim.NewLabel("consume")
)

// --- system calls -----------------------------------------------------------

// sysEnter opens the syscall's attribution frame and span under class
// cls ("syscall.<name>", nested under the thread's current path) and
// charges the entry crossing. Every syscall pairs it with a deferred
// sysExit:
//
//	p.sysEnter(t, labelSysOpen)
//	defer p.sysExit(t)
func (p *Proc) sysEnter(t *sim.Thread, cls sim.Label) {
	t.Enter(cls)
	t.Charge(cost.UserKernelCrossing + cost.SyscallDispatch)
}

// sysExit charges the exit crossing and closes the span and frame
// sysEnter opened.
func (p *Proc) sysExit(t *sim.Thread) {
	t.Charge(cost.UserKernelCrossing)
	t.Leave()
}

// Open opens an existing file.
func (p *Proc) Open(t *sim.Thread, path string) (int, error) {
	p.sysEnter(t, labelSysOpen)
	defer p.sysExit(t)
	t.Charge(cost.OpenPath)
	in, err := p.K.ICache.Open(t, path)
	if err != nil {
		return -1, err
	}
	t.Charge(cost.FDTableOp)
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = &FileDesc{In: in}
	return fd, nil
}

// Create makes and opens a new file.
func (p *Proc) Create(t *sim.Thread, path string) (int, error) {
	p.sysEnter(t, labelSysCreate)
	defer p.sysExit(t)
	t.Charge(cost.OpenPath)
	in, err := p.K.ICache.Create(t, path)
	if err != nil {
		return -1, err
	}
	t.Charge(cost.FDTableOp)
	fd := p.nextFD
	p.nextFD++
	p.fds[fd] = &FileDesc{In: in}
	return fd, nil
}

// Close drops the descriptor.
func (p *Proc) Close(t *sim.Thread, fd int) error {
	p.sysEnter(t, labelSysClose)
	defer p.sysExit(t)
	t.Charge(cost.CloseFixed)
	f, err := p.file(fd)
	if err != nil {
		return err
	}
	delete(p.fds, fd)
	p.K.ICache.Put(t, f.In)
	return nil
}

// file returns the open file behind fd, or the bad-fd error every
// syscall reports.
func (p *Proc) file(fd int) (*FileDesc, error) {
	f, ok := p.fds[fd]
	if !ok {
		return nil, fmt.Errorf("kernel: bad fd %d", fd)
	}
	return f, nil
}

// Inode returns the inode behind fd (workload plumbing).
func (p *Proc) Inode(fd int) *vfs.Inode { return p.fds[fd].In }

// Read reads from the current position.
func (p *Proc) Read(t *sim.Thread, fd int, buf []byte) (uint64, error) {
	p.sysEnter(t, labelSysRead)
	defer p.sysExit(t)
	t.Charge(cost.ReadWriteFixed)
	f, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	n, err := p.K.FS.ReadAt(t, f.In, f.Pos, buf)
	f.Pos += n
	return n, err
}

// ReadAt reads at an absolute offset.
func (p *Proc) ReadAt(t *sim.Thread, fd int, off uint64, buf []byte) (uint64, error) {
	p.sysEnter(t, labelSysPread)
	defer p.sysExit(t)
	t.Charge(cost.ReadWriteFixed)
	f, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	return p.K.FS.ReadAt(t, f.In, off, buf)
}

// Append writes at end of file.
func (p *Proc) Append(t *sim.Thread, fd int, data []byte) error {
	p.sysEnter(t, labelSysAppend)
	defer p.sysExit(t)
	t.Charge(cost.ReadWriteFixed)
	f, err := p.file(fd)
	if err != nil {
		return err
	}
	return p.K.FS.Append(t, f.In, data)
}

// WriteAt overwrites existing bytes.
func (p *Proc) WriteAt(t *sim.Thread, fd int, off uint64, data []byte) error {
	p.sysEnter(t, labelSysPwrite)
	defer p.sysExit(t)
	t.Charge(cost.ReadWriteFixed)
	f, err := p.file(fd)
	if err != nil {
		return err
	}
	return p.K.FS.WriteAt(t, f.In, off, data)
}

// Fallocate reserves blocks.
func (p *Proc) Fallocate(t *sim.Thread, fd int, off, n uint64) error {
	p.sysEnter(t, labelSysFallocate)
	defer p.sysExit(t)
	f, err := p.file(fd)
	if err != nil {
		return err
	}
	return p.K.FS.Fallocate(t, f.In, off, n)
}

// Ftruncate resizes.
func (p *Proc) Ftruncate(t *sim.Thread, fd int, size uint64) error {
	p.sysEnter(t, labelSysFtruncate)
	defer p.sysExit(t)
	f, err := p.file(fd)
	if err != nil {
		return err
	}
	return p.K.FS.Truncate(t, f.In, size)
}

// Fsync commits the file.
func (p *Proc) Fsync(t *sim.Thread, fd int) error {
	p.sysEnter(t, labelSysFsync)
	defer p.sysExit(t)
	f, err := p.file(fd)
	if err != nil {
		return err
	}
	p.K.FS.Fsync(t, f.In)
	return nil
}

// Unlink removes a file.
func (p *Proc) Unlink(t *sim.Thread, path string) error {
	p.sysEnter(t, labelSysUnlink)
	defer p.sysExit(t)
	ino, err := p.K.FS.LookupPath(t, path)
	if err != nil {
		return err
	}
	if err := p.K.FS.Unlink(t, path); err != nil {
		return err
	}
	if in, ok := p.K.ICache.Get(ino); ok {
		in.Deleted = true
		if in.Refs == 0 {
			// Nothing holds it: reclaim now via a ref cycle.
			in.Refs = 1
			p.K.ICache.Put(t, in)
		}
	}
	return nil
}

// Mmap is the POSIX mmap(2) path.
func (p *Proc) Mmap(t *sim.Thread, c *cpu.Core, fd int, off, length uint64, perm mem.Perm, flags mm.MapFlags) (mem.VirtAddr, error) {
	p.sysEnter(t, labelSysMmap)
	defer p.sysExit(t)
	f, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	f.In.Refs++ // the mapping holds the inode
	va, err := p.MM.Mmap(t, c, f.In, off, length, perm, flags)
	if err != nil {
		f.In.Refs--
	}
	return va, err
}

// Munmap is munmap(2).
func (p *Proc) Munmap(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, length uint64) error {
	p.sysEnter(t, labelSysMunmap)
	defer p.sysExit(t)
	// Identify the inode to drop the mapping reference.
	p.MM.Sem.RLock(t, 0)
	v := p.MM.FindVMA(t, va)
	p.MM.Sem.RUnlock(t, 0)
	err := p.MM.Munmap(t, c, va, length)
	if err == nil && v != nil && v.Inode != nil {
		p.K.ICache.Put(t, v.Inode)
	}
	return err
}

// Msync is msync(2).
func (p *Proc) Msync(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, length uint64) error {
	p.sysEnter(t, labelSysMsync)
	defer p.sysExit(t)
	return p.MM.Msync(t, c, va, length)
}

// Mprotect is mprotect(2).
func (p *Proc) Mprotect(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, length uint64, perm mem.Perm) error {
	p.sysEnter(t, labelSysMprotect)
	defer p.sysExit(t)
	if p.Dax != nil {
		p.MM.Sem.RLock(t, 0)
		v := p.MM.FindVMA(t, va)
		p.MM.Sem.RUnlock(t, 0)
		if v != nil && v.DaxVM {
			return p.Dax.Mprotect(t, c, va, length, perm)
		}
	}
	return p.MM.Mprotect(t, c, va, length, perm)
}

// DaxvmMmap is daxvm_mmap(2).
func (p *Proc) DaxvmMmap(t *sim.Thread, c *cpu.Core, fd int, off, length uint64, perm mem.Perm, flags core.Flags) (mem.VirtAddr, error) {
	p.sysEnter(t, labelSysDaxVMMmap)
	defer p.sysExit(t)
	if p.Dax == nil {
		return 0, fmt.Errorf("kernel: DaxVM not enabled")
	}
	f, err := p.file(fd)
	if err != nil {
		return 0, err
	}
	f.In.Refs++
	va, err := p.Dax.Mmap(t, c, f.In, off, length, perm, flags)
	if err != nil {
		f.In.Refs--
	}
	return va, err
}

// DaxvmMunmap is daxvm_munmap(2).
func (p *Proc) DaxvmMunmap(t *sim.Thread, c *cpu.Core, va mem.VirtAddr) error {
	p.sysEnter(t, labelSysDaxVMMunmap)
	defer p.sysExit(t)
	p.MM.Sem.RLock(t, 0)
	v := p.MM.FindVMA(t, va)
	p.MM.Sem.RUnlock(t, 0)
	err := p.Dax.Munmap(t, c, va)
	if err == nil && v != nil && v.Inode != nil {
		p.K.ICache.Put(t, v.Inode)
	}
	return err
}

// --- user-space access helpers ----------------------------------------------

// AccessKind selects the data-cost model for touching mapped memory.
type AccessKind uint8

const (
	// KindSum: streaming 8-byte reads straight from PMem (checksum, text
	// search).
	KindSum AccessKind = iota
	// KindCopyOut: memcpy from PMem into a DRAM buffer/socket (AVX).
	KindCopyOut
	// KindNTWrite: non-temporal stores to PMem (user-managed
	// durability).
	KindNTWrite
	// KindCachedWrite: regular stores (kernel-synced durability).
	KindCachedWrite
)

func (k AccessKind) perPage() uint64 {
	switch k {
	case KindCopyOut:
		return cost.UserCopyPMemPerPage
	case KindNTWrite:
		return cost.NTStorePMemPerPage
	case KindCachedWrite:
		return cost.CacheHitLatency * 64
	default:
		return cost.UserLoadPMemPerPage
	}
}

func (k AccessKind) isWrite() bool { return k == KindNTWrite || k == KindCachedWrite }

// AccessMapped touches [va, va+n) from user space with the kind's data
// cost: translation, faults, payload cycles AND shared device-channel
// occupancy (DAX loads/stores cross the DIMM channel even without a
// kernel copy).
func (p *Proc) AccessMapped(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, n uint64, kind AccessKind) error {
	t.Enter(labelAccess)
	defer t.Leave()
	if err := p.MM.Access(t, c, va, n, kind.isWrite(), kind.perPage()); err != nil {
		return err
	}
	dev := p.K.Dev
	multi := dev.NodeCount() > 1
	var off uint64
	for rem := n; rem > 0; {
		chunk := rem
		if chunk > 64<<10 {
			chunk = 64 << 10
		}
		if multi {
			// Route channel occupancy to the bank actually backing this
			// chunk, so remote traffic contends on the remote node's DIMMs.
			node, ok := p.MM.NodeOfMapped(va + mem.VirtAddr(off))
			if !ok {
				node = 0
			}
			if kind.isWrite() {
				dev.BWWriteOn(t, node, chunk)
			} else {
				dev.BWReadOn(t, node, chunk)
			}
		} else if kind.isWrite() {
			dev.BWWrite(t, chunk)
		} else {
			dev.BWRead(t, chunk)
		}
		rem -= chunk
		off += chunk
	}
	return nil
}

// ConsumeBuffer models user code scanning an n-byte DRAM buffer it just
// read() (hot in cache).
func ConsumeBuffer(t *sim.Thread, n uint64) {
	t.ChargeAs(labelConsume, cost.UserLoadDRAMPerPage*(n+mem.PageSize-1)/mem.PageSize)
}
