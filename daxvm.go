// Package daxvm is the public API of the DaxVM reproduction: a simulated
// PMem machine (device, cores, MMU, ext4-DAX/NOVA file systems) with the
// DaxVM extension — pre-populated file tables with O(1) mmap, an
// ephemeral address-space heap, asynchronous batched unmapping, nosync
// durability and asynchronous block pre-zeroing — plus the experiment
// harness that regenerates every table and figure of the MICRO 2022 paper.
//
// Quick start:
//
//	sys := daxvm.NewSystem(daxvm.Config{Cores: 4, EnableDaxVM: true})
//	p := sys.NewProcess()
//	sys.Main(p, func(t *daxvm.Thread, c *daxvm.Core) {
//	    fd, _ := p.Create(t, "hello")
//	    p.Append(t, fd, []byte("persistent bytes"))
//	    va, _ := p.DaxvmMmap(t, c, fd, 0, 16, daxvm.ReadOnly, daxvm.MapEphemeral)
//	    p.AccessMapped(t, c, va, 16, daxvm.AccessSum)
//	    p.DaxvmMunmap(t, c, va)
//	})
//	sys.Run()
package daxvm

import (
	"io"

	"daxvm/internal/bench"
	"daxvm/internal/core"
	"daxvm/internal/cpu"
	"daxvm/internal/kernel"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/sim"
)

// Aliases exposing the simulation vocabulary through the public API.
type (
	// Thread is a simulated hardware thread (virtual-clocked).
	Thread = sim.Thread
	// Core is one simulated CPU.
	Core = cpu.Core
	// Process is a simulated process with its own address space.
	Process = kernel.Proc
	// VirtAddr is a simulated user virtual address.
	VirtAddr = mem.VirtAddr
	// AccessKind selects the data-cost model of a mapped access.
	AccessKind = kernel.AccessKind
	// Snapshot is a point-in-time reading of every registered metric;
	// subtract two with Delta for measured-window reporting.
	Snapshot = obs.Snapshot
)

// Permissions.
const (
	ReadOnly  = mem.PermRead
	ReadWrite = mem.PermRead | mem.PermWrite
)

// daxvm_mmap flags (paper §IV-F).
const (
	// MapEphemeral requests the scalable ephemeral-heap allocator
	// (MAP_EPHEMERAL).
	MapEphemeral = core.FlagEphemeral
	// MapUnmapAsync defers unmapping into batched TLB flushes
	// (MAP_UNMAP_ASYNC).
	MapUnmapAsync = core.FlagUnmapAsync
	// MapNoMsync drops all kernel dirty tracking; durability is
	// user-space's job (MAP_NO_MSYNC).
	MapNoMsync = core.FlagNoMsync
)

// POSIX mmap flags.
const (
	MapShared   = mm.MapShared
	MapPopulate = mm.MapPopulate
	MapSync     = mm.MapSync
)

// Mapped-access kinds.
const (
	// AccessSum streams 8-byte loads over the mapping (checksum/search).
	AccessSum = kernel.KindSum
	// AccessCopyOut memcpy-s mapped PMem into a DRAM buffer with AVX.
	AccessCopyOut = kernel.KindCopyOut
	// AccessNTWrite stores with non-temporal writes (user durability).
	AccessNTWrite = kernel.KindNTWrite
	// AccessCachedWrite stores through the cache (msync durability).
	AccessCachedWrite = kernel.KindCachedWrite
)

// FS kinds.
const (
	FSExt4 = kernel.Ext4
	FSNova = kernel.Nova
)

// Config describes a simulated machine.
type Config struct {
	// Cores is the hardware-thread count (default 16, the paper's
	// single socket).
	Cores int
	// DeviceBytes is PMem capacity (default 4 GiB).
	DeviceBytes uint64
	// FS selects the file system (FSExt4 default, FSNova).
	FS kernel.FSKind
	// Age churns the image Geriatrix-style before use.
	Age bool
	// EnableDaxVM activates the DaxVM kernel extension.
	EnableDaxVM bool
	// Prezero starts the asynchronous block pre-zeroing daemon.
	Prezero bool
	// Monitor starts the MMU performance monitor.
	Monitor bool
	// VolatileThreshold / AsyncBatchPages / PrezeroBandwidthMBps tune
	// DaxVM (zero = paper defaults).
	VolatileThreshold    uint64
	AsyncBatchPages      uint64
	PrezeroBandwidthMBps uint64
	// TrackPersistence enables crash simulation.
	TrackPersistence bool
	// TraceCapacity bounds the event-trace ring (0 = default 64k events).
	TraceCapacity int
}

// System is a booted simulated machine.
type System struct {
	K *kernel.Kernel
}

// NewSystem boots a machine. Every system carries an observability hub:
// counters, latency histograms, a span collector and the event tracer it
// writes every closed span to are always wired (the hot-path cost is a
// few branches), readable via Snapshot and WriteTrace.
func NewSystem(cfg Config) *System {
	k := kernel.Boot(kernel.Config{
		Obs:         obs.New(cfg.TraceCapacity),
		Spans:       span.New(0),
		Cores:       cfg.Cores,
		DeviceBytes: cfg.DeviceBytes,
		FS:          cfg.FS,
		Age:         cfg.Age,
		DaxVM:       cfg.EnableDaxVM,
		DaxVMConfig: core.Config{
			VolatileThreshold:    cfg.VolatileThreshold,
			AsyncBatchPages:      cfg.AsyncBatchPages,
			PrezeroBandwidthMBps: cfg.PrezeroBandwidthMBps,
		},
		Prezero:          cfg.Prezero,
		Monitor:          cfg.Monitor,
		TrackPersistence: cfg.TrackPersistence,
	})
	return &System{K: k}
}

// Close ends the machine (kernel.Kernel.Close): it returns the PMem
// device's host memory, which nothing else gives back before the process
// exits. Snapshot and WriteTrace stay usable; Run and Setup do not.
func (s *System) Close() { s.K.Close() }

// NewProcess creates a process.
func (s *System) NewProcess() *Process { return s.K.NewProc() }

// Main schedules fn as the workload of core 0 of the last-created process;
// use Spawn on the process for multi-threaded workloads.
func (s *System) Main(p *Process, fn func(t *Thread, c *Core)) {
	p.Spawn("main", 0, 0, fn)
}

// Run executes all spawned threads to completion, returning the virtual
// makespan in cycles.
func (s *System) Run() uint64 { return s.K.Run() }

// Setup runs fn outside the measured window (corpus creation etc.).
func (s *System) Setup(fn func(t *Thread)) { s.K.Setup(fn) }

// Snapshot reads every registered metric. Take one before and one after a
// measured window and subtract (after.Delta(before)) to report only the
// window's activity.
func (s *System) Snapshot() Snapshot { return s.K.Obs.Reg.Snapshot() }

// WriteTrace exports the retained event trace as Chrome trace-event JSON,
// viewable in Perfetto (https://ui.perfetto.dev) or chrome://tracing: one
// slice per operation (syscall, fault, mapped access, shootdown, journal
// commit, daemon work) named by its span class, one track per simulated
// core; timestamps are virtual cycles converted to microseconds at the
// simulated 2.7 GHz clock.
func (s *System) WriteTrace(w io.Writer) error { return s.K.Obs.Trace.WriteChromeTrace(w) }

// Experiments lists the reproducible experiment ids (tables/figures).
func Experiments() []string { return bench.IDs() }

// RunExperiment regenerates one paper table/figure, rendering the result
// to w. quick shrinks working sets for CI. log, when non-nil, receives
// per-configuration progress lines as the experiment runs. It closes the
// experiment's last machine before it returns, so no device memory
// outlives the call.
func RunExperiment(id string, quick bool, w, log io.Writer) (map[string]float64, error) {
	e, ok := bench.ByID(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	r := e.Run(bench.Options{Quick: quick, Log: log})
	bench.Render(w, r)
	bench.CloseLast()
	return r.Metrics, nil
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "daxvm: unknown experiment " + string(e)
}
