// Package cost holds every calibrated constant of the simulator's timing
// model in one place, with provenance notes.
//
// All durations are in CPU cycles of the paper's testbed (Intel Xeon Gold
// Cascade Lake fixed at 2.7 GHz, so 1 ns = 2.7 cycles). Constants marked
// [paper] are taken from measurements reported in the DaxVM paper itself;
// constants marked [fast20] derive from Yang et al., "An Empirical Guide to
// the Behavior and Use of Scalable Persistent Memory" (FAST '20), which the
// paper cites for the same purpose; the rest are order-of-magnitude values
// from the cited systems literature, tuned so the paper's relative results
// reproduce (see EXPERIMENTS.md).
//
// # Typed-units naming convention
//
// Identifiers carry their unit in a name suffix, and the simlint
// chargeunits analyzer enforces that arithmetic does not mix them:
//
//   - bare names, and the suffixes Cycles/Cost/Latency/Lat: CPU cycles
//     (every constant in this package is cycle-valued unless its suffix
//     says otherwise)
//   - NS/Ns/Nanos: wall nanoseconds — convert with Cycles() before
//     charging
//   - Bytes, Pages: quantities, never durations
//   - Per<X> (PerPage, PerCycle, PerSecond, ...) and Pct: conversion
//     rates; multiplying by one changes units, so products are untyped
//
// Thread.Charge/ChargeAs/AddRemote/Sleep take cycles; adding a
// ns/byte/page value to a cycle value is flagged until it goes through a
// rate constant or Cycles().
package cost

// Frequency of the simulated cores.
const (
	CyclesPerSecond = 2_700_000_000
	CyclesPerUsec   = 2_700
)

// Cycles converts nanoseconds to cycles at the simulated frequency.
func Cycles(ns float64) uint64 { return uint64(ns * 2.7) }

// Syscall and trap costs.
const (
	// UserKernelCrossing is the one-way cost of entering or leaving the
	// kernel (KPTI-era trap, register save/restore).
	UserKernelCrossing = 700

	// SyscallDispatch is the in-kernel dispatch overhead per system call,
	// on top of the two crossings.
	SyscallDispatch = 300

	// FaultEntry is the hardware + entry cost of taking a page fault
	// exception before any handler work runs.
	FaultEntry = 800

	// MinorFaultService is the kernel work of a DAX minor fault: VMA
	// lookup, file-system block lookup, PTE allocation/installation.
	// [paper §III: paging dominates small-file mmap; tuned so mmap is
	// ~20-30% slower than read for 4-32 KiB files on Fig. 4.]
	MinorFaultService = 1_300

	// WriteProtectFaultService is the kernel work of a dirty-tracking
	// write-protect fault: page_mkwrite, radix-tree tagging, PTE upgrade.
	WriteProtectFaultService = 2_200

	// HugeFaultService is the extra work of installing a PMD-sized
	// mapping in one fault (huge page path).
	HugeFaultService = 3_400
)

// Virtual-memory operation costs (excluding lock waits, which the DES
// engine produces from contention).
const (
	// MmapFixed is the fixed kernel path of mmap: argument checks, VMA
	// allocation, address-space bookkeeping.
	MmapFixed = 1_600

	// VMAInsert / VMAErase are red-black-tree update costs.
	VMAInsert = 450
	VMAErase  = 450

	// VMAFind is a VMA tree lookup (fault path, munmap path).
	VMAFind = 260

	// GetUnmappedArea is Linux's search for a free virtual range.
	GetUnmappedArea = 500

	// MunmapFixed is the fixed kernel path of munmap before page-table
	// teardown.
	MunmapFixed = 1_300

	// PTEClearPerPage is the per-page cost of tearing down present PTEs
	// during unmap (clear + accounting).
	PTEClearPerPage = 90

	// PTESetPerPage is the per-page cost of installing a PTE outside the
	// fault path (MAP_POPULATE, DaxVM file-table population).
	PTESetPerPage = 80

	// TableAlloc is allocating + linking one page-table node in DRAM.
	TableAlloc = 500

	// EphemeralAlloc / EphemeralFree are DaxVM's heap bump-pointer
	// operations (atomics plus list update under a spinlock).
	EphemeralAlloc = 180
	EphemeralFree  = 160

	// AttachEntry is the cost of writing one attachment-level entry
	// (PMD/PUD) when splicing a DaxVM file table into a process tree.
	AttachEntry = 120
)

// TLB and shootdown costs. [paper §III-A3: IPIs cost up to thousands of
// cycles; Amit (ATC'17), LATR (ASPLOS'18) report 4-8k cycle shootdowns.]
const (
	// TLBInvlpgLocal is one local invlpg.
	TLBInvlpgLocal = 220

	// TLBFlushLocal is a full local TLB flush (CR3 write).
	TLBFlushLocal = 450

	// IPIBase is the initiator's fixed cost to send a shootdown IPI
	// (prepare cpumask, call function).
	IPIBase = 1_800

	// IPIPerTarget is the initiator's added wait per acknowledging core.
	IPIPerTarget = 900

	// IPITargetHandler is the interrupted core's handler cost (context +
	// invalidation work), charged to the target.
	IPITargetHandler = 1_400

	// IPIAckLatency is the initiator's wait for the last acknowledgement
	// once the IPIs are out (interrupt delivery + handler + ack write).
	IPIAckLatency = 2_200

	// FullFlushThresholdPages mirrors Linux/x86: past this many pages a
	// munmap performs a full TLB flush instead of per-page invlpg.
	FullFlushThresholdPages = 33
)

// Page-walk model. A TLB miss triggers a 4-level walk. Upper levels
// overwhelmingly hit the page-walk caches; the leaf PTE access goes to the
// memory holding the table node. The PTE-cacheline reuse model (8 PTEs per
// line) makes sequential access cheap and random access expensive, matching
// Table II of the paper: DRAM seq 28 / rand 111; PMem seq 103 / rand 821.
const (
	// WalkUpperLevels is the cost of the PGD/PUD/PMD lookups when they
	// hit the paging-structure caches.
	WalkUpperLevels = 15

	// WalkPTECachedDRAM: leaf PTE line resident in CPU cache (sequential
	// reuse), DRAM-backed table. [paper Table II: 28 total]
	WalkPTECachedDRAM = 13

	// WalkPTEMissDRAM: leaf PTE line fetched from DRAM. [Table II: 111]
	WalkPTEMissDRAM = 96

	// WalkPTECachedPMem: leaf PTE line resident in cache but the node
	// lives on PMem; first touch of each line costs a PMem fetch that the
	// model amortizes over the 8 PTEs of the line. [Table II: 103]
	WalkPTECachedPMem = 88

	// WalkPTEMissPMem: leaf PTE line fetched from Optane. [Table II: 821]
	WalkPTEMissPMem = 806

	// WalkHuge is a PMD-level hit (one fewer level, line almost always
	// cached thanks to 2 MiB reach).
	WalkHuge = 24
)

// DaxVM performance-monitor thresholds. [paper Table III]
const (
	// MonitorWalkCycleThreshold: average walk latency above this suggests
	// PMem-resident tables are hurting.
	MonitorWalkCycleThreshold = 200

	// MonitorMMUOverheadPct: percent of execution time in walks above
	// which migration triggers.
	MonitorMMUOverheadPct = 5
)

// Memory-technology latencies and bandwidths.
// [fast20] Optane read latency ~300 ns random, sequential-stream reads
// amortize to ~170 ns/line; DRAM ~80 ns. Per-thread bandwidths: DRAM copy
// ~11 GB/s, PMem read ~6.5 GB/s, nt-store ~2.3 GB/s, store+clwb ~1.2 GB/s.
const (
	PMemLoadLatency  = 824 // 305 ns random
	PMemSeqLoadLat   = 460 // 170 ns streaming
	CacheHitLatency  = 40  // L2/LLC-ish hit for recently-touched lines
	ClwbCost         = 90  // issue clwb for one line (throughput view)
	FenceCost        = 120 // sfence drain
	NTStoreLineCost  = 70  // issue one 64 B non-temporal store line
	SpinLockAcquire  = 80  // uncontended spinlock cycle cost
	SpinLockRelease  = 40
	SemAcquireFast   = 140 // uncontended rwsem acquire
	SemReleaseFast   = 100
	SchedWakeup      = 2_200 // blocking wakeup path (sleep+wake)
	KernelListOp     = 70
	RadixTreeTag     = 420 // page-cache radix tag set/clear with lock
	PerfCounterRead  = 250
	InodeCacheLookup = 380
	PathLookupPerCmp = 160 // per path component
	FDTableOp        = 120
)

// Per-thread copy/zero bandwidths expressed as cycles per 4 KiB page.
// cycles = 4096 bytes / (GB/s) * 2.7 cycles/ns.
const (
	// CopyDRAMPerPage: DRAM->DRAM copy at ~11 GB/s.
	CopyDRAMPerPage = 1_000

	// CopyFromPMemPerPage: PMem->DRAM inside a read(2). Kernel copies
	// cannot use AVX (register save/restore across the boundary, paper
	// §III-C), so they run at roughly half the user-space streaming
	// bandwidth: ~3.3 GB/s.
	CopyFromPMemPerPage = 2_900

	// UserCopyPMemPerPage: user-space AVX-512 memcpy out of mapped PMem
	// (web server page->socket, database record fetch) at ~6 GB/s.
	UserCopyPMemPerPage = 1_850

	// NTStorePMemPerPage: DRAM->PMem with non-temporal stores at
	// ~2.3 GB/s (write syscall path, user-space nt-store path).
	NTStorePMemPerPage = 4_800

	// ZeroPMemPerPage: zeroing with nt-stores, same engine as NTStore.
	ZeroPMemPerPage = 4_800

	// UserLoadPMemPerPage: user code streaming loads from PMem (text
	// search, checksum) at ~6.5 GB/s plus demand-miss stalls.
	UserLoadPMemPerPage = 1_700

	// UserLoadDRAMPerPage: user code re-reading a freshly copied DRAM
	// buffer; hot in cache, ~25 GB/s effective.
	UserLoadDRAMPerPage = 450
)

// File-system costs.
const (
	// ExtentLookup is mapping one file offset through the extent tree.
	ExtentLookup = 300

	// ExtentAllocBase / ExtentAllocPerExtent: block allocator work.
	ExtentAllocBase      = 1_500
	ExtentAllocPerExtent = 500

	// JournalBegin / JournalAddPerBlock / JournalCommit: jbd2-style
	// transaction costs. Commit includes log write + flush + fence.
	// [paper §V-C: MAP_SYNC faults triggering commits severely penalize
	// aged-image RocksDB.]
	JournalBegin       = 600
	JournalAddPerBlock = 250
	JournalCommit      = 24_000

	// NovaLogAppend is NOVA's per-operation metadata log append + flush.
	NovaLogAppend = 1_900

	// InodeUpdate is an in-place inode (meta)data update.
	InodeUpdate = 500

	// OpenPath / CloseFixed: open(2)/close(2) beyond crossings.
	OpenPath   = 1_800
	CloseFixed = 700

	// ReadWriteFixed is the fixed kernel path of read(2)/write(2) beyond
	// crossings (file position, rw checks, iterator setup).
	ReadWriteFixed = 900

	// FsyncFixed is the fixed fsync/msync path cost.
	FsyncFixed = 2_600
)

// Cross-socket (remote NUMA node) penalties. [fast20 §3.2] A remote
// Optane access crosses UPI before reaching the DIMM: read latency grows
// by ~170 ns and remote sequential-read bandwidth drops to roughly half
// of local; remote nt-store bandwidth collapses much harder (to ~1/3 of
// local, the paper's headline "remote Optane cliff"), because write
// buffering across the interconnect defeats the DIMM's combining buffer.
// DRAM pays the usual ~60-70 ns UPI hop. The per-page rates below are
// the extra cycles added on top of the local-rate charge for a 4 KiB
// page moved across sockets; the walk extras are the added leaf-fetch
// latency for one remote page-table access.
const (
	// RemotePMemReadExtraPerPage: local read ~6.5 GB/s vs remote
	// ~3.5 GB/s => ~+2.3 GB/s-equivalent extra cycles per page.
	RemotePMemReadExtraPerPage = 2_500

	// RemotePMemWriteExtraPerPage: local nt-store ~2.3 GB/s vs remote
	// ~0.8 GB/s; also applied to remote zeroing.
	RemotePMemWriteExtraPerPage = 9_600

	// RemotePMemWalkExtra: one remote Optane leaf-PTE fetch pays the
	// UPI round trip on top of the media latency (~170 ns).
	RemotePMemWalkExtra = 460

	// RemoteDRAMWalkExtra: one remote DRAM leaf-PTE fetch (~65 ns hop).
	RemoteDRAMWalkExtra = 170

	// IPICrossSocketPerTarget: extra initiator wait per shootdown target
	// on the other socket (interrupt delivery crosses UPI both ways).
	IPICrossSocketPerTarget = 900
)

// Device-wide bandwidth budget, in bytes per cycle, used by the token
// bucket that makes heavy writers (pre-zeroing daemon) interfere with
// foreground traffic. [fast20] whole-device: write ~13 GB/s, read ~37 GB/s
// for 3 interleaved DIMMs; per-DIMM-set values scaled to the paper's 3-DIMM
// single-socket setup.
const (
	PMemDeviceWriteBytesPerCycle = 2.6 // ≈7 GB/s (3 DIMMs x ~2.3 GB/s)
	PMemDeviceReadBytesPerCycle  = 7.4 // ≈20 GB/s (3 DIMMs x ~6.6 GB/s)
)
