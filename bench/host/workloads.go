package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"strings"
	"time"

	"daxvm/internal/cpu"
	"daxvm/internal/fs/agefs"
	"daxvm/internal/kernel"
	"daxvm/internal/mem"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
	"daxvm/internal/sim"
	"daxvm/internal/workload/pmemrocks"
	"daxvm/internal/workload/webserver"
	"daxvm/internal/workload/wl"
	"daxvm/internal/workload/ycsb"
)

// scale fixes every size a workload uses. Sizes are constants, never
// derived from elapsed time: the digests checked against the committed
// references are only comparable for equal work, and the measured calls
// include fixed per-cell work (webserve's page files, ycsb's preload), so
// operations per host second also depend on how many operations follow.
type scale struct {
	name            string
	deviceBytes     uint64 // webserve and scan PMem device
	webRequests     int    // per simulated server thread
	scanFileBytes   uint64
	scanOps         int // per scan cell
	ycsbDeviceBytes uint64
	ycsbRecords     uint64 // preloaded before run-a
	ycsbLoadOps     int
	ycsbRunOps      int
}

// fullScale is what the benchmark measures. ycsb needs the 3 GiB device:
// on 2 GiB these sizes run out of space on the aged image.
var fullScale = scale{
	name:            "full",
	deviceBytes:     2 << 30,
	webRequests:     3000,
	scanFileBytes:   64 << 20,
	scanOps:         1 << 20,
	ycsbDeviceBytes: 3 << 30,
	ycsbRecords:     10_000,
	ycsbLoadOps:     32_000,
	ycsbRunOps:      64_000,
}

// tinyScale runs every cell of every workload in a few seconds, for tests.
var tinyScale = scale{
	name:            "tiny",
	deviceBytes:     512 << 20,
	webRequests:     20,
	scanFileBytes:   4 << 20,
	scanOps:         2_000,
	ycsbDeviceBytes: 512 << 20,
	ycsbRecords:     400,
	ycsbLoadOps:     800,
	ycsbRunOps:      1_600,
}

// workload is one set of inputs the benchmark runs: a list of cells, each
// booting its own kernel, all driven closed-loop (a simulated thread issues
// its next operation when the previous one completes).
type workload struct {
	name  string
	why   string
	cells func(sc scale) []cellDef
}

var workloads = []workload{
	{
		name:  "webserve",
		why:   "16 threads each mmap, copy and munmap a 32 KiB page per request: sim handoffs, mmap_sem, 16-target shootdowns and DaxVM attach/detach",
		cells: webserveCells,
	},
	{
		name:  "scan",
		why:   "one thread of random 4 KiB and sequential 1 KiB reads over one file: translation and the PMem read path, with no lock or shootdown contention",
		cells: scanCells,
	},
	{
		name:  "ycsb",
		why:   "an LSM store on 4 client threads plus a prezero core: mapped WAL and SSTable writes, fallocate, journal commits, zeroing and compaction beside reads",
		cells: ycsbCells,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cellDef is one measured configuration of a workload.
type cellDef struct {
	name string
	run  func(c *cellCtx) outcome
}

// outcome is what a cell's measured call returned: the simulated
// operations it completed, its virtual makespan, its workload result
// fields and whether the workload's own output check passed.
type outcome struct {
	ops      uint64
	makespan uint64
	result   map[string]uint64
	verified bool
}

const webThreads = 16

func webserveCells(sc scale) []cellDef {
	var cells []cellDef
	for _, iface := range []wl.Iface{wl.Mmap, wl.DaxVMAsync} {
		cells = append(cells, cellDef{name: iface.Name, run: func(c *cellCtx) outcome {
			k := c.boot(kernel.Config{Cores: webThreads, DeviceBytes: sc.deviceBytes, Age: true, DaxVM: iface.DaxVM})
			var r webserver.Result
			c.measure(func() {
				r = webserver.Run(k, webserver.Config{
					Threads: webThreads, PageBytes: 32 << 10, Pages: 128,
					RequestsPerThread: sc.webRequests, Iface: iface, Seed: c.seed,
				})
			})
			return outcome{
				ops:      r.Requests,
				makespan: r.Cycles,
				result:   map[string]uint64{"requests": r.Requests, "bytes_moved": r.BytesMoved},
				verified: r.Requests == uint64(webThreads*sc.webRequests),
			}
		}})
	}
	return cells
}

// scanPattern is one scan cell: an interface and an access pattern.
type scanPattern struct {
	name   string
	iface  wl.Iface
	random bool
	unit   uint64
}

var scanPatterns = []scanPattern{
	{"read-rand4k", wl.Read, true, 4 << 10},
	{"mmap-rand4k", wl.Mmap, true, 4 << 10},
	{"daxvm-nosync-rand4k", wl.DaxVMNoSync, true, 4 << 10},
	{"mmap-seq1k", wl.Mmap, false, 1 << 10},
}

func scanCells(sc scale) []cellDef {
	cells := make([]cellDef, len(scanPatterns))
	for i, p := range scanPatterns {
		cells[i] = cellDef{name: p.name, run: func(c *cellCtx) outcome {
			// The DaxVM cell runs with the MMU monitor, which migrates hot
			// PMem file tables to DRAM, as the paper's irregular patterns do.
			k := c.boot(kernel.Config{Cores: 1, DeviceBytes: sc.deviceBytes, Age: true, DaxVM: p.iface.DaxVM, Monitor: p.iface.DaxVM})
			proc := k.NewProc()
			var fd int
			c.setup(k, func(t *sim.Thread) {
				var err error
				if fd, err = proc.Create(t, "big"); err != nil {
					panic(err)
				}
				if err := proc.Fallocate(t, fd, 0, sc.scanFileBytes); err != nil {
					panic(err)
				}
			})
			var bytes, cycles uint64
			c.measure(func() {
				proc.Spawn("scan", 0, 0, func(t *sim.Thread, core *cpu.Core) {
					bytes = scanLoop(t, core, proc, fd, p, sc, c.seed)
				})
				cycles = k.Run()
			})
			ops := uint64(sc.scanOps)
			return outcome{
				ops:      ops,
				makespan: cycles,
				result:   map[string]uint64{"ops": ops, "bytes": bytes},
				verified: bytes == ops*p.unit,
			}
		}}
	}
	return cells
}

// scanLoop issues the cell's reads and returns the bytes delivered.
func scanLoop(t *sim.Thread, c *cpu.Core, proc *kernel.Proc, fd int, p scanPattern, sc scale, seed int64) uint64 {
	size := sc.scanFileBytes
	var va mem.VirtAddr
	var err error
	switch {
	case p.iface.DaxVM:
		va, err = proc.DaxvmMmap(t, c, fd, 0, size, mem.PermRead, p.iface.Flags())
	case !p.iface.Syscall:
		va, err = proc.Mmap(t, c, fd, 0, size, mem.PermRead, p.iface.MapFlags())
	}
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	buf := make([]byte, p.unit)
	var off, done uint64
	for i := 0; i < sc.scanOps; i++ {
		if p.random {
			off = uint64(rng.Int63n(int64(size-p.unit))) &^ 63
		} else if off += p.unit; off+p.unit > size {
			off = 0
		}
		if p.iface.Syscall {
			n, err := proc.ReadAt(t, fd, off, buf)
			if err != nil {
				panic(err)
			}
			done += n
			continue
		}
		if err := proc.AccessMapped(t, c, va+mem.VirtAddr(off), p.unit, kernel.KindCopyOut); err != nil {
			panic(err)
		}
		done += p.unit
	}
	return done
}

const ycsbThreads = 4

func ycsbCells(sc scale) []cellDef {
	variants := []struct {
		iface   wl.Iface
		prezero bool
	}{{wl.Mmap, false}, {wl.DaxVMTables, true}}
	var cells []cellDef
	for _, mix := range []ycsb.Mix{ycsb.WorkloadLoad, ycsb.WorkloadA} {
		label, ops := "load", sc.ycsbLoadOps
		if mix.Name != "load" {
			label, ops = "run-"+mix.Name, sc.ycsbRunOps
		}
		for _, v := range variants {
			cells = append(cells, cellDef{name: label + "/" + v.iface.Name, run: func(c *cellCtx) outcome {
				cfg := pmemrocks.DefaultConfig()
				cfg.Mix, cfg.Iface, cfg.Seed = mix, v.iface, c.seed
				cfg.Threads, cfg.InitialRecords, cfg.Ops = ycsbThreads, sc.ycsbRecords, ops
				// One spare core runs the prezero daemon.
				k := c.boot(kernel.Config{
					Cores: ycsbThreads + 1, DeviceBytes: sc.ycsbDeviceBytes, Age: true,
					DaxVM: v.iface.DaxVM, Prezero: v.prezero,
				})
				var r pmemrocks.Result
				c.measure(func() { r = pmemrocks.Run(k, cfg) })
				return outcome{
					ops:      r.Ops,
					makespan: r.Cycles,
					result: map[string]uint64{
						"ops": r.Ops, "flushes": r.Flushes, "compactions": r.Compactions, "sstables": uint64(r.SSTables),
					},
					verified: r.Verified && r.Ops == uint64(ops/ycsbThreads*ycsbThreads),
				}
			}})
		}
	}
	return cells
}

// timelineTracks mirrors daxbench's counter tracks, so the timeline does
// the same work per sample as it does there.
var timelineTracks = []string{
	"cpu.faults",
	"mm.lock.read.wait_cycles",
	"mm.lock.wait_cycles",
	"pmem.bytes_read",
	"pmem.bytes_written",
	"pmem.nt_stores",
	"tlb.shootdowns",
}

// cellCtx carries one cell's seed, observability hub and host timings.
type cellCtx struct {
	seed   int64
	cell   string
	obs    *obs.Obs
	tl     *timeline.Timeline
	coll   *span.Collector
	setupS float64
	runS   float64
	host   []hostSpan
}

// boot boots a kernel with the benchmark's observability wiring and the
// seed's aging recipe, timed as set-up.
func (c *cellCtx) boot(cfg kernel.Config) *kernel.Kernel {
	cfg.Obs, cfg.Timeline, cfg.Spans = c.obs, c.tl, c.coll
	if cfg.Age {
		ac := agefs.DefaultConfig()
		ac.Seed = c.seed
		cfg.AgeConfig = &ac
	}
	var k *kernel.Kernel
	c.timed(phaseSetup, "boot", func() { k = kernel.Boot(cfg) })
	return k
}

// setup runs a benchmark-side fixture on the kernel, timed as set-up.
func (c *cellCtx) setup(k *kernel.Kernel, fn func(t *sim.Thread)) {
	c.timed(phaseSetup, "setup", func() { k.Setup(fn) })
}

// measure times the cell's measured call.
func (c *cellCtx) measure(fn func()) { c.timed(phaseRun, "run", fn) }

const (
	phaseSetup = "setup"
	phaseRun   = "run"
)

// timed runs fn under a pprof phase label (goroutines fn starts inherit
// it, so sim threads carry it too) and records a host-time span.
func (c *cellCtx) timed(phase, name string, fn func()) {
	start := time.Now()
	pprof.Do(context.Background(), pprof.Labels("phase", phase), func(context.Context) { fn() })
	end := time.Now()
	if phase == phaseSetup {
		c.setupS += end.Sub(start).Seconds()
	} else {
		c.runS += end.Sub(start).Seconds()
	}
	c.host = append(c.host, hostSpan{Name: name, Cell: c.cell, Start: start.UnixNano(), End: end.UnixNano()})
}

// hostSpan is one host-time interval: a cell, or a phase inside one.
type hostSpan struct {
	Name  string `json:"name"`
	Cell  string `json:"cell"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// digest is a cell's simulated outcome. Every field is deterministic for a
// given seed, so a host-speed change must leave it byte-identical.
type digest struct {
	Cell     string            `json:"cell"`
	Makespan uint64            `json:"makespan_cycles"`
	Result   map[string]uint64 `json:"result"`
	Verified bool              `json:"verified"`
	Events   uint64            `json:"engine_events"`
	Counters map[string]uint64 `json:"counters"`
}

// cellResult is one cell of one repetition.
type cellResult struct {
	Name   string            `json:"name"`
	Err    string            `json:"error,omitempty"`
	Ops    uint64            `json:"ops"`
	SetupS float64           `json:"setup_s"`
	RunS   float64           `json:"run_s"`
	Digest *digest           `json:"digest,omitempty"`
	Counts map[string]uint64 `json:"counts,omitempty"`
	Host   []hostSpan        `json:"host_spans"`
}

// runCell runs one cell on a fresh observability hub. A panic inside the
// cell (an ENOSPC from the file system, say) is recovered and reported as
// the cell's error.
func runCell(def cellDef, seed int64) (cr cellResult) {
	o := obs.New(0)
	c := &cellCtx{
		seed: seed,
		cell: def.name,
		obs:  o,
		tl:   timeline.New(o.Reg, o.Cycles, timeline.Config{Tracer: o.Trace, TrackCounters: timelineTracks}),
		// The span collector keeps three exemplars per class, as daxbench
		// does by default.
		coll: span.New(3),
	}
	c.tl.StartSegment(def.name)
	c.coll.StartSegment(def.name)
	cr.Name = def.name
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			cr.Err = fmt.Sprint("panic: ", r)
		}
		cr.SetupS, cr.RunS = c.setupS, c.runS
		cr.Host = append(c.host, hostSpan{Name: "cell", Cell: def.name, Start: start.UnixNano(), End: time.Now().UnixNano()})
	}()
	out := def.run(c)
	snap := o.Reg.Snapshot()
	cr.Ops = out.ops
	cr.Digest = &digest{
		Cell:     def.name,
		Makespan: out.makespan,
		Result:   out.result,
		Verified: out.verified,
		Events:   o.EnginesEvents(),
		Counters: snap.Counters,
	}
	cr.Counts = layerCounts(c, snap)
	if !out.verified {
		cr.Err = "workload output check failed"
	}
	return cr
}

// registryCounts are the registry counters reported as per-layer counts.
var registryCounts = []string{
	"tlb.hits", "tlb.misses", "cpu.walks", "cpu.pmem_walks", "cpu.ipis_sent",
	"mm.mmaps", "mm.munmaps", "mm.minor_faults", "mm.wp_faults", "mm.lock.contended", "mm.lock.wait_cycles",
	"core.attach_ops", "core.detach_ops", "core.zombie_batches", "core.prezero.zeroed",
	"pmem.bytes_read", "pmem.bytes_written", "pmem.throttle_stall_cycles",
	"ext4.appends", "ext4.journal.commits", "ext4.zeroed_blocks", "icache.hits",
}

// layerCounts reads the cell's deterministic per-layer work counts from
// the registry, the engines, the span export, the timeline and the cycle
// account.
func layerCounts(c *cellCtx, snap obs.Snapshot) map[string]uint64 {
	m := make(map[string]uint64, len(registryCounts)+5)
	for _, name := range registryCounts {
		m[name] = snap.Counters[name]
	}
	m["sim.events"] = c.obs.EnginesEvents()
	for _, seg := range c.coll.Export() {
		for _, ce := range seg.Classes {
			m["span.closed"] += ce.Count
			if strings.HasPrefix(ce.Class, "syscall.") {
				m["kernel.syscalls"] += ce.Count
			}
		}
	}
	for _, ex := range c.tl.Export() {
		m["timeline.intervals"] += uint64(len(ex.Intervals))
	}
	for _, l := range c.obs.Cycles.Snapshot().Leaves {
		m["obs.charges"] += l.Count
	}
	return m
}
