package main

import (
	"fmt"
	"runtime"
	"time"

	"daxvm/internal/core"
	"daxvm/internal/cpu"
	"daxvm/internal/kernel"
	"daxvm/internal/mem"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
	"daxvm/internal/sim"
	"daxvm/internal/workload/wl"
)

// microChild is the -child name that runs the layer microbenchmarks.
const microChild = "layers"

// micros names the layer microbenchmarks, each the prefix of its two
// metrics. Each drives one hot public function in a loop inside a sim
// thread of a booted kernel wired with the workloads' observability.
var micros = []string{
	"sim.handoff",             // a Yield passing the token between two ping-ponging threads
	"cpu.translate_hit",       // Core.Translate served by the TLB
	"cpu.translate_walk_dram", // Core.Translate missing the TLB, walking DRAM file tables
	"cpu.translate_walk_pmem", // Core.Translate missing the TLB, walking PMem file tables
	"cpu.shootdown16",         // Set.Shootdown of a full flush to 16 target cores
	"mm.fault",                // Proc.AccessMapped taking a first-touch minor fault
	"pmem.read4k",             // Device.Read of 4 KiB
	"obs.charge",              // CycleAccount.Charge on an existing path
	"span.observe",            // Collector.Observe booking a charge into an open span
	"timeline.sample",         // Timeline.Sample closing one interval
}

// microResult is one microbenchmark's cost per operation. Allocations are
// runtime.MemStats.Mallocs deltas over the timed loop.
type microResult struct {
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func timeOps(ops int, loop func()) microResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	loop()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return microResult{
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
	}
}

const (
	microFileBytes = 64 << 20
	microPages     = microFileBytes / mem.PageSize
	// microStride visits the mapped pages in an order that defeats both the
	// 1,536-entry TLB and the PTE-line cache: coprime to the page count and
	// far larger than either.
	microStride = 4099
)

// microKernel boots an unaged kernel whose DaxVM file tables live in DRAM
// for files up to tableThreshold bytes and in PMem above it. Huge pages are
// off so POSIX mappings fault and walk at 4 KiB.
func microKernel(cores int, tableThreshold uint64) *kernel.Kernel {
	o := obs.New(0)
	return kernel.Boot(kernel.Config{
		Cores: cores, DeviceBytes: 512 << 20, HugePagesOff: true,
		DaxVM: true, DaxVMConfig: core.Config{VolatileThreshold: tableThreshold},
		Obs:      o,
		Timeline: timeline.New(o.Reg, o.Cycles, timeline.Config{Tracer: o.Trace, TrackCounters: timelineTracks}),
		Spans:    span.New(3),
	})
}

// tableFile creates a file whose DaxVM file tables resolve at 4 KiB: its
// blocks are allocated in 512 KiB steps interleaved with a pad file, so no
// 2 MiB chunk is physically contiguous.
func tableFile(t *sim.Thread, proc *kernel.Proc, name string) int {
	fd, err := proc.Create(t, name)
	if err != nil {
		panic(err)
	}
	pad, err := proc.Create(t, name+".pad")
	if err != nil {
		panic(err)
	}
	for off := uint64(0); off < microFileBytes; off += 512 << 10 {
		if err := proc.Fallocate(t, fd, 0, off+512<<10); err != nil {
			panic(err)
		}
		if err := proc.Fallocate(t, pad, 0, off/1024+4096); err != nil {
			panic(err)
		}
	}
	return fd
}

// onCore runs fn on a fresh setup engine of k, bound to core 0.
func onCore(k *kernel.Kernel, fn func(t *sim.Thread, c *cpu.Core)) {
	k.Setup(func(t *sim.Thread) {
		c := k.Cpus.Cores[0]
		c.Bind(t)
		defer c.Unbind()
		fn(t, c)
	})
}

// mapTables maps a tableFile through daxvm_mmap and touches every page, so
// the translations below only walk.
func mapTables(t *sim.Thread, c *cpu.Core, proc *kernel.Proc, fd int) mem.VirtAddr {
	va, err := proc.DaxvmMmap(t, c, fd, 0, microFileBytes, mem.PermRead, wl.DaxVMNoSync.Flags())
	if err != nil {
		panic(err)
	}
	if err := proc.AccessMapped(t, c, va, microFileBytes, kernel.KindSum); err != nil {
		panic(err)
	}
	return va
}

// walkLoop times ops translations that each miss the TLB and walk.
func walkLoop(t *sim.Thread, c *cpu.Core, proc *kernel.Proc, va mem.VirtAddr, ops int) microResult {
	c.TLB.FlushAll()
	misses := c.TLB.Stats.Misses
	var idx uint64
	r := timeOps(ops, func() {
		for i := 0; i < ops; i++ {
			idx = (idx + microStride) % microPages
			if _, res := c.Translate(t, proc.MM.AS, va+mem.VirtAddr(idx*mem.PageSize), false); res != cpu.TransOK {
				panic(fmt.Sprintf("walk micro: translate result %d", res))
			}
		}
	})
	if got := c.TLB.Stats.Misses - misses; got != uint64(ops) {
		panic(fmt.Sprintf("walk micro: %d of %d translations missed the TLB", got, ops))
	}
	return r
}

// runMicros runs every layer microbenchmark once.
func runMicros() map[string]microResult {
	out := map[string]microResult{}
	const dramTables = 1 << 62 // every file's tables stay volatile

	k := microKernel(16, dramTables)
	proc := k.NewProc()
	var tables, faults int
	k.Setup(func(t *sim.Thread) {
		tables = tableFile(t, proc, "tables")
		var err error
		if faults, err = proc.Create(t, "faults"); err != nil {
			panic(err)
		}
		if err := proc.Fallocate(t, faults, 0, microFileBytes); err != nil {
			panic(err)
		}
	})

	onCore(k, func(t *sim.Thread, c *cpu.Core) {
		va := mapTables(t, c, proc, tables)
		const hitOps = 4_000_000
		c.Translate(t, proc.MM.AS, va, false) // refill: the touch loop evicted it
		hits := c.TLB.Stats.Hits
		out["cpu.translate_hit"] = timeOps(hitOps, func() {
			for i := 0; i < hitOps; i++ {
				c.Translate(t, proc.MM.AS, va, false)
			}
		})
		if got := c.TLB.Stats.Hits - hits; got != hitOps {
			panic(fmt.Sprintf("translate_hit micro: %d of %d translations hit", got, hitOps))
		}
		out["cpu.translate_walk_dram"] = walkLoop(t, c, proc, va, 1_000_000)

		const shootOps = 200_000
		targets := k.Cpus.Cores
		out["cpu.shootdown16"] = timeOps(shootOps, func() {
			for i := 0; i < shootOps; i++ {
				k.Cpus.Shootdown(t, c, targets, cpu.ShootFull, nil, 0, 0)
			}
		})
	})

	onCore(k, func(t *sim.Thread, c *cpu.Core) {
		// Lazy mappings of the same file: every page of each takes one
		// first-touch fault.
		const maps = 4
		vas := make([]mem.VirtAddr, maps)
		for i := range vas {
			var err error
			if vas[i], err = proc.Mmap(t, c, faults, 0, microFileBytes, mem.PermRead, wl.Mmap.MapFlags()); err != nil {
				panic(err)
			}
		}
		before := proc.MM.Stats.MinorFaults
		out["mm.fault"] = timeOps(maps*microPages, func() {
			for _, va := range vas {
				for p := uint64(0); p < microPages; p++ {
					if err := proc.AccessMapped(t, c, va+mem.VirtAddr(p*mem.PageSize), 64, kernel.KindSum); err != nil {
						panic(err)
					}
				}
			}
		})
		if got := proc.MM.Stats.MinorFaults - before; got != maps*microPages {
			panic(fmt.Sprintf("fault micro: %d faults for %d first touches", got, maps*microPages))
		}
	})

	onCore(k, func(t *sim.Thread, c *cpu.Core) {
		buf := make([]byte, 4<<10)
		read := func(ops int) {
			for i := 0; i < ops; i++ {
				k.Dev.Read(t, mem.PhysAddr(uint64(i)%microPages*mem.PageSize), buf)
			}
		}
		read(microPages) // fault the host pages in before timing
		const readOps = 1_000_000
		out["pmem.read4k"] = timeOps(readOps, func() { read(readOps) })

		const chargeOps = 10_000_000
		acct := k.Obs.Cycles
		acct.Charge(0, "app.micro", 1)
		out["obs.charge"] = timeOps(chargeOps, func() {
			for i := 0; i < chargeOps; i++ {
				acct.Charge(0, "app.micro", 1)
			}
		})

		sp := k.Cfg.Spans
		sp.Begin(t, "micro")
		out["span.observe"] = timeOps(chargeOps, func() {
			for i := 0; i < chargeOps; i++ {
				sp.Observe(t, "app.micro", 1, false)
			}
		})
		sp.End(t)

		const sampleOps = 20_000
		tl := k.Cfg.Timeline
		now := t.Now()
		out["timeline.sample"] = timeOps(sampleOps, func() {
			for i := 0; i < sampleOps; i++ {
				now += timeline.DefaultBaseInterval
				tl.Sample(now)
			}
		})
	})

	kp := microKernel(1, 0) // default threshold: a 64 MiB file gets PMem tables
	pproc := kp.NewProc()
	var ptables int
	kp.Setup(func(t *sim.Thread) { ptables = tableFile(t, pproc, "tables") })
	onCore(kp, func(t *sim.Thread, c *cpu.Core) {
		va := mapTables(t, c, pproc, ptables)
		walks := c.Stats.PMemWalks
		const ops = 1_000_000
		out["cpu.translate_walk_pmem"] = walkLoop(t, c, pproc, va, ops)
		if got := c.Stats.PMemWalks - walks; got != ops {
			panic(fmt.Sprintf("pmem walk micro: %d of %d walks read PMem tables", got, ops))
		}
	})

	// The handoff runs last, on k's main engine: two threads at equal
	// clocks, so every Yield passes the token to the other.
	const yields = 500_000
	for core := 0; core < 2; core++ {
		proc.Spawn("pingpong", core, 0, func(t *sim.Thread, _ *cpu.Core) {
			for i := 0; i < yields; i++ {
				t.Yield()
			}
		})
	}
	out["sim.handoff"] = timeOps(2*yields, func() { k.Run() })
	return out
}
