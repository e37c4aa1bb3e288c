package kernel

import (
	"fmt"

	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/fs/ext4"
	"daxvm/internal/fs/nova"
	"daxvm/internal/obs"
)

// wireObs connects an observability hub to this kernel: the tracer is
// attached to the span collector, whose End writes one slice per closed
// span, and a reader for each legacy Stats counter is registered under a
// dotted namespace. The hub may be shared across sequentially booted
// kernels (bench runs many machines), each closed before the next boots:
// Close removes the kernel's readers, so a snapshot reads only the live
// kernel, while the trace ring accumulates events from all of them.
func (k *Kernel) wireObs(o *obs.Obs) {
	k.Obs = o
	// Route every cycle the main engine charges into the hierarchical
	// cycle account, and register the engine's total so bench tests can
	// assert the profile reconciles (attributed == simulated).
	k.attachEngine(k.Engine)
	tr := o.Trace
	if tr != nil {
		tr.CyclesPerUsec = float64(cost.CyclesPerUsec)
	}
	k.Cfg.Spans.SetTracer(tr)
	if o.Reg == nil {
		return
	}
	k.walkHist = o.Reg.Histogram("cpu.walk_latency")
	k.faultHist = o.Reg.Histogram("mm.fault_latency")
	for _, c := range k.Cpus.Cores {
		c.WalkHist = k.walkHist
	}
	k.registerCounters()
}

// counter registers a reader in the hub's registry and records its name
// for Close to remove.
func (k *Kernel) counter(name string, fn func() uint64) {
	k.Obs.Reg.Counter(name, fn)
	k.counters = append(k.counters, name)
}

// gauge registers a saturation gauge on the timeline and records its name
// for Close to remove.
func (k *Kernel) gauge(name string, fn func(now uint64) uint64) {
	k.Cfg.Timeline.Gauge(name, fn)
	k.gauges = append(k.gauges, name)
}

// sumCores builds a reader summing a per-core quantity at snapshot time.
func (k *Kernel) sumCores(f func(*cpu.Core) uint64) func() uint64 {
	return func() uint64 {
		var s uint64
		for _, c := range k.Cpus.Cores {
			s += f(c)
		}
		return s
	}
}

// sumProcs builds a reader summing a per-process quantity. The closure
// walks k.procs live, so processes created after registration count too.
func (k *Kernel) sumProcs(f func(*Proc) uint64) func() uint64 {
	return func() uint64 {
		var s uint64
		for _, p := range k.procs {
			s += f(p)
		}
		return s
	}
}

// registerCounters exposes every legacy Stats struct under the metrics
// registry. Registration is boot-time work; the hot paths keep bumping
// their plain struct fields and the closures read them at snapshot time.
func (k *Kernel) registerCounters() {
	// tlb.*: translation caching, summed over cores.
	k.counter("tlb.hits", k.sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.Hits }))
	k.counter("tlb.misses", k.sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.Misses }))
	k.counter("tlb.full_flushes", k.sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.FullFlush }))
	k.counter("tlb.page_invals", k.sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.PageInval }))
	k.counter("tlb.insertions", k.sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.Insertions }))
	k.counter("tlb.shootdowns", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.IPIsSent }))

	// cpu.*: MMU and IPI behaviour, summed over cores.
	k.counter("cpu.walks", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.Walks }))
	k.counter("cpu.walk_cycles", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.WalkCycles }))
	k.counter("cpu.pmem_walks", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.PMemWalks }))
	k.counter("cpu.faults", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.Faults }))
	k.counter("cpu.ipis_sent", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.IPIsSent }))
	k.counter("cpu.ipis_received", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.IPIsReceived }))
	k.counter("cpu.shootdown_wait_cycles", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.ShootdownWait }))

	// mm.*: the baseline VM paths, summed over processes.
	k.counter("mm.mmaps", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.Mmaps }))
	k.counter("mm.munmaps", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.Munmaps }))
	k.counter("mm.minor_faults", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.MinorFaults }))
	k.counter("mm.huge_faults", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.HugeFaults }))
	k.counter("mm.wp_faults", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.WPFaults }))
	k.counter("mm.spurious_wp", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.SpuriousWP }))
	k.counter("mm.meta_syncs", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.MetaSyncs }))
	k.counter("mm.pages_mapped", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.PagesMapped }))
	k.counter("mm.pages_cleared", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.PagesCleared }))
	k.counter("mm.shootdowns", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.Shootdowns }))
	k.counter("mm.full_flushes", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.FullFlushes }))
	k.counter("mm.msync_pages", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.MsyncPages }))

	// mm.lock.*: mmap_sem writer side; mm.lock.read.*: reader side.
	k.counter("mm.lock.acquisitions", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.Stats.Acquisitions }))
	k.counter("mm.lock.contended", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.Stats.Contended }))
	k.counter("mm.lock.wait_cycles", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.Stats.WaitCycles }))
	k.counter("mm.lock.hold_cycles", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.Stats.HoldCycles }))
	k.counter("mm.lock.read.acquisitions", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.ReaderStats.Acquisitions }))
	k.counter("mm.lock.read.contended", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.ReaderStats.Contended }))
	k.counter("mm.lock.read.wait_cycles", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.ReaderStats.WaitCycles }))
	k.counter("mm.lock.read.hold_cycles", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.ReaderStats.HoldCycles }))

	// File systems: only the mounted one registers.
	switch fs := k.FS.(type) {
	case *ext4.FS:
		k.counter("ext4.creates", func() uint64 { return fs.Stats.Creates })
		k.counter("ext4.unlinks", func() uint64 { return fs.Stats.Unlinks })
		k.counter("ext4.appends", func() uint64 { return fs.Stats.Appends })
		k.counter("ext4.zeroed_blocks", func() uint64 { return fs.Stats.ZeroedBlocks })
		k.counter("ext4.skipped_zero", func() uint64 { return fs.Stats.SkippedZero })
		k.counter("ext4.meta_syncs", func() uint64 { return fs.Stats.MetaSyncs })
		j := fs.Journal()
		k.counter("ext4.journal.begins", func() uint64 { return j.Stats.Begins })
		k.counter("ext4.journal.commits", func() uint64 { return j.Stats.Commits })
		k.counter("ext4.journal.blocks", func() uint64 { return j.Stats.Blocks })
	case *nova.FS:
		k.counter("nova.log_appends", func() uint64 { return fs.Stats.LogAppends })
		k.counter("nova.zeroed_blocks", func() uint64 { return fs.Stats.ZeroedBlocks })
		k.counter("nova.skipped_zero", func() uint64 { return fs.Stats.SkippedZero })
	}

	ic := k.ICache
	k.counter("icache.hits", func() uint64 { return ic.Stats.Hits })
	k.counter("icache.cold_loads", func() uint64 { return ic.Stats.ColdLoads })
	k.counter("icache.evictions", func() uint64 { return ic.Stats.Evictions })

	dev := k.Dev
	k.counter("pmem.bytes_read", func() uint64 { return dev.Stats.BytesRead })
	k.counter("pmem.bytes_written", func() uint64 { return dev.Stats.BytesWritten })
	k.counter("pmem.bytes_zeroed", func() uint64 { return dev.Stats.BytesZeroed })
	k.counter("pmem.nt_stores", func() uint64 { return dev.Stats.NTStores })
	k.counter("pmem.cached_stores", func() uint64 { return dev.Stats.CachedStores })
	k.counter("pmem.clwbs", func() uint64 { return dev.Stats.Clwbs })
	k.counter("pmem.fences", func() uint64 { return dev.Stats.Fences })
	k.counter("pmem.throttle_stall_cycles", func() uint64 { return dev.Stats.ThrottleStall })
	k.counter("pmem.bw.busy_cycles", func() uint64 { return dev.Stats.BusyCycles })

	// Per-node breakdowns: only on multi-node machines, so single-node
	// snapshots stay byte-identical to the flat model's.
	if k.Topo.Multi() {
		for i := 0; i < dev.NodeCount(); i++ {
			ns := dev.NodeStats(i)
			pfx := fmt.Sprintf("pmem.node%d.", i)
			k.counter(pfx+"bytes_read", func() uint64 { return ns.BytesRead })
			k.counter(pfx+"bytes_written", func() uint64 { return ns.BytesWritten })
			k.counter(pfx+"bytes_zeroed", func() uint64 { return ns.BytesZeroed })
			k.counter(pfx+"nt_stores", func() uint64 { return ns.NTStores })
			k.counter(pfx+"throttle_stall_cycles", func() uint64 { return ns.ThrottleStall })
			k.counter(pfx+"bw.busy_cycles", func() uint64 { return ns.BusyCycles })
		}
		for i := 0; i < k.Pool.NodeCount(); i++ {
			node := i
			k.counter(fmt.Sprintf("dram.node%d.used_bytes", i), func() uint64 { return k.Pool.UsedOn(node) })
		}
	}

	pool := k.Pool
	k.counter("dram.allocs", func() uint64 { return pool.Stats.Allocs })
	k.counter("dram.frees", func() uint64 { return pool.Stats.Frees })
	// Gauges: snapshot deltas clamp at zero when they shrink.
	k.counter("dram.used_bytes", func() uint64 { return pool.Used() })
	k.counter("dram.peak_bytes", func() uint64 { return pool.Peak() })

	if d := k.Dax; d != nil {
		k.counter("core.attach_ops", func() uint64 { return d.Stats.AttachOps })
		k.counter("core.detach_ops", func() uint64 { return d.Stats.DetachOps })
		k.counter("core.attached_chunks", func() uint64 { return d.Stats.AttachedChunks })
		k.counter("core.cold_builds", func() uint64 { return d.Stats.ColdBuilds })
		k.counter("core.upgrades", func() uint64 { return d.Stats.Upgrades })
		k.counter("core.wp_faults_2m", func() uint64 { return d.Stats.WPFaults2M })
		k.counter("core.meta_syncs", func() uint64 { return d.Stats.MetaSyncs })
		k.counter("core.zombie_batches", func() uint64 { return d.Stats.ZombieBatches })
		k.counter("core.zombie_pages", func() uint64 { return d.Stats.ZombiePages })
		k.counter("core.forced_unmaps", func() uint64 { return d.Stats.ForcedUnmaps })
		k.counter("core.migrations", func() uint64 { return d.Stats.Migrations })
		k.counter("core.pmem_table_bytes", func() uint64 { return d.Stats.PMemTableBytes })
		k.counter("core.dram_table_bytes", func() uint64 { return d.Stats.DRAMTableBytes })
		k.counter("core.prezeroed_mb", func() uint64 { return d.Stats.PrezeroedMB })
		k.counter("core.prezero.intercepted", func() uint64 {
			if pz := d.Prezero(); pz != nil {
				return pz.Stats.Intercepted
			}
			return 0
		})
		k.counter("core.prezero.zeroed", func() uint64 {
			if pz := d.Prezero(); pz != nil {
				return pz.Stats.Zeroed
			}
			return 0
		})
		k.counter("core.prezero.stalls", func() uint64 {
			if pz := d.Prezero(); pz != nil {
				return pz.Stats.Stalls
			}
			return 0
		})
		k.counter("core.prezero.batches", func() uint64 {
			if pz := d.Prezero(); pz != nil {
				return pz.Stats.Batches
			}
			return 0
		})
		k.counter("core.monitor.samples", func() uint64 {
			var s uint64
			for _, m := range k.monitors {
				s += m.Stats.Samples
			}
			return s
		})
		k.counter("core.monitor.triggers", func() uint64 {
			var s uint64
			for _, m := range k.monitors {
				s += m.Stats.Triggers
			}
			return s
		})
	}
}

// --- saturation gauges -------------------------------------------------------
//
// Gauge readers are named methods (not closures) on purpose: the simlint
// hotalloc analyzer roots them by name, proving the per-sample path never
// allocates. Every reader is a pure snapshot — no charges, no simulated
// state mutation — so a run with gauges attached produces bit-identical
// metrics to one without.

// gaugeRunQueue sums runnable-thread counts over every engine this kernel
// attached; finished engines report zero.
func (k *Kernel) gaugeRunQueue(now uint64) uint64 {
	var s uint64
	for _, e := range k.engines {
		s += uint64(e.ReadyDepth())
	}
	return s
}

// gaugeMmapSemQueue sums mmap_sem waiter counts over live processes.
func (k *Kernel) gaugeMmapSemQueue(now uint64) uint64 {
	var s uint64
	for _, p := range k.procs {
		s += uint64(p.MM.Sem.WaitQueueDepth())
	}
	return s
}

// gaugeInflightIPIs reads the shootdown machinery's in-flight IPI window.
func (k *Kernel) gaugeInflightIPIs(now uint64) uint64 {
	return k.Cpus.InflightIPIs(now)
}

// gaugePMemBacklog sums queued transfer cycles over every PMem bank.
func (k *Kernel) gaugePMemBacklog(now uint64) uint64 {
	var s uint64
	for i := 0; i < k.Dev.NodeCount(); i++ {
		s += k.Dev.BacklogOn(i, now)
	}
	return s
}

// gaugeDramOccupancy reads pool fill in tenths of a percent.
func (k *Kernel) gaugeDramOccupancy(now uint64) uint64 {
	return k.Pool.OccupancyPerMille()
}

// gaugeJournalQueue reads the ext4 journal commit-lock queue depth.
func (k *Kernel) gaugeJournalQueue(now uint64) uint64 {
	f, ok := k.FS.(*ext4.FS)
	if !ok {
		return 0
	}
	return uint64(f.Journal().WaitQueueDepth())
}

// nodeGauge binds a per-node gauge reader to its node index; methods on a
// named type keep the readers visible to the hotalloc analyzer.
type nodeGauge struct {
	k    *Kernel
	node int
}

func (g nodeGauge) pmemBacklog(now uint64) uint64 { return g.k.Dev.BacklogOn(g.node, now) }

func (g nodeGauge) dramOccupancy(now uint64) uint64 { return g.k.Pool.OccupancyOnPerMille(g.node) }

// registerGauges wires every contended resource's saturation gauge onto
// the timeline sampler. Names are the contract the bottleneck analyzer
// (internal/obs/bottleneck) resolves; per-node tracks register only on
// multi-node machines so single-node exports stay byte-identical to the
// flat model's. Close removes them again, matching registerCounters.
func (k *Kernel) registerGauges() {
	k.gauge("rq.depth", k.gaugeRunQueue)
	k.gauge("mmap_sem.queue", k.gaugeMmapSemQueue)
	k.gauge("tlb.inflight_ipis", k.gaugeInflightIPIs)
	k.gauge("pmem.bw.backlog", k.gaugePMemBacklog)
	k.gauge("dram.occupancy", k.gaugeDramOccupancy)
	if _, ok := k.FS.(*ext4.FS); ok {
		k.gauge("ext4.journal.queue", k.gaugeJournalQueue)
	}
	if k.Topo.Multi() {
		for i := 0; i < k.Dev.NodeCount(); i++ {
			g := nodeGauge{k, i}
			k.gauge(fmt.Sprintf("pmem.node%d.bw.backlog", i), g.pmemBacklog)
		}
		for i := 0; i < k.Pool.NodeCount(); i++ {
			g := nodeGauge{k, i}
			k.gauge(fmt.Sprintf("dram.node%d.occupancy", i), g.dramOccupancy)
		}
	}
}
