package kernel

import (
	"fmt"

	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/fs/ext4"
	"daxvm/internal/fs/nova"
	"daxvm/internal/obs"
	"daxvm/internal/obs/timeline"
)

// wireObs connects an observability hub to this kernel: the tracer is
// attached to the span collector, whose End writes one slice per closed
// span, and a reader for each legacy Stats counter is registered under a
// dotted namespace. The hub may be shared across sequentially booted
// kernels (bench runs many machines): re-registration replaces the
// readers, so a snapshot always reflects the most recently booted
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
	k.registerCounters(o.Reg)
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
func (k *Kernel) registerCounters(r *obs.Registry) {
	// tlb.*: translation caching, summed over cores.
	r.Counter("tlb.hits", k.sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.Hits }))
	r.Counter("tlb.misses", k.sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.Misses }))
	r.Counter("tlb.full_flushes", k.sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.FullFlush }))
	r.Counter("tlb.page_invals", k.sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.PageInval }))
	r.Counter("tlb.insertions", k.sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.Insertions }))
	r.Counter("tlb.shootdowns", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.IPIsSent }))

	// cpu.*: MMU and IPI behaviour, summed over cores.
	r.Counter("cpu.walks", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.Walks }))
	r.Counter("cpu.walk_cycles", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.WalkCycles }))
	r.Counter("cpu.pmem_walks", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.PMemWalks }))
	r.Counter("cpu.faults", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.Faults }))
	r.Counter("cpu.ipis_sent", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.IPIsSent }))
	r.Counter("cpu.ipis_received", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.IPIsReceived }))
	r.Counter("cpu.shootdown_wait_cycles", k.sumCores(func(c *cpu.Core) uint64 { return c.Stats.ShootdownWait }))

	// mm.*: the baseline VM paths, summed over processes.
	r.Counter("mm.mmaps", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.Mmaps }))
	r.Counter("mm.munmaps", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.Munmaps }))
	r.Counter("mm.minor_faults", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.MinorFaults }))
	r.Counter("mm.huge_faults", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.HugeFaults }))
	r.Counter("mm.wp_faults", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.WPFaults }))
	r.Counter("mm.spurious_wp", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.SpuriousWP }))
	r.Counter("mm.meta_syncs", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.MetaSyncs }))
	r.Counter("mm.pages_mapped", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.PagesMapped }))
	r.Counter("mm.pages_cleared", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.PagesCleared }))
	r.Counter("mm.shootdowns", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.Shootdowns }))
	r.Counter("mm.full_flushes", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.FullFlushes }))
	r.Counter("mm.msync_pages", k.sumProcs(func(p *Proc) uint64 { return p.MM.Stats.MsyncPages }))

	// mm.lock.*: mmap_sem writer side; mm.lock.read.*: reader side.
	r.Counter("mm.lock.acquisitions", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.Stats.Acquisitions }))
	r.Counter("mm.lock.contended", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.Stats.Contended }))
	r.Counter("mm.lock.wait_cycles", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.Stats.WaitCycles }))
	r.Counter("mm.lock.hold_cycles", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.Stats.HoldCycles }))
	r.Counter("mm.lock.read.acquisitions", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.ReaderStats.Acquisitions }))
	r.Counter("mm.lock.read.contended", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.ReaderStats.Contended }))
	r.Counter("mm.lock.read.wait_cycles", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.ReaderStats.WaitCycles }))
	r.Counter("mm.lock.read.hold_cycles", k.sumProcs(func(p *Proc) uint64 { return p.MM.Sem.ReaderStats.HoldCycles }))

	// File systems: only the mounted one registers.
	switch fs := k.FS.(type) {
	case *ext4.FS:
		r.Counter("ext4.creates", func() uint64 { return fs.Stats.Creates })
		r.Counter("ext4.unlinks", func() uint64 { return fs.Stats.Unlinks })
		r.Counter("ext4.appends", func() uint64 { return fs.Stats.Appends })
		r.Counter("ext4.zeroed_blocks", func() uint64 { return fs.Stats.ZeroedBlocks })
		r.Counter("ext4.skipped_zero", func() uint64 { return fs.Stats.SkippedZero })
		r.Counter("ext4.meta_syncs", func() uint64 { return fs.Stats.MetaSyncs })
		j := fs.Journal()
		r.Counter("ext4.journal.begins", func() uint64 { return j.Stats.Begins })
		r.Counter("ext4.journal.commits", func() uint64 { return j.Stats.Commits })
		r.Counter("ext4.journal.blocks", func() uint64 { return j.Stats.Blocks })
	case *nova.FS:
		r.Counter("nova.log_appends", func() uint64 { return fs.Stats.LogAppends })
		r.Counter("nova.zeroed_blocks", func() uint64 { return fs.Stats.ZeroedBlocks })
		r.Counter("nova.skipped_zero", func() uint64 { return fs.Stats.SkippedZero })
	}

	ic := k.ICache
	r.Counter("icache.hits", func() uint64 { return ic.Stats.Hits })
	r.Counter("icache.cold_loads", func() uint64 { return ic.Stats.ColdLoads })
	r.Counter("icache.evictions", func() uint64 { return ic.Stats.Evictions })

	dev := k.Dev
	r.Counter("pmem.bytes_read", func() uint64 { return dev.Stats.BytesRead })
	r.Counter("pmem.bytes_written", func() uint64 { return dev.Stats.BytesWritten })
	r.Counter("pmem.bytes_zeroed", func() uint64 { return dev.Stats.BytesZeroed })
	r.Counter("pmem.nt_stores", func() uint64 { return dev.Stats.NTStores })
	r.Counter("pmem.cached_stores", func() uint64 { return dev.Stats.CachedStores })
	r.Counter("pmem.clwbs", func() uint64 { return dev.Stats.Clwbs })
	r.Counter("pmem.fences", func() uint64 { return dev.Stats.Fences })
	r.Counter("pmem.throttle_stall_cycles", func() uint64 { return dev.Stats.ThrottleStall })
	r.Counter("pmem.bw.busy_cycles", func() uint64 { return dev.Stats.BusyCycles })

	// Per-node breakdowns: only on multi-node machines, so single-node
	// snapshots stay byte-identical to the flat model's.
	if k.Topo.Multi() {
		for i := 0; i < dev.NodeCount(); i++ {
			ns := dev.NodeStats(i)
			pfx := fmt.Sprintf("pmem.node%d.", i)
			r.Counter(pfx+"bytes_read", func() uint64 { return ns.BytesRead })
			r.Counter(pfx+"bytes_written", func() uint64 { return ns.BytesWritten })
			r.Counter(pfx+"bytes_zeroed", func() uint64 { return ns.BytesZeroed })
			r.Counter(pfx+"nt_stores", func() uint64 { return ns.NTStores })
			r.Counter(pfx+"throttle_stall_cycles", func() uint64 { return ns.ThrottleStall })
			r.Counter(pfx+"bw.busy_cycles", func() uint64 { return ns.BusyCycles })
		}
		for i := 0; i < k.Pool.NodeCount(); i++ {
			node := i
			r.Counter(fmt.Sprintf("dram.node%d.used_bytes", i), func() uint64 { return k.Pool.UsedOn(node) })
		}
	}

	pool := k.Pool
	r.Counter("dram.allocs", func() uint64 { return pool.Stats.Allocs })
	r.Counter("dram.frees", func() uint64 { return pool.Stats.Frees })
	// Gauges: snapshot deltas clamp at zero when they shrink.
	r.Counter("dram.used_bytes", func() uint64 { return pool.Used() })
	r.Counter("dram.peak_bytes", func() uint64 { return pool.Peak() })

	if d := k.Dax; d != nil {
		r.Counter("core.attach_ops", func() uint64 { return d.Stats.AttachOps })
		r.Counter("core.detach_ops", func() uint64 { return d.Stats.DetachOps })
		r.Counter("core.attached_chunks", func() uint64 { return d.Stats.AttachedChunks })
		r.Counter("core.cold_builds", func() uint64 { return d.Stats.ColdBuilds })
		r.Counter("core.upgrades", func() uint64 { return d.Stats.Upgrades })
		r.Counter("core.wp_faults_2m", func() uint64 { return d.Stats.WPFaults2M })
		r.Counter("core.meta_syncs", func() uint64 { return d.Stats.MetaSyncs })
		r.Counter("core.zombie_batches", func() uint64 { return d.Stats.ZombieBatches })
		r.Counter("core.zombie_pages", func() uint64 { return d.Stats.ZombiePages })
		r.Counter("core.forced_unmaps", func() uint64 { return d.Stats.ForcedUnmaps })
		r.Counter("core.migrations", func() uint64 { return d.Stats.Migrations })
		r.Counter("core.pmem_table_bytes", func() uint64 { return d.Stats.PMemTableBytes })
		r.Counter("core.dram_table_bytes", func() uint64 { return d.Stats.DRAMTableBytes })
		r.Counter("core.prezeroed_mb", func() uint64 { return d.Stats.PrezeroedMB })
		r.Counter("core.prezero.intercepted", func() uint64 {
			if pz := d.Prezero(); pz != nil {
				return pz.Stats.Intercepted
			}
			return 0
		})
		r.Counter("core.prezero.zeroed", func() uint64 {
			if pz := d.Prezero(); pz != nil {
				return pz.Stats.Zeroed
			}
			return 0
		})
		r.Counter("core.prezero.stalls", func() uint64 {
			if pz := d.Prezero(); pz != nil {
				return pz.Stats.Stalls
			}
			return 0
		})
		r.Counter("core.prezero.batches", func() uint64 {
			if pz := d.Prezero(); pz != nil {
				return pz.Stats.Batches
			}
			return 0
		})
		r.Counter("core.monitor.samples", func() uint64 {
			var s uint64
			for _, m := range k.monitors {
				s += m.Stats.Samples
			}
			return s
		})
		r.Counter("core.monitor.triggers", func() uint64 {
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
// flat model's. Re-registration on a shared timeline replaces readers,
// matching registerCounters.
func (k *Kernel) registerGauges(tl *timeline.Timeline) {
	tl.Gauge("rq.depth", k.gaugeRunQueue)
	tl.Gauge("mmap_sem.queue", k.gaugeMmapSemQueue)
	tl.Gauge("tlb.inflight_ipis", k.gaugeInflightIPIs)
	tl.Gauge("pmem.bw.backlog", k.gaugePMemBacklog)
	tl.Gauge("dram.occupancy", k.gaugeDramOccupancy)
	if _, ok := k.FS.(*ext4.FS); ok {
		tl.Gauge("ext4.journal.queue", k.gaugeJournalQueue)
	}
	if k.Topo.Multi() {
		for i := 0; i < k.Dev.NodeCount(); i++ {
			g := nodeGauge{k, i}
			tl.Gauge(fmt.Sprintf("pmem.node%d.bw.backlog", i), g.pmemBacklog)
		}
		for i := 0; i < k.Pool.NodeCount(); i++ {
			g := nodeGauge{k, i}
			tl.Gauge(fmt.Sprintf("dram.node%d.occupancy", i), g.dramOccupancy)
		}
	}
}
