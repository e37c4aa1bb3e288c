package cpu

import (
	"testing"

	"daxvm/internal/cost"
	"daxvm/internal/mem"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/pt"
	"daxvm/internal/sim"
	"daxvm/internal/tlb"
)

func newAS() *pt.AddressSpace {
	return pt.NewAddressSpace(
		func(_ *sim.Thread, level int) *pt.Node { return pt.NewNode(level, mem.Loc{Medium: mem.DRAM}) },
		nil,
	)
}

func run(fn func(t *sim.Thread)) uint64 {
	e := sim.New()
	e.Go("t", 0, 0, fn)
	return e.Run()
}

func TestTranslateHitAndMiss(t *testing.T) {
	s := NewSet(1)
	c := s.Cores[0]
	as := newAS()
	run(func(th *sim.Thread) {
		va := mem.VirtAddr(0x1000_0000)
		as.Map(th, va, pt.MakeEntry(5, mem.PermRead|mem.PermWrite, true, false), pt.LevelPTE)

		e, res := c.Translate(th, as, va, false)
		if res != TransOK || e.PFN() != 5 {
			t.Errorf("first translate: %v pfn=%d", res, e.PFN())
		}
		if c.TLB.Stats.Misses != 1 {
			t.Errorf("misses = %d", c.TLB.Stats.Misses)
		}
		_, res = c.Translate(th, as, va, false)
		if res != TransOK || c.TLB.Stats.Hits != 1 {
			t.Errorf("second translate should hit: %v hits=%d", res, c.TLB.Stats.Hits)
		}
		if _, res := c.Translate(th, as, va+mem.PageSize, false); res != TransNotPresent {
			t.Errorf("unmapped VA: %v", res)
		}
	})
}

func TestWriteProtectFaultDetected(t *testing.T) {
	s := NewSet(1)
	c := s.Cores[0]
	as := newAS()
	run(func(th *sim.Thread) {
		va := mem.VirtAddr(0x2000_0000)
		as.Map(th, va, pt.MakeEntry(9, mem.PermRead, true, false), pt.LevelPTE)
		if _, res := c.Translate(th, as, va, false); res != TransOK {
			t.Errorf("read should pass: %v", res)
		}
		if _, res := c.Translate(th, as, va, true); res != TransNoWrite {
			t.Errorf("write to RO should fault: %v", res)
		}
	})
}

func TestADBitsMaintainedUnlessNoAD(t *testing.T) {
	s := NewSet(1)
	c := s.Cores[0]
	as := newAS()
	run(func(th *sim.Thread) {
		va := mem.VirtAddr(0x3000_0000)
		as.Map(th, va, pt.MakeEntry(1, mem.PermRead|mem.PermWrite, true, false), pt.LevelPTE)
		c.Translate(th, as, va, true)
		leaf, idx := as.LeafNode(va)
		if !leaf.Entry(idx).Accessed() || !leaf.Entry(idx).Dirty() {
			t.Error("A/D bits not set on write")
		}

		// NoAD node: bits stay clear.
		va2 := va + mem.HugeSize
		as.Map(th, va2, pt.MakeEntry(2, mem.PermRead|mem.PermWrite, true, false), pt.LevelPTE)
		leaf2, _ := as.LeafNode(va2)
		leaf2.NoAD = true
		c.Translate(th, as, va2, true)
		_, idx2 := as.LeafNode(va2)
		if leaf2.Entry(idx2).Accessed() || leaf2.Entry(idx2).Dirty() {
			t.Error("NoAD node had A/D bits set")
		}
	})
}

func TestWalkCostSeqVsRandAndMedium(t *testing.T) {
	// The Table II reproduction in miniature: random access to
	// PMem-resident tables must cost far more than sequential access to
	// DRAM-resident tables.
	type cfg struct {
		medium mem.Medium
		stride uint64 // pages
	}
	walkCost := func(cf cfg) uint64 {
		s := NewSet(1)
		c := s.Cores[0]
		as := pt.NewAddressSpace(
			func(_ *sim.Thread, level int) *pt.Node { return pt.NewNode(level, mem.Loc{Medium: cf.medium}) },
			nil,
		)
		run(func(th *sim.Thread) {
			pagesTotal := uint64(16384)
			for i := uint64(0); i < pagesTotal; i++ {
				as.Map(th, mem.VirtAddr(i*mem.PageSize), pt.MakeEntry(mem.PFN(i), mem.PermRead, true, false), pt.LevelPTE)
			}
			c.Stats = CoreStats{}
			c.TLB.FlushAll()
			// Touch pages with the given stride; large strides defeat
			// both the TLB and the PTE-line cache.
			idx := uint64(0)
			for i := uint64(0); i < 4096; i++ {
				idx = (idx + cf.stride) % pagesTotal
				c.Translate(th, as, mem.VirtAddr(idx*mem.PageSize), false)
			}
		})
		if c.Stats.Walks == 0 {
			t.Fatal("no walks recorded")
		}
		return c.Stats.WalkCycles / c.Stats.Walks
	}

	dramSeq := walkCost(cfg{mem.DRAM, 1})
	dramRand := walkCost(cfg{mem.DRAM, 4099}) // coprime stride, defeats caches
	pmemSeq := walkCost(cfg{mem.PMem, 1})
	pmemRand := walkCost(cfg{mem.PMem, 4099})

	if !(dramSeq < dramRand && dramRand < pmemRand) {
		t.Errorf("ordering violated: dramSeq=%d dramRand=%d pmemRand=%d", dramSeq, dramRand, pmemRand)
	}
	if !(pmemSeq < pmemRand) {
		t.Errorf("pmemSeq=%d should be below pmemRand=%d", pmemSeq, pmemRand)
	}
	// Table II magnitudes (generous tolerance): 28/111/103/821.
	approx := func(got, want uint64) bool {
		return got > want/2 && got < want*2
	}
	if !approx(dramSeq, 28) || !approx(dramRand, 111) || !approx(pmemSeq, 103) || !approx(pmemRand, 821) {
		t.Errorf("Table II calibration off: dram %d/%d pmem %d/%d (want ~28/111, ~103/821)",
			dramSeq, dramRand, pmemSeq, pmemRand)
	}
}

func TestShootdownChargesAndInvalidates(t *testing.T) {
	s := NewSet(3)
	e := sim.New()
	as := newAS()
	va := mem.VirtAddr(0x4000_0000)

	var initiatorEnd, targetEnd uint64
	tInit := e.Go("init", 0, 0, func(th *sim.Thread) {
		s.Cores[0].Bind(th)
		as.Map(th, va, pt.MakeEntry(1, mem.PermRead, true, false), pt.LevelPTE)
		s.Cores[0].Translate(th, as, va, false)
		// Target core warms its TLB too via its own thread below; give
		// it time.
		th.Sleep(50_000)
		s.Shootdown(th, s.Cores[0], []*Core{s.Cores[1]}, ShootPages, []mem.VirtAddr{va}, 0, 0)
		initiatorEnd = th.Now()
	})
	_ = tInit
	e.Go("target", 1, 0, func(th *sim.Thread) {
		s.Cores[1].Bind(th)
		s.Cores[1].Translate(th, as, va, false)
		th.Sleep(200_000)
		targetEnd = th.Now()
	})
	e.Run()

	if s.Cores[1].TLB.Len() != 0 {
		t.Error("target TLB entry survived shootdown")
	}
	if s.Cores[1].Stats.IPIsReceived != 1 || s.Cores[0].Stats.IPIsSent != 1 {
		t.Error("IPI counters wrong")
	}
	if targetEnd <= 200_000 {
		t.Errorf("target was not charged the handler: end=%d", targetEnd)
	}
	if initiatorEnd < 50_000+cost.IPIBase {
		t.Errorf("initiator did not pay IPI cost: end=%d", initiatorEnd)
	}
}

func TestShootdownFullFlushCheaperThanManyPages(t *testing.T) {
	s := NewSet(2)
	manyPages := make([]mem.VirtAddr, 128)
	for i := range manyPages {
		manyPages[i] = mem.VirtAddr(i * mem.PageSize)
	}
	runOnce := func(kind ShootdownKind, pages []mem.VirtAddr) uint64 {
		e := sim.New()
		var end uint64
		e.Go("i", 0, 0, func(th *sim.Thread) {
			s.Cores[0].Bind(th)
			s.Shootdown(th, s.Cores[0], []*Core{s.Cores[1]}, kind, pages, 0, mem.VirtAddr(len(pages)*mem.PageSize))
			end = th.Now()
		})
		e.Run()
		return end
	}
	pageCost := runOnce(ShootPages, manyPages)
	fullCost := runOnce(ShootFull, nil)
	if fullCost >= pageCost {
		t.Errorf("full flush (%d) should be cheaper than 128 invlpgs (%d)", fullCost, pageCost)
	}
}

// TestShootdownZeroAlloc is the run-time check behind hotalloc's static
// verdict on the Shootdown root: a full flush to 16 targets, each bound
// to a parked thread that takes the handler charge, allocates nothing
// with a span collector tracing into an obs hub's ring and the hub's
// cycle account reading the engine's charge tables.
func TestShootdownZeroAlloc(t *testing.T) {
	const cores = 16
	s := NewSet(cores)
	o := obs.New(64)
	spans := span.New(4)
	spans.SetTracer(o.Trace)
	e := sim.New()
	o.Attach(e)
	spans.Attach(e)
	for i := 1; i < cores; i++ {
		c := s.Cores[i]
		e.GoDaemon("target", i, 0, func(th *sim.Thread) {
			c.Bind(th)
			th.Block("parked")
		})
	}
	var allocs float64
	e.Go("initiator", 0, 1, func(th *sim.Thread) {
		c := s.Cores[0]
		c.Bind(th)
		shoot := func() { s.Shootdown(th, c, s.Cores, ShootFull, nil, 0, 0) }
		for i := 0; i < 100; i++ {
			shoot() // warm: interned labels, span state, a wrapped trace ring
		}
		allocs = testing.AllocsPerRun(1000, shoot)
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("Shootdown allocates %v times per run, want 0", allocs)
	}
	if got := s.Cores[1].Stats.IPIsReceived; got != 1101 {
		t.Errorf("target received %d IPIs, want 1101", got)
	}
}

// TestTranslateZeroAlloc is the run-time check behind hotalloc's static
// verdict on the Translate root: on an engine attached to a cycle
// account, with the TLB, the PTE-line cache and the charge tables warm,
// none of these steps allocates.
func TestTranslateZeroAlloc(t *testing.T) {
	const (
		lines    = 512 // distinct PTE lines walked: more than the 192 cached
		tlbSmall = 64
	)
	s := NewSet(1)
	c := s.Cores[0]
	c.TLB = tlb.NewSized(tlbSmall, 4) // the walk loop cycles through more pages than it holds
	as := newAS()
	e := sim.New()
	obs.New(64).Attach(e)
	allocs := map[string]float64{}
	var walkMisses, rewalks uint64
	e.Go("t", 0, 0, func(th *sim.Thread) {
		page := func(i int) mem.VirtAddr { return mem.VirtAddr(i*mem.PTEsPerCacheLine) * mem.PageSize }
		for i := 0; i < lines; i++ {
			as.Map(th, page(i), pt.MakeEntry(mem.PFN(i), mem.PermRead|mem.PermWrite, false, false), pt.LevelPTE)
		}
		va := page(0)
		leaf, idx := as.LeafNode(va)
		measure := func(name string, step func()) {
			step() // warm: interned walk labels, first fills
			allocs[name] = testing.AllocsPerRun(200, step)
		}
		reinsert := func() {
			c.TLB.InvalidatePage(va)
			c.Translate(th, as, va, false)
		}
		// Invalidations leave keys in the TLB's FIFO, which grows by
		// doubling; grow it past what the steps below add, then let
		// FlushAll trim the backlog. The buffer keeps its size.
		for i := 0; i < 4096; i++ {
			reinsert()
		}
		c.TLB.FlushAll()

		measure("hit", func() { c.Translate(th, as, va, false) })
		next := 0
		misses := c.TLB.Stats.Misses
		// 3 × 202 translations cycle through 512 lines: past the 64th
		// each evicts a TLB entry, past the 192nd a PTE line.
		measure("miss+walk with TLB and PTE-line eviction", func() {
			for i := 0; i < 3; i++ {
				next = (next + 1) % lines
				c.Translate(th, as, page(next), false)
			}
		})
		walkMisses = c.TLB.Stats.Misses - misses
		walks := c.Stats.Walks
		measure("dirty-bit re-walk", func() {
			leaf.SetEntry(th, idx, leaf.Entry(idx)&^pt.BitDirty)
			reinsert() // caches the entry clean
			c.Translate(th, as, va, true)
		})
		rewalks = c.Stats.Walks - walks - 202 // less the re-inserts' walks
		measure("InvalidatePage + re-insert", reinsert)
		measure("FlushAll + DropPTELines", func() {
			c.TLB.FlushAll()
			c.DropPTELines()
			c.Translate(th, as, va, false)
		})
	})
	e.Run()
	if want := uint64(3 * 202); walkMisses != want {
		t.Fatalf("walk step: %d TLB misses in %d translations, want every one to miss", walkMisses, want)
	}
	if rewalks != 202 {
		t.Fatalf("dirty step: %d dirty-bit re-walks in 202 runs", rewalks)
	}
	for name, n := range allocs {
		if n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}
}
