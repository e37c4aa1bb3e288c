package mm

import (
	"strings"
	"testing"

	"daxvm/internal/cpu"
	"daxvm/internal/dram"
	"daxvm/internal/fs/agefs"
	"daxvm/internal/fs/ext4"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

type env struct {
	fs   *ext4.FS
	mm   *MM
	cpus *cpu.Set
}

func newEnv(t testing.TB, devMB int, ncores int) *env {
	dev := pmem.New(pmem.Config{Size: uint64(devMB) << 20})
	t.Cleanup(dev.Release)
	f := ext4.Mkfs(ext4.Config{Dev: dev, JournalBytes: 8 << 20})
	cpus := cpu.NewSet(ncores)
	m := New(dram.New(1<<30), f, cpus)
	for _, c := range cpus.Cores {
		m.RunOn(c)
	}
	return &env{fs: f, mm: m, cpus: cpus}
}

func run(fn func(t *sim.Thread)) {
	e := sim.New()
	e.Go("t", 0, 0, fn)
	e.Run()
}

func (ev *env) mkFile(t *sim.Thread, path string, size int) *vfs.Inode {
	in, err := ev.fs.Create(t, path)
	if err != nil {
		panic(err)
	}
	if err := ev.fs.Append(t, in, make([]byte, size)); err != nil {
		panic(err)
	}
	return in
}

func TestMmapAccessMunmap(t *testing.T) {
	ev := newEnv(t, 64, 1)
	run(func(th *sim.Thread) {
		in := ev.mkFile(th, "f", 64<<10)
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, err := ev.mm.Mmap(th, core, in, 0, 64<<10, mem.PermRead, MapShared)
		if err != nil {
			t.Fatalf("Mmap: %v", err)
		}
		if err := ev.mm.Access(th, core, va, 64<<10, false, 100); err != nil {
			t.Fatalf("Access: %v", err)
		}
		if ev.mm.Stats.MinorFaults == 0 {
			t.Fatal("no demand faults taken")
		}
		if err := ev.mm.Munmap(th, core, va, 64<<10); err != nil {
			t.Fatalf("Munmap: %v", err)
		}
		if ev.mm.VMACount() != 0 {
			t.Fatalf("VMAs left: %d", ev.mm.VMACount())
		}
		// Access after unmap must fault to segfault.
		if err := ev.mm.Access(th, core, va, mem.PageSize, false, 0); err == nil {
			t.Fatal("access after munmap succeeded")
		}
	})
}

func TestLazyVsPopulate(t *testing.T) {
	ev := newEnv(t, 64, 1)
	run(func(th *sim.Thread) {
		in := ev.mkFile(th, "f", 256<<10)
		core := ev.cpus.Cores[0]
		core.Bind(th)

		va, _ := ev.mm.Mmap(th, core, in, 0, 256<<10, mem.PermRead, MapShared|MapPopulate)
		faults0 := ev.mm.Stats.MinorFaults
		ev.mm.Access(th, core, va, 256<<10, false, 0)
		if ev.mm.Stats.MinorFaults != faults0 {
			t.Fatalf("populate left %d faults", ev.mm.Stats.MinorFaults-faults0)
		}
		ev.mm.Munmap(th, core, va, 256<<10)

		va2, _ := ev.mm.Mmap(th, core, in, 0, 256<<10, mem.PermRead, MapShared)
		ev.mm.Access(th, core, va2, 256<<10, false, 0)
		if ev.mm.Stats.MinorFaults == faults0 {
			t.Fatal("lazy mapping took no faults")
		}
	})
}

// countDirty counts the pages marked in s.
func countDirty(s *vfs.DirtySet) int {
	n := 0
	for pg, ok := s.Next(0); ok; pg, ok = s.Next(pg + 1) {
		n++
	}
	return n
}

func TestDirtyTrackingWriteProtectCycle(t *testing.T) {
	ev := newEnv(t, 64, 1)
	run(func(th *sim.Thread) {
		in := ev.mkFile(th, "f", 64<<10)
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, _ := ev.mm.Mmap(th, core, in, 0, 64<<10, mem.PermRead|mem.PermWrite, MapShared|MapPopulate)

		// Populate installs write-protected PTEs; the first store takes a
		// WP fault per page and marks it in the inode's dirty set.
		if err := ev.mm.Access(th, core, va, 16<<10, true, 0); err != nil {
			t.Fatalf("write access: %v", err)
		}
		if ev.mm.Stats.WPFaults != 4 {
			t.Fatalf("WP faults = %d, want 4", ev.mm.Stats.WPFaults)
		}
		if got := countDirty(&in.DirtyPages); got != 4 {
			t.Fatalf("dirty pages marked = %d", got)
		}
		// Second write to the same pages: no more faults.
		ev.mm.Access(th, core, va, 16<<10, true, 0)
		if ev.mm.Stats.WPFaults != 4 {
			t.Fatalf("redundant WP faults: %d", ev.mm.Stats.WPFaults)
		}

		// Msync flushes and re-protects: writing again faults again.
		if err := ev.mm.Msync(th, core, va, 64<<10); err != nil {
			t.Fatalf("Msync: %v", err)
		}
		if got := countDirty(&in.DirtyPages); got != 0 {
			t.Fatalf("msync left %d dirty pages", got)
		}
		ev.mm.Access(th, core, va, 16<<10, true, 0)
		if ev.mm.Stats.WPFaults != 8 {
			t.Fatalf("post-msync WP faults = %d, want 8", ev.mm.Stats.WPFaults)
		}
	})
}

func TestMsyncEveryNWritesCausesMoreFaults(t *testing.T) {
	// Paper §III-A4: one msync per 10 writes causes ~2.8x more faults
	// than no sync. Shape check: sync-every-10 >> no-sync fault count.
	faults := func(syncEvery int) uint64 {
		ev := newEnv(t, 128, 1)
		var n uint64
		run(func(th *sim.Thread) {
			in := ev.mkFile(th, "f", 4<<20)
			core := ev.cpus.Cores[0]
			core.Bind(th)
			va, _ := ev.mm.Mmap(th, core, in, 0, 4<<20, mem.PermRead|mem.PermWrite, MapShared|MapPopulate)
			rng := uint64(1)
			for i := 0; i < 400; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				off := (rng >> 11) % (4<<20 - 1024)
				ev.mm.Access(th, core, va+mem.VirtAddr(off), 1024, true, 0)
				if syncEvery > 0 && (i+1)%syncEvery == 0 {
					ev.mm.Msync(th, core, va, 4<<20)
				}
			}
			n = ev.mm.Stats.WPFaults
		})
		return n
	}
	noSync := faults(0)
	withSync := faults(10)
	if withSync < noSync*2 {
		t.Fatalf("sync-every-10 faults=%d, no-sync=%d; expected ~2.8x", withSync, noSync)
	}
}

func TestHugePageMappingOnFreshImage(t *testing.T) {
	ev := newEnv(t, 128, 1)
	run(func(th *sim.Thread) {
		in, _ := ev.fs.Create(th, "big")
		if err := ev.fs.Fallocate(th, in, 0, 8<<20); err != nil {
			t.Fatalf("Fallocate: %v", err)
		}
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, _ := ev.mm.Mmap(th, core, in, 0, 8<<20, mem.PermRead, MapShared)
		// Align access start so huge mappings can be used.
		ev.mm.Access(th, core, va, 8<<20, false, 0)
		if ev.mm.Stats.HugeFaults == 0 {
			t.Fatal("no huge faults on fresh contiguous image")
		}
		if ev.mm.Stats.MinorFaults > 600 {
			t.Fatalf("too many 4K faults (%d) for a hugepage-able file", ev.mm.Stats.MinorFaults)
		}
	})
}

func TestAgedImageBreaksHugePages(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 512 << 20})
	t.Cleanup(dev.Release)
	f := ext4.Mkfs(ext4.Config{Dev: dev, JournalBytes: 8 << 20})
	cpus := cpu.NewSet(1)
	m := New(dram.New(1<<30), f, cpus)
	m.RunOn(cpus.Cores[0])
	run(func(th *sim.Thread) {
		agefs.Age(th, f, agefs.DefaultConfig())
		in, _ := f.Create(th, "bench/big")
		if err := f.Fallocate(th, in, 0, 16<<20); err != nil {
			t.Fatalf("Fallocate: %v", err)
		}
		core := cpus.Cores[0]
		core.Bind(th)
		va, _ := m.Mmap(th, core, in, 0, 16<<20, mem.PermRead, MapShared)
		m.Access(th, core, va, 16<<20, false, 0)
		total := 16 << 20 / mem.HugeSize
		if m.Stats.HugeFaults >= uint64(total) {
			t.Fatalf("aged image fully huge-mapped (%d/%d)", m.Stats.HugeFaults, total)
		}
		if m.Stats.MinorFaults == 0 {
			t.Fatal("aged image should force 4K faults")
		}
	})
}

func TestMunmapBatchedInvalidation(t *testing.T) {
	ev := newEnv(t, 64, 2)
	run(func(th *sim.Thread) {
		core := ev.cpus.Cores[0]
		core.Bind(th)
		// Small unmap: ranged shootdown, no full flush.
		in := ev.mkFile(th, "small", 16<<10)
		va, _ := ev.mm.Mmap(th, core, in, 0, 16<<10, mem.PermRead, MapShared|MapPopulate)
		ev.mm.Munmap(th, core, va, 16<<10)
		if ev.mm.Stats.FullFlushes != 0 {
			t.Fatal("small unmap should not full-flush")
		}
		// Large unmap: full flush.
		in2 := ev.mkFile(th, "large", 1<<20)
		va2, _ := ev.mm.Mmap(th, core, in2, 0, 1<<20, mem.PermRead, MapShared|MapPopulate)
		ev.mm.Munmap(th, core, va2, 1<<20)
		if ev.mm.Stats.FullFlushes != 1 {
			t.Fatalf("large unmap full flushes = %d", ev.mm.Stats.FullFlushes)
		}
	})
}

func TestPartialMunmapSplitsVMA(t *testing.T) {
	ev := newEnv(t, 64, 1)
	run(func(th *sim.Thread) {
		in := ev.mkFile(th, "f", 64<<10)
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, _ := ev.mm.Mmap(th, core, in, 0, 64<<10, mem.PermRead, MapShared|MapPopulate)
		// Unmap the middle 16K.
		if err := ev.mm.Munmap(th, core, va+16<<10, 16<<10); err != nil {
			t.Fatalf("Munmap: %v", err)
		}
		if ev.mm.VMACount() != 2 {
			t.Fatalf("VMAs = %d, want 2 after split", ev.mm.VMACount())
		}
		if err := ev.mm.Access(th, core, va, 16<<10, false, 0); err != nil {
			t.Fatalf("left half: %v", err)
		}
		if err := ev.mm.Access(th, core, va+16<<10, 4096, false, 0); err == nil {
			t.Fatal("middle still accessible")
		}
		if err := ev.mm.Access(th, core, va+32<<10, 16<<10, false, 0); err != nil {
			t.Fatalf("right half: %v", err)
		}
		// FileOff of the right half must account for the hole.
		v := ev.mm.FindVMAForTest(va + 32<<10)
		if v == nil || v.FileOff != 32<<10 {
			t.Fatalf("right-half FileOff = %+v", v)
		}
	})
}

func TestTruncateForcesUnmap(t *testing.T) {
	ev := newEnv(t, 64, 1)
	run(func(th *sim.Thread) {
		in := ev.mkFile(th, "f", 64<<10)
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, _ := ev.mm.Mmap(th, core, in, 0, 64<<10, mem.PermRead, MapShared|MapPopulate)
		_ = va
		if err := ev.fs.Truncate(th, in, 0); err != nil {
			t.Fatalf("Truncate: %v", err)
		}
		if ev.mm.VMACount() != 0 {
			t.Fatal("truncate did not force unmap")
		}
		if err := ev.mm.Access(th, core, va, 4096, false, 0); err == nil ||
			!strings.Contains(err.Error(), "segfault") {
			t.Fatalf("expected segfault after truncate, got %v", err)
		}
	})
}

func TestMmapSemContentionAcrossThreads(t *testing.T) {
	// N threads doing mmap/munmap serialize on mmap_sem: per-op latency
	// must grow with thread count.
	latency := func(nthreads int) uint64 {
		ev := newEnv(t, 256, nthreads)
		e := sim.New()
		var maxClock uint64
		setup := sim.New()
		var inodes []*vfs.Inode
		setup.Go("setup", 0, 0, func(th *sim.Thread) {
			for i := 0; i < nthreads; i++ {
				inodes = append(inodes, ev.mkFile(th, "f"+string(rune('a'+i)), 32<<10))
			}
		})
		setup.Run()
		const opsPerThread = 50
		for i := 0; i < nthreads; i++ {
			core := ev.cpus.Cores[i]
			in := inodes[i]
			e.Go("w", i, 0, func(th *sim.Thread) {
				core.Bind(th)
				for op := 0; op < opsPerThread; op++ {
					va, err := ev.mm.Mmap(th, core, in, 0, 32<<10, mem.PermRead, MapShared)
					if err != nil {
						t.Errorf("Mmap: %v", err)
						return
					}
					ev.mm.Access(th, core, va, 32<<10, false, 0)
					ev.mm.Munmap(th, core, va, 32<<10)
				}
			})
		}
		maxClock = e.Run()
		return maxClock / opsPerThread
	}
	l1 := latency(1)
	l8 := latency(8)
	if l8 < l1*3 {
		t.Fatalf("8-thread per-op latency %d not much worse than 1-thread %d; mmap_sem contention missing", l8, l1)
	}
}

// TestAnyCoreIsLowestRunningCore: AnyCore, the initiator of shootdowns
// no running thread asked for, is the lowest-numbered core the process
// runs on (the first of Cores), or nil before it runs anywhere.
func TestAnyCoreIsLowestRunningCore(t *testing.T) {
	cpus := cpu.NewSet(4)
	m := New(dram.New(1<<30), nil, cpus)
	if c := m.AnyCore(); c != nil {
		t.Fatalf("AnyCore = core %d on a process that runs nowhere", c.ID)
	}
	m.RunOn(cpus.Cores[3])
	m.RunOn(cpus.Cores[1])
	if c := m.AnyCore(); c != cpus.Cores[1] || c != m.Cores()[0] {
		t.Fatalf("AnyCore = core %d, want core 1", c.ID)
	}
}
