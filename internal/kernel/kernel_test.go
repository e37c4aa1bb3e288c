package kernel

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"daxvm/internal/cpu"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/sim"
)

// bootTest boots cfg and closes the kernel when the test ends: nothing
// else returns its device's host memory.
func bootTest(t testing.TB, cfg Config) *Kernel {
	k := Boot(cfg)
	t.Cleanup(k.Close)
	return k
}

func TestBootAndBasicSyscalls(t *testing.T) {
	k := bootTest(t, Config{Cores: 2, DeviceBytes: 512 << 20})
	p := k.NewProc()
	payload := bytes.Repeat([]byte("integration"), 5000)
	p.Spawn("main", 0, 0, func(th *sim.Thread, c *cpu.Core) {
		fd, err := p.Create(th, "dir/file")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := p.Append(th, fd, payload); err != nil {
			t.Errorf("Append: %v", err)
			return
		}
		got := make([]byte, len(payload))
		if _, err := p.ReadAt(th, fd, 0, got); err != nil {
			t.Errorf("ReadAt: %v", err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("payload mismatch through syscalls")
		}
		// Sequential Read with position.
		small := make([]byte, 11)
		p.Read(th, fd, small)
		p.Read(th, fd, small)
		if string(small) != string(payload[11:22]) {
			t.Errorf("positioned read got %q", small)
		}
		if err := p.Close(th, fd); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := p.Unlink(th, "dir/file"); err != nil {
			t.Errorf("Unlink: %v", err)
		}
		if _, err := p.Open(th, "dir/file"); err == nil {
			t.Error("unlinked file opened")
		}
	})
	if k.Run() == 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestMmapDataPathEndToEnd(t *testing.T) {
	k := bootTest(t, Config{Cores: 1, DeviceBytes: 256 << 20, DaxVM: true})
	p := k.NewProc()
	p.Spawn("main", 0, 0, func(th *sim.Thread, c *cpu.Core) {
		fd, _ := p.Create(th, "m")
		p.Append(th, fd, make([]byte, 256<<10))
		// POSIX mapping with write + msync.
		va, err := p.Mmap(th, c, fd, 0, 256<<10, mem.PermRead|mem.PermWrite, mapSharedSync())
		if err != nil {
			t.Errorf("Mmap: %v", err)
			return
		}
		if err := p.AccessMapped(th, c, va, 64<<10, KindCachedWrite); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := p.Msync(th, c, va, 256<<10); err != nil {
			t.Errorf("Msync: %v", err)
		}
		if err := p.Munmap(th, c, va, 256<<10); err != nil {
			t.Errorf("Munmap: %v", err)
		}
		// DaxVM mapping.
		dva, err := p.DaxvmMmap(th, c, fd, 0, 256<<10, mem.PermRead, 0)
		if err != nil {
			t.Errorf("DaxvmMmap: %v", err)
			return
		}
		if err := p.AccessMapped(th, c, dva, 256<<10, KindSum); err != nil {
			t.Errorf("dax access: %v", err)
		}
		if err := p.DaxvmMunmap(th, c, dva); err != nil {
			t.Errorf("DaxvmMunmap: %v", err)
		}
		p.Close(th, fd)
	})
	k.Run()
	if p.MM.Stats.MsyncPages == 0 {
		t.Error("msync flushed nothing")
	}
}

func TestDaxvmPosixSemanticsDiffer(t *testing.T) {
	// §IV-F: partial mprotect fails on DaxVM mappings, works on POSIX;
	// mprotect on ephemeral mappings always fails.
	k := bootTest(t, Config{Cores: 1, DeviceBytes: 256 << 20, DaxVM: true})
	p := k.NewProc()
	p.Spawn("main", 0, 0, func(th *sim.Thread, c *cpu.Core) {
		fd, _ := p.Create(th, "sem")
		p.Append(th, fd, make([]byte, 4<<20))

		pva, _ := p.Mmap(th, c, fd, 0, 4<<20, mem.PermRead|mem.PermWrite, mapSharedSync())
		if err := p.Mprotect(th, c, pva+mem.VirtAddr(1<<20), 1<<20, mem.PermRead); err != nil {
			t.Errorf("POSIX partial mprotect should work: %v", err)
		}
		p.Munmap(th, c, pva, 4<<20)

		dva, _ := p.DaxvmMmap(th, c, fd, 0, 4<<20, mem.PermRead|mem.PermWrite, 0)
		if err := p.Mprotect(th, c, dva+mem.VirtAddr(2<<20), 1<<20, mem.PermRead); err == nil {
			t.Error("DaxVM partial mprotect should fail")
		} else if !strings.Contains(err.Error(), "daxvm") {
			t.Errorf("unexpected error: %v", err)
		}
		if err := p.Mprotect(th, c, dva, 4<<20, mem.PermRead); err != nil {
			t.Errorf("whole-mapping mprotect should work: %v", err)
		}
		// After the downgrade, writes must fault to an error.
		if err := p.AccessMapped(th, c, dva, 4096, KindNTWrite); err == nil {
			t.Error("write allowed after mprotect(PROT_READ)")
		}
		p.DaxvmMunmap(th, c, dva)
		p.Close(th, fd)
	})
	k.Run()
}

func TestNovaBoot(t *testing.T) {
	k := bootTest(t, Config{Cores: 1, DeviceBytes: 256 << 20, FS: Nova, DaxVM: true, Prezero: true})
	p := k.NewProc()
	p.Spawn("main", 0, 0, func(th *sim.Thread, c *cpu.Core) {
		fd, err := p.Create(th, "n")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := p.Fallocate(th, fd, 0, 1<<20); err != nil {
			t.Errorf("Fallocate: %v", err)
			return
		}
		va, err := p.DaxvmMmap(th, c, fd, 0, 1<<20, mem.PermRead|mem.PermWrite, 0)
		if err != nil {
			t.Errorf("DaxvmMmap: %v", err)
			return
		}
		if err := p.AccessMapped(th, c, va, 1<<20, KindNTWrite); err != nil {
			t.Errorf("write: %v", err)
		}
		p.DaxvmMunmap(th, c, va)
		p.Close(th, fd)
	})
	k.Run()
}

func TestAgedBootReport(t *testing.T) {
	k := bootTest(t, Config{Cores: 1, DeviceBytes: 1 << 30, Age: true})
	if k.AgeReport.Utilization < 0.6 || k.AgeReport.FreeExtents < 100 {
		t.Fatalf("age report %+v", k.AgeReport)
	}
}

func mapSharedSync() mm.MapFlags { return mm.MapShared | mm.MapSync }

// TestConcurrentMultiNodeBoots boots multi-node kernels on two
// goroutines at once (run it under -race): their devices mint their
// per-node frame labels at the same time. Only the boots overlap: two
// processes' page tables would share pt's node serial counter.
func TestConcurrentMultiNodeBoots(t *testing.T) {
	var wg sync.WaitGroup
	ks := make([]*Kernel, 2)
	for g, nodes := range []int{2, 4} {
		wg.Add(1)
		go func(g, nodes int) {
			defer wg.Done()
			ks[g] = Boot(Config{Cores: 4, Nodes: nodes, DeviceBytes: 256 << 20, DRAMBytes: 256 << 20,
				Placement: "interleave", MountPlacement: "interleave"})
		}(g, nodes)
	}
	wg.Wait()
	for g, nodes := range []int{2, 4} {
		if got := ks[g].Dev.NodeCount(); got != nodes {
			t.Errorf("kernel %d: %d device nodes, want %d", g, got, nodes)
		}
		ks[g].Close()
	}
}
