package kernel

import (
	"bytes"
	"fmt"
	"testing"

	"daxvm/internal/core"
	"daxvm/internal/cpu"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/obs/span"
	"daxvm/internal/sim"
)

// TestFtruncateEndToEnd shrinks a mapped file through the ftruncate
// syscall on both file systems, with DaxVM on and off. The kept bytes
// and the new size read back through the syscalls, the live mapping is
// torn down, a bad fd fails, and every call closes a syscall.ftruncate
// span. With DaxVM on, the file also has a zombie mapping (an async
// unmap not yet flushed): the truncate hook must detach it before the
// cut blocks are freed (paper §IV-C, "File system races").
func TestFtruncateEndToEnd(t *testing.T) {
	for _, fs := range []FSKind{Ext4, Nova} {
		for _, dax := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/daxvm=%v", fs, dax), func(t *testing.T) {
				ftruncateCase(t, fs, dax)
			})
		}
	}
}

func ftruncateCase(t *testing.T, fs FSKind, dax bool) {
	const (
		fileBytes   = 256 << 10
		zombieBytes = 64 << 10
		newSize     = 100<<10 + 123
	)
	spans := span.New(0)
	// A batch of 512 pages (the paper's other setting) keeps the zombie's
	// 64 populated pages deferred until the truncate forces them.
	k := bootTest(t, Config{Cores: 2, DeviceBytes: 256 << 20, FS: fs, DaxVM: dax,
		DaxVMConfig: core.Config{AsyncBatchPages: 512}, Spans: spans})
	p := k.NewProc()

	// With DaxVM on, record the process's pending zombies whenever the
	// file system frees blocks; returning false hands them to the
	// allocator as before.
	var zombiesAtFree []int
	if dax {
		h := k.Dax.Hooks(false)
		h.OnFree = func(_ *sim.Thread, _ []vfs.Extent) bool {
			zombiesAtFree = append(zombiesAtFree, p.Dax.ZombieCount())
			return false
		}
		k.FS.SetHooks(h)
	}

	payload := make([]byte, fileBytes)
	for i := range payload {
		payload[i] = byte(i*7 + i/4096)
	}
	p.Spawn("main", 0, 0, func(th *sim.Thread, c *cpu.Core) {
		fd, err := p.Create(th, "f")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := p.Append(th, fd, payload); err != nil {
			t.Errorf("Append: %v", err)
			return
		}
		var va mem.VirtAddr
		if dax {
			zva, err := p.DaxvmMmap(th, c, fd, 0, zombieBytes, mem.PermRead, core.FlagUnmapAsync)
			if err != nil {
				t.Errorf("async DaxvmMmap: %v", err)
				return
			}
			if err := p.AccessMapped(th, c, zva, zombieBytes, KindSum); err != nil {
				t.Errorf("zombie access: %v", err)
			}
			if err := p.DaxvmMunmap(th, c, zva); err != nil {
				t.Errorf("async DaxvmMunmap: %v", err)
			}
			if n := p.Dax.ZombieCount(); n != 1 {
				t.Errorf("zombies before truncate = %d, want 1", n)
			}
			va, err = p.DaxvmMmap(th, c, fd, 0, fileBytes, mem.PermRead, 0)
		} else {
			va, err = p.Mmap(th, c, fd, 0, fileBytes, mem.PermRead, mm.MapShared)
		}
		if err != nil {
			t.Errorf("live mapping: %v", err)
			return
		}
		if err := p.AccessMapped(th, c, va, fileBytes, KindSum); err != nil {
			t.Errorf("live access: %v", err)
		}

		if err := p.Ftruncate(th, fd, newSize); err != nil {
			t.Errorf("Ftruncate: %v", err)
			return
		}
		if got := p.Inode(fd).Size; got != newSize {
			t.Errorf("size after truncate = %d, want %d", got, newSize)
		}
		got := make([]byte, newSize)
		if n, err := p.ReadAt(th, fd, 0, got); err != nil || n != newSize {
			t.Errorf("ReadAt kept bytes = %d, %v; want %d", n, err, newSize)
		}
		if !bytes.Equal(got, payload[:newSize]) {
			t.Error("kept bytes differ from what was written")
		}
		if n, _ := p.ReadAt(th, fd, newSize, make([]byte, 4096)); n != 0 {
			t.Errorf("read past the new size returned %d bytes", n)
		}
		if err := p.AccessMapped(th, c, va, mem.PageSize, KindSum); err == nil {
			t.Error("the live mapping survived the truncate")
		}
		if dax {
			if n := p.Dax.ZombieCount(); n != 0 {
				t.Errorf("zombies after truncate = %d, want 0", n)
			}
		}
		if err := p.Ftruncate(th, 999, 0); err == nil {
			t.Error("Ftruncate on a bad fd succeeded")
		}
	})
	k.Run()

	if dax {
		if len(zombiesAtFree) == 0 {
			t.Fatal("the truncate freed no blocks")
		}
		for i, n := range zombiesAtFree {
			if n != 0 {
				t.Errorf("free %d ran with %d zombie mappings still attached", i, n)
			}
		}
		// The zombie and the live mapping were both forced off.
		if got := k.Dax.Stats.ForcedUnmaps; got != 2 {
			t.Errorf("ForcedUnmaps = %d, want 2", got)
		}
	}
	var closed uint64
	for _, seg := range spans.Export() {
		for _, ce := range seg.Classes {
			if ce.Class == "syscall.ftruncate" {
				closed += ce.Count
			}
		}
	}
	if closed != 2 {
		t.Errorf("closed syscall.ftruncate spans = %d, want 2 (one good call, one bad fd)", closed)
	}
}
