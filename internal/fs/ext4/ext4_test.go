package ext4

import (
	"bytes"
	"testing"

	"daxvm/internal/fs/vfs"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

func newFS(t *testing.T, sizeMB int) *FS {
	dev := pmem.New(pmem.Config{Size: uint64(sizeMB) << 20})
	t.Cleanup(dev.Release)
	return Mkfs(Config{Dev: dev, JournalBytes: 8 << 20})
}

func run(fn func(t *sim.Thread)) {
	e := sim.New()
	e.Go("t", 0, 0, fn)
	e.Run()
}

func TestCreateWriteRead(t *testing.T) {
	f := newFS(t, 64)
	run(func(th *sim.Thread) {
		in, err := f.Create(th, "a/b")
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		payload := bytes.Repeat([]byte("0123456789abcdef"), 1000) // 16 000 B
		if err := f.Append(th, in, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if in.Size != uint64(len(payload)) {
			t.Fatalf("size = %d", in.Size)
		}
		got := make([]byte, len(payload))
		n, err := f.ReadAt(th, in, 0, got)
		if err != nil || n != uint64(len(payload)) {
			t.Fatalf("ReadAt: %d, %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload mismatch")
		}
		// Partial read across block boundary.
		part := make([]byte, 100)
		if _, err := f.ReadAt(th, in, 4090, part); err != nil {
			t.Fatalf("partial ReadAt: %v", err)
		}
		if !bytes.Equal(part, payload[4090:4190]) {
			t.Fatal("partial read mismatch")
		}
	})
}

func TestLookupAndLoad(t *testing.T) {
	f := newFS(t, 64)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "x")
		f.Append(th, in, make([]byte, 10000))
		ino, err := f.LookupPath(th, "x")
		if err != nil || ino != in.Ino {
			t.Fatalf("LookupPath: %d, %v", ino, err)
		}
		loaded, err := f.LoadInode(th, ino)
		if err != nil || loaded.Size != 10000 {
			t.Fatalf("LoadInode: size=%d err=%v", loaded.Size, err)
		}
		if _, err := f.LookupPath(th, "missing"); err != vfs.ErrNotFound {
			t.Fatalf("missing file: %v", err)
		}
	})
}

func TestAppendZeroesNewBlocksConservatively(t *testing.T) {
	// ext4-DAX zeroes new blocks even on the write path (paper §V-B):
	// zeroed bytes must roughly match appended bytes.
	f := newFS(t, 64)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "z")
		f.Append(th, in, make([]byte, 1<<20))
	})
	if f.Stats.ZeroedBlocks < 256 {
		t.Fatalf("zeroed %d blocks, want >= 256 (1 MiB)", f.Stats.ZeroedBlocks)
	}
}

func TestTrustZeroedSkipsRedundantZeroing(t *testing.T) {
	f := newFS(t, 64)
	f.SetTrustZeroed(true)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "z")
		f.Append(th, in, make([]byte, 1<<20)) // fresh device: all pre-zeroed
	})
	if f.Stats.ZeroedBlocks != 0 || f.Stats.SkippedZero < 256 {
		t.Fatalf("zeroed=%d skipped=%d, want 0 / >=256", f.Stats.ZeroedBlocks, f.Stats.SkippedZero)
	}
}

func TestMetaDirtyAndSync(t *testing.T) {
	f := newFS(t, 64)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "m")
		f.Append(th, in, make([]byte, 8192))
		if !in.MetaDirty {
			t.Fatal("append should dirty metadata")
		}
		commits := f.Journal().Stats.Commits
		if !f.SyncMetaIfDirty(th, in) {
			t.Fatal("SyncMetaIfDirty should commit")
		}
		if f.Journal().Stats.Commits != commits+1 {
			t.Fatal("no journal commit recorded")
		}
		if in.MetaDirty || f.SyncMetaIfDirty(th, in) {
			t.Fatal("second sync should be a no-op")
		}
	})
}

func TestTruncateFreesAndUnlinkReclaims(t *testing.T) {
	f := newFS(t, 64)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "t")
		f.Append(th, in, make([]byte, 1<<20))
		free0 := f.FreeSpace()
		if err := f.Truncate(th, in, 4096); err != nil {
			t.Fatalf("Truncate: %v", err)
		}
		if f.FreeSpace() <= free0 {
			t.Fatal("truncate freed nothing")
		}
		if in.Size != 4096 {
			t.Fatalf("size = %d", in.Size)
		}
		if err := f.Unlink(th, "t"); err != nil {
			t.Fatalf("Unlink: %v", err)
		}
		in.Deleted = true
		free1 := f.FreeSpace()
		f.PutInode(th, in)
		if f.FreeSpace() <= free1 {
			t.Fatal("unlink+put freed nothing")
		}
	})
}

func TestBlockOf(t *testing.T) {
	f := newFS(t, 64)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "b")
		f.Append(th, in, make([]byte, 64<<10))
		exts := f.Extents(in)
		if len(exts) == 0 {
			t.Fatal("no extents")
		}
		phys, ok := f.BlockOf(th, in, 3)
		if !ok {
			t.Fatal("BlockOf(3) missed")
		}
		// Verify against the extent list.
		want := uint64(0)
		found := false
		for _, e := range exts {
			if e.File <= 3 && 3 < e.End() {
				want = e.Phys + 3 - e.File
				found = true
			}
		}
		if !found || phys != want {
			t.Fatalf("BlockOf(3) = %d, want %d", phys, want)
		}
		if _, ok := f.BlockOf(th, in, 1000); ok {
			t.Fatal("BlockOf beyond EOF should miss")
		}
	})
}

func TestFreshImageGivesContiguousExtents(t *testing.T) {
	f := newFS(t, 256)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "big")
		f.Fallocate(th, in, 0, 32<<20)
		exts := f.Extents(in)
		if len(exts) > 20 {
			t.Fatalf("fresh image produced %d extents for 32 MiB", len(exts))
		}
	})
}

func TestOnFreeHookInterceptsBlocks(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 64 << 20})
	t.Cleanup(dev.Release)
	var intercepted uint64
	hooks := &vfs.Hooks{
		OnFree: func(_ *sim.Thread, ext []vfs.Extent) bool {
			for _, e := range ext {
				intercepted += e.Len
			}
			return true
		},
	}
	f := Mkfs(Config{Dev: dev, JournalBytes: 8 << 20, Hooks: hooks})
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "h")
		f.Append(th, in, make([]byte, 1<<20))
		free0 := f.FreeSpace()
		f.Truncate(th, in, 0)
		if intercepted < 256 {
			t.Fatalf("hook intercepted %d blocks", intercepted)
		}
		if f.FreeSpace() != free0 {
			t.Fatal("blocks should be held by the hook, not the allocator")
		}
	})
}
