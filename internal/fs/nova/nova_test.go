package nova

import (
	"bytes"
	"testing"

	"daxvm/internal/mem"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

func newFS(t *testing.T, sizeMB int) *FS {
	dev := pmem.New(pmem.Config{Size: uint64(sizeMB) << 20})
	t.Cleanup(dev.Release)
	return Mkfs(Config{Dev: dev})
}

func run(fn func(t *sim.Thread)) {
	e := sim.New()
	e.Go("t", 0, 0, fn)
	e.Run()
}

func TestWritePathDoesNotZero(t *testing.T) {
	// NOVA's write(2) initializes blocks with the payload itself; no
	// security zeroing on that path (the Fig. 7 asymmetry).
	f := newFS(t, 64)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "w")
		if err := f.Append(th, in, make([]byte, 1<<20)); err != nil {
			t.Errorf("Append: %v", err)
		}
	})
	if f.Stats.ZeroedBlocks != 0 {
		t.Fatalf("write path zeroed %d blocks", f.Stats.ZeroedBlocks)
	}
}

func TestFallocateZeroes(t *testing.T) {
	f := newFS(t, 64)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "fa")
		// Dirty the free space first so zeroing is observable.
		tmp, _ := f.Create(th, "tmp")
		f.Append(th, tmp, bytes.Repeat([]byte{0xEE}, 1<<20))
		f.Truncate(th, tmp, 0)
		if err := f.Fallocate(th, in, 0, 1<<20); err != nil {
			t.Errorf("Fallocate: %v", err)
			return
		}
		// Every allocated byte must read zero (security).
		buf := make([]byte, 4096)
		for _, e := range f.Extents(in) {
			f.Device().Read(th, mem.PhysAddr(e.Phys*mem.PageSize), buf)
			for _, b := range buf {
				if b != 0 {
					t.Error("fallocate exposed stale bytes")
					return
				}
			}
		}
	})
	if f.Stats.ZeroedBlocks == 0 {
		t.Fatal("fallocate did not zero")
	}
}

func TestMetadataSynchronous(t *testing.T) {
	// NOVA commits metadata at operation time: MAP_SYNC faults are no-ops
	// and MetaDirty never sets.
	f := newFS(t, 64)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "m")
		f.Append(th, in, make([]byte, 64<<10))
		if in.MetaDirty {
			t.Error("NOVA inode left MetaDirty")
		}
		if f.SyncMetaIfDirty(th, in) {
			t.Error("SyncMetaIfDirty should be a no-op on NOVA")
		}
	})
	if f.Stats.LogAppends == 0 {
		t.Fatal("no log appends recorded")
	}
}

func TestReadBack(t *testing.T) {
	f := newFS(t, 64)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "rb")
		payload := bytes.Repeat([]byte("nova-relaxed"), 2000)
		f.Append(th, in, payload)
		got := make([]byte, len(payload))
		if _, err := f.ReadAt(th, in, 0, got); err != nil {
			t.Errorf("ReadAt: %v", err)
			return
		}
		if !bytes.Equal(got, payload) {
			t.Error("payload mismatch")
		}
	})
}

func TestTruncateAndReclaim(t *testing.T) {
	f := newFS(t, 64)
	run(func(th *sim.Thread) {
		in, _ := f.Create(th, "t")
		f.Append(th, in, make([]byte, 1<<20))
		free0 := f.FreeSpace()
		f.Truncate(th, in, 8192)
		if f.FreeSpace() <= free0 {
			t.Error("truncate freed nothing")
		}
		f.Unlink(th, "t")
		in.Deleted = true
		f.PutInode(th, in)
		if _, err := f.LookupPath(th, "t"); err == nil {
			t.Error("unlinked file still resolvable")
		}
	})
}
