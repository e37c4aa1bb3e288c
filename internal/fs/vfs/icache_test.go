package vfs_test

import (
	"fmt"
	"runtime"
	"testing"

	"daxvm/internal/fs/ext4"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

func newCache(t *testing.T, capacity int, hooks *vfs.Hooks) (*vfs.ICache, *ext4.FS) {
	dev := pmem.New(pmem.Config{Size: 128 << 20})
	t.Cleanup(dev.Release)
	f := ext4.Mkfs(ext4.Config{Dev: dev, JournalBytes: 8 << 20})
	return vfs.NewICache(f, capacity, hooks), f
}

func run(fn func(t *sim.Thread)) {
	e := sim.New()
	e.Go("t", 0, 0, fn)
	e.Run()
}

func TestOpenHitAndColdLoad(t *testing.T) {
	c, _ := newCache(t, 16, nil)
	run(func(th *sim.Thread) {
		in, err := c.Create(th, "a")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		c.Put(th, in)
		in2, err := c.Open(th, "a")
		if err != nil || in2.Ino != in.Ino {
			t.Errorf("Open: %v", err)
			return
		}
		if c.Stats.Hits != 1 {
			t.Errorf("hits = %d", c.Stats.Hits)
		}
		c.Put(th, in2)
		if _, err := c.Open(th, "missing"); err != vfs.ErrNotFound {
			t.Errorf("missing open: %v", err)
		}
	})
}

func TestEvictionLRUAndHook(t *testing.T) {
	var evicted []vfs.Ino
	hooks := &vfs.Hooks{OnEvict: func(_ *sim.Thread, in *vfs.Inode) { evicted = append(evicted, in.Ino) }}
	c, _ := newCache(t, 8, hooks)
	run(func(th *sim.Thread) {
		var first *vfs.Inode
		for i := 0; i < 20; i++ {
			in, err := c.Create(th, fmt.Sprintf("f%02d", i))
			if err != nil {
				t.Errorf("Create: %v", err)
				return
			}
			if i == 0 {
				first = in
			}
			c.Put(th, in)
		}
		if c.Len() > 8 {
			t.Errorf("cache len %d over capacity", c.Len())
		}
		if len(evicted) == 0 {
			t.Error("no evictions")
		}
		// The first file was least recently used: it must be gone.
		if _, ok := c.Get(first.Ino); ok {
			t.Error("LRU victim still cached")
		}
		// Cold open reloads it.
		in, err := c.Open(th, "f00")
		if err != nil {
			t.Errorf("cold open: %v", err)
			return
		}
		if c.Stats.ColdLoads == 0 {
			t.Error("no cold load recorded")
		}
		c.Put(th, in)
	})
}

func TestReferencedInodesNotEvicted(t *testing.T) {
	c, _ := newCache(t, 4, nil)
	run(func(th *sim.Thread) {
		pinned, _ := c.Create(th, "pinned") // ref held
		for i := 0; i < 12; i++ {
			in, _ := c.Create(th, fmt.Sprintf("x%d", i))
			c.Put(th, in)
		}
		if _, ok := c.Get(pinned.Ino); !ok {
			t.Error("referenced inode evicted")
		}
		c.Put(th, pinned)
	})
}

func TestDeletedInodeDestroyedOnLastPut(t *testing.T) {
	destroyed := 0
	hooks := &vfs.Hooks{OnEvict: func(_ *sim.Thread, in *vfs.Inode) {
		if in.Deleted {
			destroyed++
		}
	}}
	c, f := newCache(t, 8, hooks)
	run(func(th *sim.Thread) {
		in, _ := c.Create(th, "doomed")
		f.Append(th, in, make([]byte, 64<<10))
		free0 := f.FreeSpace()
		f.Unlink(th, "doomed")
		in.Deleted = true
		c.Put(th, in)
		if destroyed != 1 {
			t.Errorf("destroy hook ran %d times", destroyed)
		}
		if f.FreeSpace() <= free0 {
			t.Error("blocks not reclaimed on last put")
		}
		if _, ok := c.Get(in.Ino); ok {
			t.Error("deleted inode still cached")
		}
	})
}

// TestNewICacheGrowsOnUse: a cache bounded at 65,536 inodes, the
// kernel's bound, costs almost nothing until inodes are cached. A map
// pre-sized for the bound would allocate 2.25 MiB up front.
func TestNewICacheGrowsOnUse(t *testing.T) {
	_, f := newCache(t, 1, nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := vfs.NewICache(f, 1<<16, nil)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("NewICache allocated %d KiB, want under 64 KiB", got>>10)
	}
}
