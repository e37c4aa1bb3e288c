package vfs_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// TestLRUHoldsOneEntryPerInode: repeated hits move an inode within the
// LRU list instead of adding to it. 48,000 opens over 8 cached inodes
// (a webserve cell's icache hits) leave 8 entries.
func TestLRUHoldsOneEntryPerInode(t *testing.T) {
	c, _ := newCache(t, 1<<16, nil)
	run(func(th *sim.Thread) {
		for i := 0; i < 8; i++ {
			in, err := c.Create(th, fmt.Sprintf("f%d", i))
			if err != nil {
				t.Errorf("Create: %v", err)
				return
			}
			c.Put(th, in)
		}
		for i := 0; i < 48000; i++ {
			in, err := c.Open(th, fmt.Sprintf("f%d", i%8))
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			c.Put(th, in)
		}
	})
	if c.Stats.Hits != 48000 {
		t.Errorf("hits = %d, want 48000", c.Stats.Hits)
	}
	if n := c.LRULen(); n != 8 {
		t.Errorf("LRU holds %d entries for 8 cached inodes", n)
	}
}

// TestEvictionMatchesReferenceLRU drives a capacity-4 cache with random
// creates, opens, puts and unlinks (the kernel's unlink: mark the cached
// inode deleted, drop it now if unreferenced) and checks every OnEvict
// call against a reference LRU that evicts the least recently used
// unreferenced inode.
func TestEvictionMatchesReferenceLRU(t *testing.T) {
	type evict struct {
		ino     vfs.Ino
		deleted bool
	}
	var got []evict
	hooks := &vfs.Hooks{OnEvict: func(_ *sim.Thread, in *vfs.Inode) {
		got = append(got, evict{in.Ino, in.Deleted})
	}}
	const capacity = 4
	c, f := newCache(t, capacity, hooks)

	// The reference: cached inode numbers, least recent first, and the
	// references and deleted marks of each.
	var order []vfs.Ino
	refs := map[vfs.Ino]int{}
	deleted := map[vfs.Ino]bool{}
	var want []evict
	forget := func(ino vfs.Ino, i int) {
		order = append(order[:i], order[i+1:]...)
		want = append(want, evict{ino, deleted[ino]})
	}
	use := func(ino vfs.Ino) {
		if i := slices.Index(order, ino); i >= 0 {
			order = append(order[:i], order[i+1:]...)
		} else {
			for len(order) >= capacity {
				i := slices.IndexFunc(order, func(o vfs.Ino) bool { return refs[o] == 0 })
				if i < 0 {
					break
				}
				forget(order[i], i)
			}
		}
		order = append(order, ino)
		refs[ino]++
	}

	rng := rand.New(rand.NewSource(1))
	paths := map[string]vfs.Ino{}
	var live []string
	var held []*vfs.Inode
	run(func(th *sim.Thread) {
		for op, next := 0, 0; op < 3000; op++ {
			switch r := rng.Intn(10); {
			case r < 2 || len(live) == 0:
				path := fmt.Sprintf("f%d", next)
				next++
				in, err := c.Create(th, path)
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				paths[path] = in.Ino
				live = append(live, path)
				held = append(held, in)
				use(in.Ino)
			case r < 5:
				in, err := c.Open(th, live[rng.Intn(len(live))])
				if err != nil {
					t.Errorf("Open: %v", err)
					return
				}
				held = append(held, in)
				use(in.Ino)
			case r < 9:
				if len(held) == 0 {
					continue
				}
				i := rng.Intn(len(held))
				in := held[i]
				held = append(held[:i], held[i+1:]...)
				c.Put(th, in)
				if refs[in.Ino]--; refs[in.Ino] == 0 && deleted[in.Ino] {
					forget(in.Ino, slices.Index(order, in.Ino))
				}
			default:
				i := rng.Intn(len(live))
				path := live[i]
				live = append(live[:i], live[i+1:]...)
				if err := f.Unlink(th, path); err != nil {
					t.Errorf("Unlink: %v", err)
					return
				}
				ino := paths[path]
				if in, ok := c.Get(ino); ok {
					in.Deleted = true
					deleted[ino] = true
					if in.Refs == 0 {
						in.Refs = 1
						c.Put(th, in)
						forget(ino, slices.Index(order, ino))
					}
				}
			}
			if c.Len() != len(order) || c.LRULen() != len(order) {
				t.Errorf("op %d: cache holds %d inodes, LRU %d entries, reference %d", op, c.Len(), c.LRULen(), len(order))
				return
			}
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("evictions differ from the reference LRU:\n got  %v\n want %v", got, want)
	}
	if len(want) < 200 {
		t.Errorf("only %d evictions exercised", len(want))
	}
}
