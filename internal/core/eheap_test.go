package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"daxvm/internal/cpu"
	"daxvm/internal/dram"
	"daxvm/internal/fs/ext4"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

// newHeap returns a heap over a fresh device and the device's Release.
func newHeap() (*EphemeralHeap, func()) {
	dev := pmem.New(pmem.Config{Size: 64 << 20})
	f := ext4.Mkfs(ext4.Config{Dev: dev, JournalBytes: 8 << 20})
	m := mm.New(dram.New(1<<30), f, cpu.NewSet(1))
	return NewEphemeralHeap(m), dev.Release
}

// Property: across any interleaving of allocations and frees, live ranges
// never overlap and every allocation is 2 MiB aligned.
func TestQuickEphemeralHeapNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, release := newHeap()
		defer release()
		ok := true
		e := sim.New()
		e.Go("t", 0, 0, func(th *sim.Thread) {
			type live struct {
				va  mem.VirtAddr
				len uint64
				v   *mm.VMA
			}
			var lives []live
			for op := 0; op < 200; op++ {
				if rng.Intn(2) == 0 || len(lives) == 0 {
					vlen := uint64(1+rng.Intn(4)) * mem.HugeSize
					va := h.Alloc(th, vlen)
					if uint64(va)%mem.HugeSize != 0 {
						ok = false
						return
					}
					for _, l := range lives {
						if va < l.va+mem.VirtAddr(l.len) && l.va < va+mem.VirtAddr(vlen) {
							ok = false // overlap with a live mapping
							return
						}
					}
					v := &mm.VMA{Start: va, End: va + mem.VirtAddr(vlen), Ephemeral: true}
					h.Register(th, v)
					lives = append(lives, live{va, vlen, v})
				} else {
					i := rng.Intn(len(lives))
					h.Unregister(th, lives[i].v)
					lives[i] = lives[len(lives)-1]
					lives = lives[:len(lives)-1]
				}
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEphemeralHeapLookupInteriorAddresses(t *testing.T) {
	h, release := newHeap()
	t.Cleanup(release)
	e := sim.New()
	e.Go("t", 0, 0, func(th *sim.Thread) {
		va := h.Alloc(th, 4*mem.HugeSize)
		v := &mm.VMA{Start: va, End: va + 4*mem.HugeSize, Ephemeral: true}
		h.Register(th, v)
		if h.Lookup(va+3*mem.HugeSize+12345) != v {
			t.Error("interior lookup failed")
		}
		if h.Lookup(va+4*mem.HugeSize) != nil {
			t.Error("lookup past end hit")
		}
		if h.Lookup(0x1234) != nil {
			t.Error("non-heap address resolved")
		}
		h.Unregister(th, v)
		if h.Lookup(va) != nil {
			t.Error("freed mapping still resolvable")
		}
	})
	e.Run()
}

// TestEphemeralHeapLookupMatchesLinearScan drives random Register,
// Unregister and Lookup calls and checks every lookup, interior and
// outside addresses alike, against a linear scan of the live mappings.
func TestEphemeralHeapLookupMatchesLinearScan(t *testing.T) {
	h, release := newHeap()
	t.Cleanup(release)
	rng := rand.New(rand.NewSource(7))
	e := sim.New()
	e.Go("t", 0, 0, func(th *sim.Thread) {
		var lives []*mm.VMA
		scan := func(va mem.VirtAddr) *mm.VMA {
			for _, v := range lives {
				if va >= v.Start && va < v.End {
					return v
				}
			}
			return nil
		}
		var lo, hi mem.VirtAddr // span of every address the heap handed out
		lookups := 0
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(10); {
			case r < 4 || len(lives) == 0:
				vlen := uint64(1+rng.Intn(4)) * mem.HugeSize
				va := h.Alloc(th, vlen)
				v := &mm.VMA{Start: va, End: va + mem.VirtAddr(vlen), Ephemeral: true}
				h.Register(th, v)
				lives = append(lives, v)
				if lo == 0 || va < lo {
					lo = va
				}
				hi = max(hi, v.End)
			case r < 7:
				i := rng.Intn(len(lives))
				h.Unregister(th, lives[i])
				lives = append(lives[:i], lives[i+1:]...)
			default:
				var va mem.VirtAddr
				if rng.Intn(2) == 0 && len(lives) > 0 {
					v := lives[rng.Intn(len(lives))]
					va = v.Start + mem.VirtAddr(rng.Int63n(int64(v.End-v.Start)))
				} else {
					va = lo - mem.HugeSize + mem.VirtAddr(rng.Int63n(int64(hi-lo)+2*mem.HugeSize))
				}
				if got, want := h.Lookup(va), scan(va); got != want {
					t.Errorf("op %d: Lookup(%#x) = %v, linear scan = %v", op, va, got, want)
					return
				}
				lookups++
			}
			if h.Live() != len(lives) {
				t.Errorf("op %d: Live() = %d, want %d", op, h.Live(), len(lives))
				return
			}
		}
		if lookups < 500 {
			t.Errorf("only %d lookups checked", lookups)
		}
	})
	e.Run()
}

// TestEphemeralHeapLongMappingStaysInItsRegion: a mapping longer than a
// region gets a reservation of its own length, so the process's VA
// allocator hands out no address inside it. Once it drains, the
// reservation takes later mappings up to its whole length, each freed
// against it wherever it starts, and an allocation past it takes a new
// region outside it.
func TestEphemeralHeapLongMappingStaysInItsRegion(t *testing.T) {
	h, release := newHeap()
	t.Cleanup(release)
	e := sim.New()
	e.Go("t", 0, 0, func(th *sim.Thread) {
		const long = 3 << 30
		mapping := func(vlen uint64) *mm.VMA {
			va := h.Alloc(th, vlen)
			v := &mm.VMA{Start: va, End: va + mem.VirtAddr(vlen), Ephemeral: true}
			h.Register(th, v)
			return v
		}
		v := mapping(long)
		base, end := v.Start, v.End
		inside := func(a mem.VirtAddr) bool { return a+mem.HugeSize > base && a < end }
		if a := h.m.GetUnmappedArea(th, mem.HugeSize, mem.HugeSize); inside(a) {
			t.Errorf("GetUnmappedArea returned %#x, inside the mapping [%#x,%#x)", a, base, end)
		}
		h.Unregister(th, v)
		r := h.regions[0]
		if r.size != long || r.used != 0 || r.live != 0 {
			t.Fatalf("the long mapping's region after unmap: size %#x, used %#x, live %d; want size %#x, empty", r.size, r.used, r.live, uint64(long))
		}
		a, b := mapping(2<<30), mapping(512<<20)
		if a.Start != base || b.Start != base+2<<30 {
			t.Fatalf("mappings at %#x and %#x, want %#x and %#x in the drained region", a.Start, b.Start, base, base+2<<30)
		}
		h.Unregister(th, b)
		if r.live != 1 {
			t.Errorf("after freeing the mapping 2 GiB into the region, it counts %d live, want 1", r.live)
		}
		if c := mapping(1 << 30); inside(c.Start) || len(h.regions) != 2 {
			t.Errorf("a mapping past the region's end got %#x (%d regions), want a new region outside [%#x,%#x)", c.Start, len(h.regions), base, end)
		}
	})
	e.Run()
}
