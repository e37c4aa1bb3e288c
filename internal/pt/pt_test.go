package pt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"daxvm/internal/mem"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
	"daxvm/internal/topo"
)

func newAS() *AddressSpace {
	return NewAddressSpace(
		func(_ *sim.Thread, level int) *Node { return NewNode(level, mem.Loc{Medium: mem.DRAM}) },
		func(_ *sim.Thread, _ *Node) {},
	)
}

func run(fn func(t *sim.Thread)) {
	e := sim.New()
	e.Go("t", 0, 0, fn)
	e.Run()
}

func TestEntryBits(t *testing.T) {
	e := MakeEntry(0x1234, mem.PermRead|mem.PermWrite, true, false)
	if !e.Present() || !e.Writable() || !e.OnPMem() || e.Huge() {
		t.Fatalf("bits wrong: %#x", uint64(e))
	}
	if e.PFN() != 0x1234 {
		t.Fatalf("pfn = %#x", e.PFN())
	}
	ro := MakeEntry(7, mem.PermRead, false, true)
	if ro.Writable() || !ro.Huge() || ro.OnPMem() {
		t.Fatalf("bits wrong: %#x", uint64(ro))
	}
}

func TestMapLookup(t *testing.T) {
	as := newAS()
	run(func(th *sim.Thread) {
		va := mem.VirtAddr(0x7f00_0000_0000)
		as.Map(th, va, MakeEntry(42, mem.PermRead|mem.PermWrite, true, false), LevelPTE)
		e, lvl, w, ok := as.Lookup(va)
		if !ok || lvl != LevelPTE || !w || e.PFN() != 42 {
			t.Errorf("Lookup = %#x lvl=%d w=%v ok=%v", uint64(e), lvl, w, ok)
		}
		if _, _, _, ok := as.Lookup(va + mem.PageSize); ok {
			t.Error("adjacent page should be unmapped")
		}
	})
}

func TestHugeMapping(t *testing.T) {
	as := newAS()
	run(func(th *sim.Thread) {
		va := mem.VirtAddr(0x7f00_0020_0000) // 2 MiB aligned
		as.Map(th, va, MakeEntry(512, mem.PermRead, true, true), LevelPMD)
		e, lvl, _, ok := as.Lookup(va + 0x12345)
		if !ok || lvl != LevelPMD || !e.Huge() {
			t.Errorf("huge lookup = %#x lvl=%d ok=%v", uint64(e), lvl, ok)
		}
	})
}

func TestAttachDetachSharedFragment(t *testing.T) {
	// A shared PTE-level node attached into two address spaces with
	// different permissions must yield different effective writability.
	sub := NewNode(LevelPTE, mem.Loc{Medium: mem.PMem})
	sub.Shared = true
	run(func(th *sim.Thread) {
		for i := 0; i < 16; i++ {
			sub.SetEntry(th, i, MakeEntry(mem.PFN(100+i), mem.PermRead|mem.PermWrite, true, false))
		}
		va := mem.VirtAddr(0x7f00_0040_0000)

		asRW := newAS()
		asRO := newAS()
		asRW.Attach(th, va, LevelPMD, sub, mem.PermRead|mem.PermWrite)
		asRO.Attach(th, va, LevelPMD, sub, mem.PermRead)

		_, _, w1, ok1 := asRW.Lookup(va + 4096)
		_, _, w2, ok2 := asRO.Lookup(va + 4096)
		if !ok1 || !ok2 {
			t.Error("attached translations missing")
		}
		if !w1 {
			t.Error("RW attachment should be writable")
		}
		if w2 {
			t.Error("RO attachment must not be writable despite RW PTEs (min-permission rule)")
		}

		got := asRW.Detach(th, va, LevelPMD)
		if got != sub {
			t.Error("Detach returned wrong node")
		}
		if _, _, _, ok := asRW.Lookup(va + 4096); ok {
			t.Error("translation survived detach")
		}
		// The shared fragment must be intact for the other process.
		if _, _, _, ok := asRO.Lookup(va + 4096); !ok {
			t.Error("shared fragment damaged by detach")
		}
		if sub.Entry(3).PFN() != 103 {
			t.Error("shared PTEs mutated")
		}
	})
}

func TestAttachedPerm(t *testing.T) {
	sub := NewNode(LevelPTE, mem.Loc{Medium: mem.DRAM})
	sub.Shared = true
	run(func(th *sim.Thread) {
		sub.SetEntry(th, 0, MakeEntry(1, mem.PermRead|mem.PermWrite, true, false))
		as := newAS()
		va := mem.VirtAddr(0x6000_0000_0000)
		as.Attach(th, va, LevelPMD, sub, mem.PermRead)
		if _, _, w, _ := as.Lookup(va); w {
			t.Error("should start read-only")
		}
		if !as.AttachedPerm(th, va, LevelPMD, mem.PermRead|mem.PermWrite) {
			t.Error("AttachedPerm failed")
		}
		if _, _, w, _ := as.Lookup(va); !w {
			t.Error("permission upgrade did not take effect")
		}
	})
}

func TestClearRange(t *testing.T) {
	as := newAS()
	run(func(th *sim.Thread) {
		base := mem.VirtAddr(0x7f00_0000_0000)
		for i := uint64(0); i < 100; i++ {
			as.Map(th, base+mem.VirtAddr(i*mem.PageSize), MakeEntry(mem.PFN(i), mem.PermRead, true, false), LevelPTE)
		}
		cleared := as.ClearRange(th, base+10*mem.PageSize, base+20*mem.PageSize)
		if cleared != 10 {
			t.Errorf("cleared = %d, want 10", cleared)
		}
		if _, _, _, ok := as.Lookup(base + 9*mem.PageSize); !ok {
			t.Error("page 9 should survive")
		}
		if _, _, _, ok := as.Lookup(base + 15*mem.PageSize); ok {
			t.Error("page 15 should be cleared")
		}
		if _, _, _, ok := as.Lookup(base + 20*mem.PageSize); !ok {
			t.Error("page 20 should survive")
		}
	})
}

func TestClearRangeDetachesFragments(t *testing.T) {
	sub := NewNode(LevelPTE, mem.Loc{Medium: mem.PMem})
	sub.Shared = true
	as := newAS()
	run(func(th *sim.Thread) {
		sub.SetEntry(th, 0, MakeEntry(9, mem.PermRead, true, false))
		va := mem.VirtAddr(0x7f00_0060_0000)
		as.Attach(th, va, LevelPMD, sub, mem.PermRead)
		cleared := as.ClearRange(th, va, va+mem.HugeSize)
		if cleared != mem.HugeSize/mem.PageSize {
			t.Errorf("cleared = %d", cleared)
		}
		if sub.Entry(0) == 0 {
			t.Error("shared fragment zeroed by ClearRange")
		}
	})
}

func TestPMemBackingMirror(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 1 << 20})
	t.Cleanup(dev.Release)
	n := NewPersistentNode(dev, 0x4000)
	run(func(th *sim.Thread) {
		e := MakeEntry(77, mem.PermRead|mem.PermWrite, true, false)
		n.SetEntry(th, 5, e)
		n.FlushEntries(th, 5, 6)
		dev.Fence(th)
		got := binary.LittleEndian.Uint64(dev.Bytes(0x4000+5*8, 8))
		if Entry(got) != e {
			t.Errorf("mirrored entry = %#x, want %#x", got, uint64(e))
		}
	})
}

// TestPersistentNodeEntriesAreMediaWords: a persistent node's slots are
// its page's words. After sparse stores, a run and a clear, every slot's
// Entry equals Device.Word at the slot's address, the node holds no host
// slots, Live counts the nonzero words, and a word stored to the page
// without the node reads back through Entry.
func TestPersistentNodeEntriesAreMediaWords(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 4 * mem.PageSize, Topo: topo.New(2, 1)})
	t.Cleanup(dev.Release)
	addr := mem.PhysAddr(3 * mem.PageSize)
	n := NewPersistentNode(dev, addr)
	if n.Loc != (mem.Loc{Medium: mem.PMem, Node: 1}) || !n.Shared || !n.NoAD || n.Level != LevelPTE {
		t.Fatalf("persistent node: loc %+v, shared %v, noAD %v, level %d", n.Loc, n.Shared, n.NoAD, n.Level)
	}
	run(func(th *sim.Thread) {
		rw := mem.PermRead | mem.PermWrite
		n.SetEntry(th, 0, MakeEntry(10, rw, true, false))
		n.SetEntry(th, 511, MakeEntry(11, rw, true, false))
		run := make([]Entry, 100)
		for i := range run {
			run[i] = MakeEntry(mem.PFN(200+i), rw, true, false)
		}
		n.SetEntries(th, 300, run)
		n.ClearSlot(th, 350)
		pmem.WriteCachedWords(dev, th, addr+8*7, []uint64{uint64(MakeEntry(12, rw, true, false))})
	})
	live := 0
	for i := 0; i < mem.PTEsPerTable; i++ {
		w := dev.Word(addr + mem.PhysAddr(8*i))
		if got := n.Entry(i); uint64(got) != w {
			t.Fatalf("slot %d: Entry %#x, device word %#x", i, uint64(got), w)
		}
		if w != 0 {
			live++
		}
	}
	if live != 102 || n.Entry(7).PFN() != 12 || n.Entry(350) != 0 {
		t.Errorf("page holds %d nonzero words, slot 7 PFN %d, slot 350 %#x; want 102, 12, 0", live, n.Entry(7).PFN(), uint64(n.Entry(350)))
	}
	if n.Live() != 101 { // the word stored past the node is not counted
		t.Errorf("Live = %d, want 101", n.Live())
	}
	if n.Len() != 0 {
		t.Errorf("persistent node holds %d host slots, want 0", n.Len())
	}
}

// Property: Map then Lookup is the identity for arbitrary page-aligned
// addresses and PFNs, and ClearRange removes exactly the mapped range.
func TestQuickMapLookupInverse(t *testing.T) {
	f := func(pages []uint32, pfns []uint32) bool {
		if len(pages) == 0 {
			return true
		}
		if len(pfns) < len(pages) {
			return true
		}
		as := newAS()
		ok := true
		run(func(th *sim.Thread) {
			seen := map[mem.VirtAddr]mem.PFN{}
			for i, p := range pages {
				va := mem.VirtAddr(uint64(p) * mem.PageSize)
				pfn := mem.PFN(pfns[i] & 0xFFFFF)
				as.Map(th, va, MakeEntry(pfn, mem.PermRead, true, false), LevelPTE)
				seen[va] = pfn
			}
			for va, pfn := range seen {
				e, _, _, found := as.Lookup(va)
				if !found || e.PFN() != pfn {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestClearRangePrunesNodes(t *testing.T) {
	freed := 0
	as := NewAddressSpace(
		func(_ *sim.Thread, level int) *Node { return NewNode(level, mem.Loc{Medium: mem.DRAM}) },
		func(_ *sim.Thread, _ *Node) { freed++ },
	)
	run(func(th *sim.Thread) {
		rng := rand.New(rand.NewSource(1))
		base := mem.VirtAddr(0x7f00_0000_0000)
		for i := 0; i < 1000; i++ {
			va := base + mem.VirtAddr(uint64(rng.Intn(1<<20))*mem.PageSize)
			as.Map(th, va, MakeEntry(1, mem.PermRead, true, false), LevelPTE)
		}
		as.ClearRange(th, base, base+mem.VirtAddr(uint64(1<<20)*mem.PageSize))
	})
	if freed == 0 {
		t.Fatal("no interior nodes pruned")
	}
}

// TestNodeFootprint pins the host size of table nodes. A process leaf
// is one allocation: a small header and the 4 KiB of entries, with no
// child array (every interior level owns one). A DRAM file-table node
// starts empty and holds a populated prefix of k entries in at most
// max(8, 2k) slots, rounded up to a cache line of entries; a persistent
// one holds none, however many it populates. A round trip through all
// four levels checks that the tree still works: Map at PTE and PMD level,
// Attach at PMD and PUD level, Resolve, Detach and ClearRange.
func TestNodeFootprint(t *testing.T) {
	const header = 256
	var full fullNode
	if size, entries := unsafe.Sizeof(full), unsafe.Sizeof(full.table); size > entries+header {
		t.Errorf("process node is %d B, want at most %d B of entries + %d B", size, entries, header)
	}
	var sink *Node
	if allocs := testing.AllocsPerRun(100, func() { sink = NewNode(LevelPTE, mem.Loc{}) }); allocs != 1 {
		t.Errorf("a process leaf takes %v allocations, want 1", allocs)
	}
	if sink.Len() != mem.PTEsPerTable || sink.children != nil {
		t.Errorf("process leaf holds %d entries (child array %v), want %d and none", sink.Len(), sink.children != nil, mem.PTEsPerTable)
	}
	for _, lvl := range []int{LevelPMD, LevelPUD, LevelPGD} {
		if n := NewNode(lvl, mem.Loc{}); n.children == nil || n.Len() != mem.PTEsPerTable {
			t.Errorf("level-%d node holds %d entries, child array %v", lvl, n.Len(), n.children != nil)
		}
	}
	ft := NewFileTableNode(mem.Loc{Medium: mem.DRAM})
	if ft.Len() != 0 || ft.Level != LevelPTE || !ft.Shared || !ft.NoAD {
		t.Errorf("new file-table node: %d entries, level %d, shared %v, noAD %v", ft.Len(), ft.Level, ft.Shared, ft.NoAD)
	}
	for k := 1; k <= mem.PTEsPerTable; k++ {
		ft.SetEntry(nil, k-1, MakeEntry(mem.PFN(k), mem.PermRead, true, false))
		if got, bound := ft.Len(), heldBound(k); got < k || got > bound {
			t.Fatalf("file-table node with %d entries holds %d, want %d..%d", k, got, k, bound)
		}
	}
	dev := pmem.New(pmem.Config{Size: mem.PageSize})
	t.Cleanup(dev.Release)
	pn := NewPersistentNode(dev, 0)
	run(func(th *sim.Thread) {
		for k := 1; k <= mem.PTEsPerTable; k++ {
			pn.SetEntry(th, k-1, MakeEntry(mem.PFN(k), mem.PermRead, true, false))
		}
	})
	if pn.Len() != 0 || pn.Live() != mem.PTEsPerTable {
		t.Errorf("full persistent node holds %d host slots and %d live entries, want 0 and %d", pn.Len(), pn.Live(), mem.PTEsPerTable)
	}

	freed := 0
	as := NewAddressSpace(
		func(_ *sim.Thread, level int) *Node { return NewNode(level, mem.Loc{Medium: mem.DRAM}) },
		func(_ *sim.Thread, _ *Node) { freed++ },
	)
	rw := mem.PermRead | mem.PermWrite
	base := mem.VirtAddr(0x7f00_0000_0000) // 512 GiB aligned
	page := base + 5*mem.PageSize
	huge := base + mem.HugeSize
	pmdAt := base + 2*mem.HugeSize
	pudAt := base + mem.VirtAddr(LevelSpan(LevelPUD))
	fragPTE := NewFileTableNode(mem.Loc{Medium: mem.PMem})
	fragPMD := NewNode(LevelPMD, mem.Loc{Medium: mem.PMem})
	fragPMD.Shared = true
	fragLeaf := NewFileTableNode(mem.Loc{Medium: mem.PMem})
	run(func(th *sim.Thread) {
		fragPTE.SetEntry(th, 1, MakeEntry(7, rw, true, false))
		fragLeaf.SetEntry(th, 2, MakeEntry(8, rw, true, false))
		fragPMD.SetChild(th, 3, fragLeaf, BitPresent|BitWrite|BitUser)

		as.Map(th, page, MakeEntry(5, rw, false, false), LevelPTE)
		as.Map(th, huge, MakeEntry(512, rw, true, true), LevelPMD)
		as.Attach(th, pmdAt, LevelPMD, fragPTE, mem.PermRead)
		as.Attach(th, pudAt, LevelPUD, fragPMD, rw)

		for _, c := range []struct {
			va    mem.VirtAddr
			node  *Node
			level int
			pfn   mem.PFN
			write bool
		}{
			{page, nil, LevelPTE, 5, true},
			{huge + 0x1234, nil, LevelPMD, 512, true},
			{pmdAt + mem.PageSize, fragPTE, LevelPTE, 7, false},
			{pudAt + 3*mem.HugeSize + 2*mem.PageSize, fragLeaf, LevelPTE, 8, true},
		} {
			l := as.Resolve(c.va)
			if l.Node == nil || l.Level != c.level || l.Entry.PFN() != c.pfn || l.Writable != c.write {
				t.Errorf("Resolve(%#x) = %+v, want level %d pfn %d writable %v", c.va, l, c.level, c.pfn, c.write)
			}
			if c.node != nil && l.Node != c.node {
				t.Errorf("Resolve(%#x) did not reach the attached fragment", c.va)
			}
		}

		if got := as.Detach(th, pmdAt, LevelPMD); got != fragPTE {
			t.Errorf("Detach at PMD = %p, want %p", got, fragPTE)
		}
		if l := as.Resolve(pmdAt + mem.PageSize); l.Node != nil {
			t.Error("translation survived Detach")
		}
		as.Attach(th, pmdAt, LevelPMD, fragPTE, mem.PermRead)

		cleared := as.ClearRange(th, base, pudAt+mem.VirtAddr(LevelSpan(LevelPUD)))
		if want := 1 + 2*mem.HugeSize/mem.PageSize + LevelSpan(LevelPUD)/mem.PageSize; cleared != want {
			t.Errorf("ClearRange cleared %d pages, want %d", cleared, want)
		}
	})
	if as.Root.Live() != 0 {
		t.Errorf("root keeps %d live slots after ClearRange", as.Root.Live())
	}
	if freed != 3 { // the PUD, PMD and PTE nodes Map built
		t.Errorf("ClearRange freed %d nodes, want 3", freed)
	}
	if fragPTE.Entry(1) == 0 || fragLeaf.Entry(2) == 0 || fragPMD.children[3] != fragLeaf {
		t.Error("ClearRange mutated a shared fragment")
	}
}

// heldBound is the most slots a file-table node may hold once its
// highest populated slot is k-1: max(8, 2k), rounded up to a cache line
// of entries, and never more than the table.
func heldBound(k int) int {
	if k == 0 {
		return 0
	}
	b := mem.AlignedUp(uint64(max(mem.PTEsPerCacheLine, 2*k)), mem.PTEsPerCacheLine)
	return min(int(b), mem.PTEsPerTable)
}

// FuzzNodeEntries applies SetEntry, ClearSlot and SetEntries steps to
// one node and checks every read against a plain 512-entry table and a
// live count. A twin node takes the same steps with each SetEntries run
// stored one SetEntry per slot, and must end with the same entries, live
// count and held slots, the same content and Stats on its PMem page, and
// the same rows and clock on its thread.
//
// The first byte picks the node: byte%3 gives a file-table node, a
// process leaf or a process PMD node (both hold all 512). Bit 0 of byte/3
// puts the device on two nodes instead of one. A file-table node is
// persistent, its entries on the device's second page (the second bank
// of a two-node device), unless bit 1 of byte/3 makes it a DRAM node that
// grows as slots are stored. Each step is three bytes b0, b1, b2; the
// slot is b1 | (b2&1)<<8. When b2>>1 is 0 the step stores one entry: bit
// 0 of b0 picks ClearSlot, the rest of it is the stored PFN (0 stores a
// zero entry). Otherwise it is a SetEntries run of b2>>1 slots, cut at the
// table's end: zero entries if bit 0 of b0 is set, else entry i has PFN
// (b0>>1 + i) % 128, a zero entry when that is 0. A persistent node holds
// no host slots, and its page must read the reference after every step.
// A DRAM file-table node holds nothing until a nonzero store; only a
// nonzero store at or past its end grows it, to at most heldBound slots,
// a whole number of cache lines; a zero store there leaves it as it is.
func FuzzNodeEntries(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var tp *topo.Topology
		if data[0]/3&1 == 1 {
			tp = topo.New(2, 1)
		}
		persistent := data[0]%3 == 0 && data[0]/3&2 == 0
		play := func(perSlot bool, check func(step, idx, held, top int, es []Entry, n *Node, dev *pmem.Device)) (*Node, *pmem.Device, *sim.Thread) {
			dev := pmem.New(pmem.Config{Size: 2 * mem.PageSize, Topo: tp})
			t.Cleanup(dev.Release)
			var n *Node
			switch {
			case persistent:
				n = NewPersistentNode(dev, mem.PageSize)
			case data[0]%3 == 0:
				n = NewFileTableNode(mem.Loc{Medium: mem.DRAM})
			case data[0]%3 == 1:
				n = NewNode(LevelPTE, mem.Loc{Medium: mem.DRAM})
			default:
				n = NewNode(LevelPMD, mem.Loc{Medium: mem.DRAM})
			}
			e := sim.New()
			th := e.Go("fuzz", 0, 0, func(th *sim.Thread) {
				var run [mem.PTEsPerTable]Entry
				for s, steps := 0, data[1:]; len(steps) >= 3; s, steps = s+1, steps[3:] {
					idx := int(steps[1]) | int(steps[2]&1)<<8
					pfn := Entry(steps[0] >> 1)
					es := run[:1]
					if k := int(steps[2] >> 1); k > 0 {
						es = run[:min(k, mem.PTEsPerTable-idx)]
					}
					top := -1 // the highest slot the step stores nonzero
					for i := range es {
						es[i] = 0
						if p := (pfn + Entry(i)) % 128; steps[0]&1 == 0 && p != 0 {
							es[i] = p<<pfnShift | BitPresent
							top = idx + i
						}
					}
					held := n.Len()
					switch {
					case steps[2]>>1 == 0 && steps[0]&1 == 1:
						n.ClearSlot(th, idx)
					case steps[2]>>1 == 0 || perSlot:
						for i, e := range es {
							n.SetEntry(th, idx+i, e)
						}
					default:
						n.SetEntries(th, idx, es)
					}
					if check != nil {
						check(s, idx, held, top, es, n, dev)
					}
				}
			})
			e.Run()
			return n, dev, th
		}

		var ref [mem.PTEsPerTable]Entry
		live := 0
		page := make([]byte, mem.PageSize)
		n, dev, th := play(false, func(step, idx, held, top int, es []Entry, n *Node, dev *pmem.Device) {
			for i, e := range es {
				switch {
				case ref[idx+i] == 0 && e != 0:
					live++
				case ref[idx+i] != 0 && e == 0:
					live--
				}
				ref[idx+i] = e
			}
			if n.Live() != live {
				t.Fatalf("step %d: Live = %d, want %d", step, n.Live(), live)
			}
			switch got := n.Len(); {
			case persistent:
				if got != 0 {
					t.Fatalf("step %d: a persistent node holds %d host slots, want 0", step, got)
				}
				dev.Load(n.BackAddr, page)
				for i := range ref {
					if w := Entry(binary.LittleEndian.Uint64(page[8*i:])); w != ref[i] {
						t.Fatalf("step %d: slot %d holds %#x on media, want %#x", step, i, w, ref[i])
					}
				}
			case top >= held:
				if got <= top || got > heldBound(top+1) || got%mem.PTEsPerCacheLine != 0 {
					t.Fatalf("step %d: storing up to slot %d grew %d slots to %d, want %d..%d whole lines", step, top, held, got, top+1, heldBound(top+1))
				}
			case got != held:
				t.Fatalf("step %d: storing at %d..%d changed the held slots from %d to %d", step, idx, idx+len(es)-1, held, got)
			}
			for i := range ref {
				if got := n.Entry(i); got != ref[i] {
					t.Fatalf("step %d: slot %d reads %#x, want %#x", step, i, got, ref[i])
				}
			}
		})
		tn, tdev, tth := play(true, nil)
		for i := range ref {
			if n.Entry(i) != tn.Entry(i) {
				t.Fatalf("slot %d: %#x after runs, %#x after single stores", i, n.Entry(i), tn.Entry(i))
			}
		}
		if n.Live() != tn.Live() || n.Len() != tn.Len() {
			t.Fatalf("runs: Live %d, Len %d; single stores: Live %d, Len %d", n.Live(), n.Len(), tn.Live(), tn.Len())
		}
		got, want := make([]byte, dev.Size()), make([]byte, dev.Size())
		dev.Load(0, got)
		tdev.Load(0, want)
		if !bytes.Equal(got, want) {
			t.Fatal("backing content differs between runs and single stores")
		}
		for node := 0; node < dev.NodeCount(); node++ {
			if *dev.NodeStats(node) != *tdev.NodeStats(node) {
				t.Fatalf("node %d stats: runs %+v, single stores %+v", node, *dev.NodeStats(node), *tdev.NodeStats(node))
			}
		}
		if dev.Stats != tdev.Stats {
			t.Fatalf("device stats: runs %+v, single stores %+v", dev.Stats, tdev.Stats)
		}
		if th.Now() != tth.Now() || !reflect.DeepEqual(th.Rows(), tth.Rows()) {
			t.Fatalf("runs: clock %d, rows %v; single stores: clock %d, rows %v", th.Now(), th.Rows(), tth.Now(), tth.Rows())
		}
	})
}
