package mm

import (
	"testing"

	"daxvm/internal/mem"
	"daxvm/internal/pt"
	"daxvm/internal/sim"
)

// TestPageFaultZeroAlloc pins the fault paths' heap allocations: a minor
// fault and a write-protect fault into an existing PTE node allocate
// nothing once warm, and a fault that needs a new leaf node allocates
// exactly that node.
func TestPageFaultZeroAlloc(t *testing.T) {
	ev := newEnv(t, 64, 1)
	ev.mm.HugePagesEnabled = false // 4 KiB faults only
	const size = 4 << 20
	allocs := map[string]float64{}
	run(func(th *sim.Thread) {
		in := ev.mkFile(th, "f", size)
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, err := ev.mm.Mmap(th, core, in, 0, size, mem.PermRead|mem.PermWrite, MapShared)
		if err != nil {
			t.Fatalf("Mmap: %v", err)
		}
		fault := func(at mem.VirtAddr, write bool) {
			if err := ev.mm.PageFault(th, core, at, write); err != nil {
				t.Fatalf("PageFault: %v", err)
			}
		}
		fault(va, false) // builds va's path down to its PTE node
		leaf, idx := ev.mm.AS.LeafNode(va)

		// Each run unmaps the page (its PTE node stays) and faults it
		// back in.
		allocs["minor"] = testing.AllocsPerRun(200, func() {
			leaf.SetEntry(th, idx, 0)
			fault(va, false)
		})
		// Each run write-protects the page again and takes the WP fault
		// that upgrades it; after the first, the dirty set's bitset
		// already covers the page.
		allocs["wp"] = testing.AllocsPerRun(200, func() {
			leaf.SetEntry(th, idx, leaf.Entry(idx)&^pt.BitWrite)
			if err := ev.mm.WPFault(th, core, va); err != nil {
				t.Fatalf("WPFault: %v", err)
			}
		})
		if !leaf.Entry(idx).Writable() || ev.mm.Stats.WPFaults == 0 {
			t.Fatal("WP faults did not upgrade the page")
		}

		// A page in the next 2 MiB region needs its own PTE node under
		// the PMD node va keeps alive; each run faults it in and
		// unmaps it, which frees that node again.
		far := (va + mem.HugeSize).HugeDown()
		allocs["new-leaf"] = testing.AllocsPerRun(200, func() {
			fault(far, false)
			if n, _ := ev.mm.AS.LeafNode(far); n == leaf || n.Level != pt.LevelPTE {
				t.Fatal("fault did not build a new PTE node")
			}
			ev.mm.AS.ClearRange(th, far, far+mem.PageSize)
		})
	})
	for name, want := range map[string]float64{"minor": 0, "wp": 0, "new-leaf": 1} {
		if allocs[name] != want {
			t.Errorf("%s fault allocates %v times per fault, want %v", name, allocs[name], want)
		}
	}
}
