package kernel

import (
	"fmt"
	"testing"

	"daxvm/internal/cpu"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/sim"
)

// TestBootMatrix boots the cross-product of machine configurations and
// runs a trivial create/append/read/mmap workload on each. It guards the
// wiring no single-feature test exercises: every feature flag must
// compose with every other (and with both topologies) without panicking
// or corrupting the trivial workload's results.
func TestBootMatrix(t *testing.T) {
	for _, fs := range []FSKind{Ext4, Nova} {
		for _, daxvm := range []bool{false, true} {
			for _, prezero := range []bool{false, true} {
				if prezero && !daxvm {
					continue // prezero requires DaxVM
				}
				for _, monitor := range []bool{false, true} {
					for _, hugeOff := range []bool{false, true} {
						for _, nodes := range []int{1, 2} {
							name := fmt.Sprintf("%s/daxvm=%v/prezero=%v/monitor=%v/hugeoff=%v/nodes=%d",
								fs, daxvm, prezero, monitor, hugeOff, nodes)
							cfg := Config{
								Cores:        4,
								Nodes:        nodes,
								DeviceBytes:  256 << 20,
								DRAMBytes:    256 << 20,
								FS:           fs,
								DaxVM:        daxvm,
								Prezero:      prezero,
								Monitor:      monitor,
								HugePagesOff: hugeOff,
							}
							if nodes > 1 {
								cfg.Placement = "interleave"
								cfg.MountPlacement = "interleave"
							}
							t.Run(name, func(t *testing.T) {
								bootMatrixWorkload(t, cfg)
							})
						}
					}
				}
			}
		}
	}
}

// bootMatrixWorkload runs the trivial workload: write a file through the
// syscall path, read it back, then touch it through a mapping.
func bootMatrixWorkload(t *testing.T, cfg Config) {
	k := bootTest(t, cfg)
	p := k.NewProc()
	const size = 128 << 10
	p.Spawn("matrix", 0, 0, func(th *sim.Thread, c *cpu.Core) {
		fd, err := p.Create(th, "/matrix")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := p.Append(th, fd, make([]byte, size)); err != nil {
			t.Errorf("append: %v", err)
			return
		}
		buf := make([]byte, size)
		if n, err := p.ReadAt(th, fd, 0, buf); err != nil || n != size {
			t.Errorf("read: n=%d err=%v", n, err)
			return
		}
		va, err := p.Mmap(th, c, fd, 0, size, mem.PermRead|mem.PermWrite, mm.MapShared|mm.MapSync)
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		if err := p.AccessMapped(th, c, va, size, KindSum); err != nil {
			t.Errorf("access: %v", err)
			return
		}
		if err := p.Munmap(th, c, va, size); err != nil {
			t.Errorf("munmap: %v", err)
			return
		}
		if err := p.Close(th, fd); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if cycles := k.Run(); cycles == 0 {
		t.Error("workload charged no cycles")
	}
	if k.Topo.Multi() != (cfg.Nodes > 1) {
		t.Errorf("topology: Multi()=%v with %d nodes", k.Topo.Multi(), cfg.Nodes)
	}
}
