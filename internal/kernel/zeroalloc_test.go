package kernel

import (
	"testing"

	"daxvm/internal/cpu"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/sim"
)

// TestSyscallZeroAlloc pins the syscall entry and exit at zero heap
// allocations: on a kernel with observability and spans wired, a warm
// pread books its attribution frame, span and crossings without
// allocating.
func TestSyscallZeroAlloc(t *testing.T) {
	k := bootTest(t, Config{Cores: 1, DeviceBytes: 512 << 20, Obs: obs.New(0), Spans: span.New(0)})
	p := k.NewProc()
	var allocs float64
	p.Spawn("reader", 0, 0, func(th *sim.Thread, c *cpu.Core) {
		fd, err := p.Create(th, "f")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := p.Append(th, fd, make([]byte, 8<<10)); err != nil {
			t.Errorf("Append: %v", err)
			return
		}
		buf := make([]byte, 4<<10)
		pread := func() {
			if _, err := p.ReadAt(th, fd, 0, buf); err != nil {
				t.Errorf("ReadAt: %v", err)
			}
		}
		for i := 0; i < 4; i++ {
			pread() // warm: interned paths, span class stats, node pool
		}
		allocs = testing.AllocsPerRun(200, pread)
	})
	k.Run()
	if allocs != 0 {
		t.Fatalf("pread allocates %v times per call, want 0", allocs)
	}
}
