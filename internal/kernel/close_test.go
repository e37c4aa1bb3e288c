package kernel

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"daxvm/internal/cpu"
	"daxvm/internal/obs"
	"daxvm/internal/obs/timeline"
	"daxvm/internal/sim"
)

// residentMB reads this process's resident set size from /proc.
func residentMB(t *testing.T) int {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatal(err)
			}
			return kb / 1024
		}
	}
	t.Skip("no VmRSS line")
	return 0
}

// TestCloseRemovesReaders pins that a closed kernel leaves nothing in a
// shared hub: the registry lists none of its counters, every gauge name
// it registered is free for the next kernel, and closing again changes
// nothing. The kernel's own Stats stay readable.
func TestCloseRemovesReaders(t *testing.T) {
	for _, cfg := range []Config{
		{Cores: 2, DeviceBytes: 512 << 20, DaxVM: true, Prezero: true, Monitor: true},
		{Cores: 4, Nodes: 2, DeviceBytes: 512 << 20, FS: Nova, DaxVM: true},
	} {
		o := obs.New(0)
		tl := timeline.New(o.Reg, o.Cycles, timeline.Config{})
		cfg.Obs, cfg.Timeline = o, tl
		k := Boot(cfg)
		runObsWorkload(t, k)
		if len(k.counters) == 0 || len(k.gauges) == 0 {
			t.Fatalf("kernel registered %d counters and %d gauges", len(k.counters), len(k.gauges))
		}
		if n := len(o.Reg.Names()); n != len(k.counters) {
			t.Fatalf("registry lists %d counters, the kernel registered %d", n, len(k.counters))
		}
		mmaps := k.procs[0].MM.Stats.Mmaps
		k.Close()
		k.Close()
		if n := o.Reg.Names(); len(n) != 0 {
			t.Errorf("after Close the registry still lists %v", n)
		}
		for _, name := range k.gauges {
			tl.Gauge(name, func(uint64) uint64 { return 0 })
		}
		if got := k.procs[0].MM.Stats.Mmaps; got != mmaps || got == 0 {
			t.Errorf("mm Stats after Close read %d mmaps, want %d", got, mmaps)
		}
	}
}

// TestSequentialBootsStayBounded boots kernels one after another in one
// process, each writing a file, and closes each: resident memory must
// not grow with the number of machines. The test never calls runtime.GC,
// so no collection can return a device's frames; only Close does.
func TestSequentialBootsStayBounded(t *testing.T) {
	const boots, fileBytes = 20, 8 << 20
	o := obs.New(0)
	tl := timeline.New(o.Reg, o.Cycles, timeline.Config{})
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = byte(i) | 1
	}
	var base int
	for i := 0; i < boots; i++ {
		k := Boot(Config{Cores: 1, DeviceBytes: 256 << 20, DaxVM: i%2 == 1, Obs: o, Timeline: tl})
		p := k.NewProc()
		p.Spawn("writer", 0, 0, func(th *sim.Thread, c *cpu.Core) {
			fd, err := p.Create(th, "f")
			if err != nil {
				t.Errorf("Create: %v", err)
				return
			}
			for n := 0; n < fileBytes; n += len(chunk) {
				if err := p.Append(th, fd, chunk); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		})
		k.Run()
		if got := k.Dev.Stats.BytesWritten; got < fileBytes {
			t.Fatalf("boot %d wrote %d device bytes, want at least %d", i, got, fileBytes)
		}
		k.Close()
		if i == 1 {
			base = residentMB(t)
		}
	}
	// Left open, the 18 machines after the baseline would hold 144 MiB of
	// written device frames.
	if grew := residentMB(t) - base; grew > 4*fileBytes>>20 {
		t.Fatalf("%d closed machines raised resident memory by %d MiB after the second", boots, grew)
	}
}
