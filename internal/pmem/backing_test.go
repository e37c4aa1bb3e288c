package pmem

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"daxvm/internal/mem"
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

// TestDeviceBackingStaysSparse pins that a device made after an earlier
// one was released costs only the pages written, not its size: the Go
// heap would hand it the released device's arena and zero all of it.
func TestDeviceBackingStaysSparse(t *testing.T) {
	const size = 256 << 20
	first := newDevice(t, Config{Size: size})
	first.Bytes(0, 1)[0] = 1
	first.Release()
	runtime.GC()
	before := residentMB(t)
	d := newDevice(t, Config{Size: size})
	d.Bytes(0, 1)[0] = 1
	if grew := residentMB(t) - before; grew > size>>20/4 {
		t.Fatalf("a new %d MiB device raised resident memory by %d MiB", size>>20, grew)
	}
	runtime.KeepAlive(d)
}

// TestZeroLeavesUnwrittenPagesUntouched pins that zeroing a range nothing
// wrote (fallocate on a fresh device, the pre-zero daemon on never-used
// blocks) charges its cost without faulting in host memory.
func TestZeroLeavesUnwrittenPagesUntouched(t *testing.T) {
	const size = 256 << 20
	d := newDevice(t, Config{Size: size})
	runtime.GC()
	before := residentMB(t)
	run(func(th *sim.Thread) { d.Zero(th, 0, size) })
	if grew := residentMB(t) - before; grew > size>>20/4 {
		t.Fatalf("zeroing a fresh %d MiB device raised resident memory by %d MiB", size>>20, grew)
	}
	if d.Stats.BytesZeroed != size {
		t.Fatalf("BytesZeroed = %d, want %d: the charge covers the whole range", d.Stats.BytesZeroed, size)
	}
	runtime.KeepAlive(d)
}

// TestReleaseReturnsMemoryAtOnce pins that Release gives a device's
// written pages back at once (there is no finalizer to wait for: Release
// is the only way they go back), and that the released device refuses
// further access. It
// writes whole pages: a smaller store would sit in a slab line and leave
// the mapping untouched.
func TestReleaseReturnsMemoryAtOnce(t *testing.T) {
	const size, written = 256 << 20, 64 << 20
	d := newDevice(t, Config{Size: size})
	for off := mem.PhysAddr(0); off < written; off += mem.PageSize {
		page := d.Bytes(off, mem.PageSize)
		for i := range page {
			page[i] = byte(i) | 1
		}
	}
	before := residentMB(t)
	d.Release()
	if freed := before - residentMB(t); freed < written>>20*3/4 {
		t.Fatalf("Release of %d MiB written freed %d MiB", written>>20, freed)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes on a released device did not panic")
		}
	}()
	d.Bytes(0, 1)
}
