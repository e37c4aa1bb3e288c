package kernel

import (
	"runtime"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
)

// liveHeap reports the bytes the heap holds after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBootedKernelFootprint bounds the heap a booted, fully observed
// kernel holds before it runs anything. A 16-core machine on a 1 GiB
// device needs about 4.3 MiB: the 2 MiB trace ring at DefaultTraceCap
// (32-byte records), 1.1 MiB of TLBs, 1 MiB of per-page device state and
// small change. A fixed buffer sized for capacity rather than use, such
// as an inode-cache map pre-sized for 65,536 entries (2.25 MiB) or a ring
// of 64-byte events (4 MiB), breaks the bound.
func TestBootedKernelFootprint(t *testing.T) {
	const bound = 6 << 20
	before := liveHeap()
	o := obs.New(0)
	k := bootTest(t, Config{
		Cores:       16,
		DeviceBytes: 1 << 30,
		Obs:         o,
		Spans:       span.New(3),
		Timeline:    timeline.New(o.Reg, o.Cycles, timeline.Config{Tracer: o.Trace}),
	})
	after := liveHeap()
	runtime.KeepAlive(k)
	held := int64(after) - int64(before)
	t.Logf("booted kernel holds %d KiB", held>>10)
	if held > bound {
		t.Fatalf("booted kernel holds %d KiB of heap, bound %d KiB", held>>10, bound>>10)
	}
}
