//go:build unix

package pmem

import "syscall"

// newBacking returns size zeroed bytes of anonymous memory mapped outside
// the Go heap, unmapped by owner's Release. The heap would hand a new
// device the arena a freed one left behind, and the runtime zeroes reused
// arenas eagerly, touching every page: a second multi-GiB device in one
// process would then cost its full size in resident memory. A fresh
// mapping costs only the frames the simulation takes (see Device.data).
func newBacking(owner *Device, size uint64) []byte {
	b, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		// The heap still works, only without the sparseness.
		return make([]byte, size)
	}
	owner.mapped = true
	return b
}

// releaseBacking unmaps a mapped backing and drops the slice; a heap
// fallback is left to the collector.
func (d *Device) releaseBacking() {
	if d.mapped {
		// Munmap fails only on a range that is not this mapping, and
		// Release has no caller to report to.
		_ = syscall.Munmap(d.data)
		d.mapped = false
	}
	d.data = nil
}
