//go:build !unix

package pmem

// newBacking returns size zeroed bytes from the Go heap.
func newBacking(_ *Device, size uint64) []byte { return make([]byte, size) }

// releaseBacking drops the slice for the collector.
func (d *Device) releaseBacking() { d.data = nil }
