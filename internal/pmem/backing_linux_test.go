package pmem

import (
	"encoding/binary"
	"runtime"
	"syscall"
	"testing"
	"unsafe"

	"daxvm/internal/mem"
	"daxvm/internal/sim"
)

// residentBytes reports how much of mapping b is resident, by mincore.
func residentBytes(t *testing.T, b []byte) uint64 {
	vec := make([]byte, (len(b)+mem.PageSize-1)/mem.PageSize)
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)), uintptr(unsafe.Pointer(unsafe.SliceData(vec))))
	if errno != 0 {
		t.Skipf("mincore: %v", errno)
	}
	var n uint64
	for _, v := range vec {
		n += uint64(v & 1)
	}
	return n * mem.PageSize
}

// TestSparseStoresStayOffTheMapping pins that record stamps, one 8-byte
// store per page, cost slab lines rather than host pages: written dense,
// 16,384 pages would take 64 MiB. A later store that makes a stamped page
// dense must carry the stamp into the mapping.
func TestSparseStoresStayOffTheMapping(t *testing.T) {
	const size, pages = 256 << 20, 16384
	d := newDevice(t, Config{Size: size})
	if !d.mapped {
		t.Skip("device memory is not a mapping")
	}
	runtime.GC()
	before := residentMB(t)
	stampAt := func(p uint64) mem.PhysAddr {
		return mem.PhysAddr(p*mem.PageSize + p%mem.PageSize/8*8)
	}
	run(func(th *sim.Thread) {
		var stamp [8]byte
		for p := uint64(0); p < pages; p++ {
			binary.LittleEndian.PutUint64(stamp[:], p+1)
			switch p % 3 {
			case 0:
				d.WriteCached(th, stampAt(p), stamp[:])
			case 1:
				d.WriteNT(th, stampAt(p), stamp[:])
			default:
				copy(d.Bytes(stampAt(p), 8), stamp[:])
			}
		}
	})
	if mb := residentBytes(t, d.data) >> 20; mb > 1 {
		t.Errorf("%d one-line pages made %d MiB of the mapping resident, want none", pages, mb)
	}
	if grew := residentMB(t) - before; grew > pages*mem.PageSize>>20/4 {
		t.Errorf("%d one-line pages raised resident memory by %d MiB", pages, grew)
	}
	run(func(th *sim.Thread) {
		// A whole-page view, and a store to a second line, each make a
		// stamped page dense.
		if got := binary.LittleEndian.Uint64(d.Bytes(stampAt(7)&^(mem.PageSize-1), mem.PageSize)[stampAt(7)%mem.PageSize:]); got != 8 {
			t.Errorf("whole-page view of page 7 reads stamp %d, want 8", got)
		}
		other := mem.PhysAddr(9*mem.PageSize + (stampAt(9)%mem.PageSize+mem.CacheLineSize)%mem.PageSize)
		d.WriteNT(th, other, []byte{0xEE})
		var got [8]byte
		d.Read(th, stampAt(9), got[:])
		if v := binary.LittleEndian.Uint64(got[:]); v != 10 {
			t.Errorf("page 9 reads stamp %d after a store to its second line, want 10", v)
		}
	})
	runtime.KeepAlive(d)
}
