// Package mem defines the shared low-level memory types used across the
// simulator: physical addresses, page frame numbers, page geometry,
// access permissions, and the medium (DRAM vs persistent memory) that a
// piece of state lives on.
package mem

import "fmt"

// Page geometry of the simulated x86-64 machine.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4 KiB base pages

	HugeShift = 21
	HugeSize  = 1 << HugeShift // 2 MiB huge pages (PMD level)

	GiantShift = 30
	GiantSize  = 1 << GiantShift // 1 GiB pages (PUD level)

	// PTEsPerTable is the fan-out of one page-table node on x86-64.
	PTEsPerTable = 512

	// CacheLineSize is the coherence granularity; PTE flush batching and
	// clwb accounting work at this granularity.
	CacheLineSize = 64

	// PTEsPerCacheLine is how many 8-byte PTEs share one cache line.
	PTEsPerCacheLine = CacheLineSize / 8
)

// PhysAddr is a simulated physical address. The DRAM and PMem address
// spaces are disjoint: PMem occupies [0, device size) of its own space and
// is distinguished by the Medium carried alongside, never by the raw value.
type PhysAddr uint64

// PFN is a physical page frame number (PhysAddr >> PageShift).
type PFN uint64

// Addr returns the physical address of the first byte of the frame.
func (p PFN) Addr() PhysAddr { return PhysAddr(p) << PageShift }

// VirtAddr is a simulated user virtual address.
type VirtAddr uint64

// PageDown rounds v down to a base-page boundary.
func (v VirtAddr) PageDown() VirtAddr { return v &^ (PageSize - 1) }

// HugeDown rounds v down to a 2 MiB boundary.
func (v VirtAddr) HugeDown() VirtAddr { return v &^ (HugeSize - 1) }

// Medium identifies which memory technology holds a frame. Page-walk and
// data-access costs depend on it.
type Medium uint8

const (
	// DRAM is volatile memory.
	DRAM Medium = iota
	// PMem is byte-addressable persistent memory (Optane-like).
	PMem
)

func (m Medium) String() string {
	switch m {
	case DRAM:
		return "DRAM"
	case PMem:
		return "PMem"
	default:
		return fmt.Sprintf("Medium(%d)", uint8(m))
	}
}

// NodeID identifies a NUMA node. Node 0 is the only node on a
// single-socket (flat) machine, which keeps the zero value meaningful.
type NodeID uint8

// Loc is the full identity of a piece of physical memory: which
// technology it is (Medium) and which NUMA node's DIMMs hold it. Walk
// and data-path costs depend on both — a remote-socket Optane access is
// far more expensive than a local one (Yang et al., FAST '20).
type Loc struct {
	Medium Medium
	Node   NodeID
}

func (l Loc) String() string {
	return fmt.Sprintf("%s@node%d", l.Medium, l.Node)
}

// Perm is a page/mapping permission mask.
type Perm uint8

const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// CanWrite reports whether the permission allows stores.
func (p Perm) CanWrite() bool { return p&PermWrite != 0 }

func (p Perm) String() string {
	b := [3]byte{'-', '-', '-'}
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b[:])
}

// PagesIn returns the number of base pages needed to hold n bytes.
func PagesIn(n uint64) uint64 { return (n + PageSize - 1) / PageSize }

// AlignedDown reports x rounded down to a multiple of align (a power of two).
func AlignedDown(x, align uint64) uint64 { return x &^ (align - 1) }

// AlignedUp reports x rounded up to a multiple of align (a power of two).
func AlignedUp(x, align uint64) uint64 { return (x + align - 1) &^ (align - 1) }

// IsAligned reports whether x is a multiple of align (a power of two).
func IsAligned(x, align uint64) bool { return x&(align-1) == 0 }
