// Package cpu models the cores of the simulated machine: the translation
// front-end (TLB, page walker with medium-dependent costs, accessed/dirty
// bit maintenance), data-access cost helpers, and the inter-processor
// interrupt machinery used for TLB shootdowns.
package cpu

import (
	"daxvm/internal/cost"
	"daxvm/internal/mem"
	"daxvm/internal/obs"
	"daxvm/internal/pt"
	"daxvm/internal/sim"
	"daxvm/internal/tlb"
	"daxvm/internal/topo"
)

// pteLineCacheSize is how many distinct PTE cache lines a core keeps warm;
// it discriminates sequential from random access, reproducing Table II.
const pteLineCacheSize = 192

// pteLineSetBits sizes the open-addressed set that finds warm lines: 512
// slots, so the 192 lines it holds keep probe runs short.
const pteLineSetBits = 9

// Set is the machine's collection of cores.
type Set struct {
	Cores []*Core

	// Topo is the machine's NUMA layout (nil = flat single-node).
	Topo *topo.Topology

	// In-flight IPI window: ipiInflight remote IPIs have acknowledgement
	// deadlines no earlier than ipiInflightUntil. Overlapping shootdowns
	// accumulate; once virtual time passes the deadline the window is
	// empty. Scalar on purpose — tracking exact per-IPI deadlines would
	// allocate on the shootdown hot path for a gauge that only needs the
	// saturation envelope.
	ipiInflight      uint64
	ipiInflightUntil uint64
}

// NewSet creates n cores on a flat single-node machine.
func NewSet(n int) *Set {
	s := &Set{Cores: make([]*Core, n)}
	for i := range s.Cores {
		s.Cores[i] = &Core{ID: i, TLB: tlb.New()}
	}
	return s
}

// SetTopology assigns each core its home NUMA node. Walk and shootdown
// costs become distance-sensitive once the topology spans >1 node.
func (s *Set) SetTopology(tp *topo.Topology) {
	s.Topo = tp
	for _, c := range s.Cores {
		c.Node = tp.NodeOfCore(c.ID)
		c.multiNode = tp.Multi()
	}
}

// Core is one hardware thread.
type Core struct {
	ID  int
	TLB *tlb.TLB

	// Node is the core's home NUMA node; multiNode is true when the
	// machine spans more than one (so remote surcharges can apply).
	Node      mem.NodeID
	multiNode bool

	// bound is the sim thread currently executing on this core (IPI
	// targets are charged through it).
	bound *sim.Thread

	// PTE-line reuse cache for the walk cost model: a FIFO ring of the
	// warm lines and a linear-probed set over the same lines (empty slot
	// = nil node, backward-shift deletion). Both are fixed arrays so the
	// per-walk touch path never allocates.
	pteLines [1 << pteLineSetBits]lineKey
	pteRing  [pteLineCacheSize]lineKey
	pteHead  int // oldest entry when pteCount == pteLineCacheSize
	pteCount int

	// WalkHist, when set, records the latency of every charged page
	// walk (registered as the cpu.walk_latency histogram).
	WalkHist *obs.Histogram

	Stats CoreStats
}

// CoreStats aggregates per-core MMU behaviour (the DaxVM performance
// monitor reads these).
type CoreStats struct {
	WalkCycles     uint64
	Walks          uint64
	PMemWalks      uint64
	Faults         uint64
	IPIsSent       uint64
	IPIsReceived   uint64
	ShootdownWait  uint64
	DataReadBytes  uint64
	DataWriteBytes uint64
}

type lineKey struct {
	node *pt.Node
	line int
}

// Bind associates a sim thread with the core (the thread "runs on" it).
func (c *Core) Bind(t *sim.Thread) { c.bound = t }

// Unbind clears the association.
func (c *Core) Unbind() { c.bound = nil }

// Bound returns the running thread, if any.
func (c *Core) Bound() *sim.Thread { return c.bound }

// TranslateResult describes the outcome of a translation attempt.
type TranslateResult uint8

const (
	// TransOK: translation present with sufficient permission.
	TransOK TranslateResult = iota
	// TransNotPresent: no valid leaf entry — demand fault.
	TransNotPresent
	// TransNoWrite: present but write attempted on read-only mapping —
	// permission (dirty-tracking) fault.
	TransNoWrite
)

// Translate performs the hardware part of an access to va: TLB lookup,
// page walk on miss (charging medium-dependent cycles), A/D bit updates
// and TLB fill. The fault paths are the caller's (mm's) job. Each walk
// descends the page table once.
func (c *Core) Translate(t *sim.Thread, as *pt.AddressSpace, va mem.VirtAddr, write bool) (pt.Entry, TranslateResult) {
	if e, ok := c.TLB.Lookup(va); ok {
		if write && !e.Writable {
			return e.PTE, TransNoWrite
		}
		if write && !e.PTE.Dirty() {
			// Hardware re-walks to set the dirty bit; approximate with
			// a short walk charge and update the cached entry.
			leaf := as.Resolve(va)
			c.chargeWalk(t, leaf)
			e.PTE |= pt.BitDirty
			c.setLeafBits(t, leaf, true)
		}
		return e.PTE, TransOK
	}

	leaf := as.Resolve(va)
	c.chargeWalk(t, leaf)
	if leaf.Node == nil {
		return 0, TransNotPresent
	}
	if write && !leaf.Writable {
		return leaf.Entry, TransNoWrite
	}
	c.setLeafBits(t, leaf, write)
	entry := leaf.Entry
	if write {
		entry |= pt.BitDirty
	}
	if leaf.Node.NoAD {
		// DaxVM file tables drop A/D maintenance entirely: the hardware
		// never needs the dirty-bit assist walk on these mappings, so
		// cache the translation as already-dirty.
		entry |= pt.BitDirty | pt.BitAccessed
	}
	c.TLB.Insert(va, entry, leaf.Writable, leaf.Level == pt.LevelPMD)
	return entry, TransOK
}

// Walk attribution labels, minted once so the per-walk charge path
// compares label ids.
var (
	walkAborted        = sim.NewLabel("walk.aborted")
	walkHugeLabel      = sim.NewLabel("walk.huge")
	walkPTECachedDRAM  = sim.NewLabel("walk.pte_cached_dram")
	walkPTECachedPMem  = sim.NewLabel("walk.pte_cached_pmem")
	walkPTEMissDRAM    = sim.NewLabel("walk.pte_miss_dram")
	walkPTEMissDRAMRem = sim.NewLabel("walk.pte_miss_dram_remote")
	walkPTEMissPMem    = sim.NewLabel("walk.pte_miss_pmem")
	walkPTEMissPMemRem = sim.NewLabel("walk.pte_miss_pmem_remote")
)

// Shootdown attribution labels. "ipi_send" and "ipi_wait" double as the
// span layer's ipi wait kind.
var (
	labelShootdown  = sim.NewLabel("shootdown")
	labelInval      = sim.NewLabel("inval")
	labelIPISend    = sim.NewLabel("ipi_send")
	labelIPIWait    = sim.NewLabel("ipi_wait")
	labelIPIHandler = sim.NewLabel("shootdown.ipi_handler")
)

// chargeWalk books one walk ending at leaf: the cycles go to the cycle
// account under "walk.<kind>" (nested below whatever path triggered the
// translation), the per-core stats, and the walk-latency histogram.
func (c *Core) chargeWalk(t *sim.Thread, leaf pt.Leaf) {
	cycles, label := c.walkCost(leaf)
	t.ChargeAs(label, cycles)
	c.Stats.WalkCycles += cycles
	c.Stats.Walks++
	c.WalkHist.Observe(cycles)
}

// walkCost computes the cycle cost of a walk ending at leaf, using the
// leaf node's medium and the PTE-line reuse cache, and names the walk
// kind for cycle attribution.
func (c *Core) walkCost(leaf pt.Leaf) (uint64, sim.Label) {
	if leaf.Node == nil {
		// Aborted walk; upper levels only.
		return cost.WalkUpperLevels + cost.WalkPTECachedDRAM, walkAborted
	}
	if leaf.Level >= pt.LevelPMD {
		return cost.WalkHuge, walkHugeLabel
	}
	node := leaf.Node
	hot := c.touchPTELine(node, leaf.Index/mem.PTEsPerCacheLine)
	// The leaf fetch reaches across the interconnect when the table node
	// lives on another socket's DIMMs; the cached cases stay cheap (the
	// line is already in this core's cache hierarchy).
	remote := c.multiNode && node.Loc.Node != c.Node
	if node.Loc.Medium == mem.PMem {
		c.Stats.PMemWalks++
		if hot {
			return cost.WalkUpperLevels + cost.WalkPTECachedPMem, walkPTECachedPMem
		}
		if remote {
			return cost.WalkUpperLevels + cost.WalkPTEMissPMem + cost.RemotePMemWalkExtra, walkPTEMissPMemRem
		}
		return cost.WalkUpperLevels + cost.WalkPTEMissPMem, walkPTEMissPMem
	}
	if hot {
		return cost.WalkUpperLevels + cost.WalkPTECachedDRAM, walkPTECachedDRAM
	}
	if remote {
		return cost.WalkUpperLevels + cost.WalkPTEMissDRAM + cost.RemoteDRAMWalkExtra, walkPTEMissDRAMRem
	}
	return cost.WalkUpperLevels + cost.WalkPTEMissDRAM, walkPTEMissDRAM
}

// touchPTELine records a PTE cache-line touch, reporting whether it was
// already warm.
func (c *Core) touchPTELine(node *pt.Node, line int) bool {
	k := lineKey{node, line}
	i, warm := c.findLine(k)
	if warm {
		return true
	}
	if c.pteCount == pteLineCacheSize {
		c.dropLine(c.pteRing[c.pteHead])
		c.pteRing[c.pteHead] = k
		c.pteHead = (c.pteHead + 1) % pteLineCacheSize
		i, _ = c.findLine(k) // the deletion may have shortened k's probe run
	} else {
		c.pteRing[(c.pteHead+c.pteCount)%pteLineCacheSize] = k
		c.pteCount++
	}
	c.pteLines[i] = k
	return false
}

// findLine returns k's slot in the PTE-line set, or the empty slot where
// its probe run ends.
func (c *Core) findLine(k lineKey) (int, bool) {
	for i := lineHome(k); ; i = (i + 1) & (len(c.pteLines) - 1) {
		switch c.pteLines[i] {
		case k:
			return i, true
		case lineKey{}:
			return i, false
		}
	}
}

// lineHome is k's preferred slot in the PTE-line set.
func lineHome(k lineKey) int {
	h := (k.node.Serial()<<6 | uint64(k.line)) * 0x9E3779B97F4A7C15
	return int(h >> (64 - pteLineSetBits))
}

// dropLine deletes k, which must be present, from the PTE-line set.
func (c *Core) dropLine(k lineKey) {
	const mask = len(c.pteLines) - 1
	i, _ := c.findLine(k)
	// Backward-shift deletion: pull later slots of the probe run into
	// the hole unless their home lies cyclically in (hole, j].
	for j := (i + 1) & mask; c.pteLines[j].node != nil; j = (j + 1) & mask {
		if h := lineHome(c.pteLines[j]); (j-h)&mask >= (j-i)&mask {
			c.pteLines[i] = c.pteLines[j]
			i = j
		}
	}
	c.pteLines[i] = lineKey{}
}

// DropPTELines invalidates the PTE-line reuse cache (after table
// migration or teardown the old lines are dead).
func (c *Core) DropPTELines() {
	clear(c.pteLines[:])
	clear(c.pteRing[:])
	c.pteHead, c.pteCount = 0, 0
}

// setLeafBits sets accessed (and dirty on write) bits on the leaf entry
// unless the owning node opts out (DaxVM file tables drop A/D upkeep).
func (c *Core) setLeafBits(t *sim.Thread, leaf pt.Leaf, write bool) {
	n := leaf.Node
	if n == nil || n.NoAD {
		return
	}
	e := n.Entry(leaf.Index)
	ne := e | pt.BitAccessed
	if write {
		ne |= pt.BitDirty
	}
	if ne != e {
		n.SetEntry(t, leaf.Index, ne)
	}
}

// --- shootdowns -------------------------------------------------------------

// ShootdownKind selects the invalidation applied on targets.
type ShootdownKind uint8

const (
	// ShootPages invalidates an explicit page list.
	ShootPages ShootdownKind = iota
	// ShootRange invalidates a VA range.
	ShootRange
	// ShootFull flushes the whole TLB.
	ShootFull
)

// Shootdown performs a TLB shootdown from the calling thread's core to the
// target cores: the initiator also invalidates locally, sends IPIs, and
// waits for all acknowledgements; each running target is charged the
// handler cost. This is the inherently non-scalable operation that
// DaxVM's asynchronous batched unmapping amortizes.
func (s *Set) Shootdown(t *sim.Thread, initiator *Core, targets []*Core, kind ShootdownKind, pages []mem.VirtAddr, start, end mem.VirtAddr) {
	t.Yield() // synchronization point: remote clocks are examined
	t.Enter(labelShootdown)
	defer t.Leave()
	// Local invalidation.
	applyInval(initiator.TLB, kind, pages, start, end)
	switch kind {
	case ShootPages:
		t.ChargeAs(labelInval, cost.TLBInvlpgLocal*uint64(len(pages)))
	case ShootRange:
		t.ChargeAs(labelInval, cost.TLBInvlpgLocal*uint64((end-start)/mem.PageSize))
	case ShootFull:
		t.ChargeAs(labelInval, cost.TLBFlushLocal)
	}
	if len(targets) == 0 {
		return
	}
	initiator.Stats.IPIsSent++
	t.ChargeAs(labelIPISend, cost.IPIBase+cost.IPIPerTarget*uint64(len(targets)))
	if initiator.multiNode {
		// Cross-socket IPIs pay the interconnect round trip per
		// other-node target (delivery + acknowledgement cross UPI).
		crossSocket := uint64(0)
		for _, tc := range targets {
			if tc != initiator && tc.Node != initiator.Node {
				crossSocket++
			}
		}
		if crossSocket > 0 {
			t.ChargeAs(labelIPISend, cost.IPICrossSocketPerTarget*crossSocket)
		}
	}
	remote := 0
	for _, tc := range targets {
		if tc == initiator {
			continue
		}
		applyInval(tc.TLB, kind, pages, start, end)
		tc.Stats.IPIsReceived++
		remote++
		if b := tc.bound; b != nil {
			// The target handles the interrupt wherever it is in its
			// own timeline; charge the handler there. The initiator's
			// wait is modeled by the fixed acknowledgement latency
			// below — NOT by the target's (possibly far-ahead) clock,
			// which in the DES only reflects locally-buffered progress.
			b.AddRemote(labelIPIHandler, cost.IPITargetHandler)
		}
	}
	if remote > 0 {
		if t.Now() >= s.ipiInflightUntil {
			s.ipiInflight = uint64(remote)
		} else {
			s.ipiInflight += uint64(remote)
		}
		s.ipiInflightUntil = t.Now() + cost.IPIAckLatency
		initiator.Stats.ShootdownWait += cost.IPIAckLatency
		t.ChargeAs(labelIPIWait, cost.IPIAckLatency)
	}
}

// InflightIPIs reports how many remote shootdown IPIs are still awaiting
// acknowledgement at virtual time now — the IPI saturation gauge. The
// window is an envelope: overlapping shootdowns accumulate until the
// latest acknowledgement deadline passes, then the count drops to zero.
// Pure read for gauge sampling.
func (s *Set) InflightIPIs(now uint64) uint64 {
	if now >= s.ipiInflightUntil {
		return 0
	}
	return s.ipiInflight
}

func applyInval(tb *tlb.TLB, kind ShootdownKind, pages []mem.VirtAddr, start, end mem.VirtAddr) {
	switch kind {
	case ShootPages:
		for _, p := range pages {
			tb.InvalidatePage(p)
		}
	case ShootRange:
		tb.InvalidateRange(start, end)
	case ShootFull:
		tb.FlushAll()
	}
}
