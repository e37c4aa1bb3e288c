package core

import (
	"daxvm/internal/cost"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/obs/span"
	"daxvm/internal/sim"
)

// Prezeroer is DaxVM's asynchronous block pre-zeroing engine (§IV-E):
// freed blocks are parked on per-core lists instead of returning to the
// allocator; a rate-limited kernel thread zeroes them with non-temporal
// stores and only then releases them, marked zeroed. Allocation-time
// zeroing then disappears from the foreground path.
type Prezeroer struct {
	d *DaxVM

	// perCore lists of extents awaiting zeroing (free-path scalability).
	perCore [][]vfs.Extent
	locks   []sim.SpinLock

	pendingBlocks uint64

	Stats PrezeroStats
}

// labelPrezero is the pre-zeroing daemon's root frame and span class.
var labelPrezero = sim.NewLabel("daemon.prezero")

// PrezeroStats counts daemon activity.
type PrezeroStats struct {
	Intercepted uint64 // blocks taken off the free path
	Zeroed      uint64 // blocks zeroed and released
	Stalls      uint64 // times the daemon hit its bandwidth budget
	Batches     uint64 // daemon quanta that zeroed at least one block
}

// zeroQuantum is the daemon's wakeup period in cycles (200 µs).
const zeroQuantum = 200 * cost.CyclesPerUsec

// NewPrezeroer starts the daemon on the engine, pinned to coreID (the
// paper dedicates an idle core).
func NewPrezeroer(d *DaxVM, e *sim.Engine, coreID int) *Prezeroer {
	ncores := len(d.cpus.Cores)
	p := &Prezeroer{
		d:       d,
		perCore: make([][]vfs.Extent, ncores),
		locks:   make([]sim.SpinLock, ncores),
	}
	e.GoDaemon("prezerod", coreID, 0, p.run)
	return p
}

// Intercept takes freed extents onto the caller's core list.
func (p *Prezeroer) Intercept(t *sim.Thread, ext []vfs.Extent) bool {
	c := t.Core % len(p.perCore)
	p.locks[c].Lock(t, cost.SpinLockAcquire)
	p.perCore[c] = append(p.perCore[c], ext...)
	for _, e := range ext {
		p.pendingBlocks += e.Len
		p.Stats.Intercepted += e.Len
	}
	p.locks[c].Unlock(t, cost.SpinLockRelease)
	return true
}

// run is the daemon loop: every quantum, zero up to the bandwidth budget
// and release the blocks to the allocator as known-zeroed.
func (p *Prezeroer) run(t *sim.Thread) {
	t.PushAttr(labelPrezero)
	bytesPerQuantum := p.d.cfg.PrezeroBandwidthMBps << 20 * zeroQuantum / cost.CyclesPerSecond
	if bytesPerQuantum < mem.PageSize {
		bytesPerQuantum = mem.PageSize
	}
	for {
		t.Sleep(zeroQuantum)
		span.Of(t).Open(t, labelPrezero)
		zeroedBefore := p.Stats.Zeroed
		budget := bytesPerQuantum
		for c := range p.perCore {
			if budget == 0 {
				break
			}
			p.locks[c].Lock(t, cost.SpinLockAcquire)
			list := p.perCore[c]
			var done int
			for i, e := range list {
				bytes := e.Len * mem.PageSize
				if bytes > budget {
					// Split: zero what fits, keep the rest.
					fit := budget / mem.PageSize
					if fit > 0 {
						p.zeroAndRelease(t, vfs.Extent{Phys: e.Phys, Len: fit})
						list[i].Phys += fit
						list[i].Len -= fit
						budget -= fit * mem.PageSize
					}
					p.Stats.Stalls++
					break
				}
				p.zeroAndRelease(t, e)
				budget -= bytes
				done = i + 1
			}
			p.perCore[c] = list[done:]
			p.locks[c].Unlock(t, cost.SpinLockRelease)
		}
		if p.Stats.Zeroed > zeroedBefore {
			p.Stats.Batches++
		}
		span.Of(t).End(t)
	}
}

// zeroAndRelease zeroes one extent with nt-stores (consuming device write
// bandwidth, which is how the daemon interferes with foreground traffic)
// and releases it marked zeroed.
func (p *Prezeroer) zeroAndRelease(t *sim.Thread, e vfs.Extent) {
	p.d.dev.Zero(t, mem.PhysAddr(e.Phys*mem.PageSize), e.Len*mem.PageSize)
	p.d.releaser.ReleaseZeroed(t, []vfs.Extent{e})
	p.pendingBlocks -= e.Len
	p.Stats.Zeroed += e.Len
	p.d.Stats.PrezeroedMB += e.Len * mem.PageSize >> 20
}

// Drain synchronously zeroes everything pending (experiment setup:
// "pre-zero in advance of running the workload").
func (p *Prezeroer) Drain(t *sim.Thread) {
	for c := range p.perCore {
		p.locks[c].Lock(t, cost.SpinLockAcquire)
		list := p.perCore[c]
		p.perCore[c] = nil
		p.locks[c].Unlock(t, cost.SpinLockRelease)
		for _, e := range list {
			p.zeroAndRelease(t, e)
		}
	}
}

// PendingBlocks reports blocks awaiting zeroing.
func (p *Prezeroer) PendingBlocks() uint64 { return p.pendingBlocks }
