package core

import (
	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/mem"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/pt"
	"daxvm/internal/sim"
)

// Monitor is DaxVM's MMU performance monitor (paper Table III): it samples
// hardware performance counters and, when the average page-walk latency
// exceeds 200 cycles while walks consume more than 5% of execution time,
// migrates the process's PMem-resident file tables to DRAM.
type Monitor struct {
	p     *Proc
	cores []*cpu.Core

	lastWalkCycles []uint64
	lastWalks      []uint64
	lastClock      []uint64

	Stats MonitorStats
}

// Monitor attribution labels and span class.
var (
	labelMonitor     = sim.NewLabel("daemon.monitor")
	labelSample      = sim.NewLabel("sample")
	labelMigrate     = sim.NewLabel("migrate")
	labelMigrateSpan = sim.NewLabel("daemon.monitor.migrate")
	labelTableCopy   = sim.NewLabel("table_copy")
	labelReattach    = sim.NewLabel("reattach")
)

// MonitorStats records monitor decisions.
type MonitorStats struct {
	Samples       uint64
	Triggers      uint64
	AvgWalkSample uint64 // last sampled average walk latency
}

// monitorQuantum is the sampling period (1 ms).
const monitorQuantum = 1000 * cost.CyclesPerUsec

// NewMonitor starts the monitor daemon for a process.
func NewMonitor(p *Proc, e *sim.Engine, coreID int) *Monitor {
	cores := p.MM.Cores()
	m := &Monitor{
		p:              p,
		cores:          cores,
		lastWalkCycles: make([]uint64, len(cores)),
		lastWalks:      make([]uint64, len(cores)),
		lastClock:      make([]uint64, len(cores)),
	}
	e.GoDaemon("daxvm-mon", coreID, 0, m.run)
	return m
}

func (m *Monitor) run(t *sim.Thread) {
	t.PushAttr(labelMonitor)
	for {
		t.Sleep(monitorQuantum)
		t.ChargeAs(labelSample, cost.PerfCounterRead*uint64(len(m.cores)))
		m.Stats.Samples++
		var dWalkCycles, dWalks, dBusy uint64
		for i, c := range m.cores {
			dWalkCycles += c.Stats.WalkCycles - m.lastWalkCycles[i]
			dWalks += c.Stats.Walks - m.lastWalks[i]
			m.lastWalkCycles[i] = c.Stats.WalkCycles
			m.lastWalks[i] = c.Stats.Walks
			if b := c.Bound(); b != nil {
				now := b.Now()
				if now > m.lastClock[i] {
					dBusy += now - m.lastClock[i]
					m.lastClock[i] = now
				}
			}
		}
		if dWalks == 0 || dBusy == 0 {
			continue
		}
		avgWalk := dWalkCycles / dWalks
		m.Stats.AvgWalkSample = avgWalk
		overheadPct := dWalkCycles * 100 / dBusy
		if avgWalk > cost.MonitorWalkCycleThreshold && overheadPct > cost.MonitorMMUOverheadPct {
			m.migrate(t)
		}
	}
}

// migrate builds DRAM shadows of the PMem table nodes attached in the
// process and re-splices the attachments (paper §IV-A1: "builds
// asynchronously volatile tables and walks the process tables to detach
// the persistent fragments and attach the new volatile").
func (m *Monitor) migrate(t *sim.Thread) {
	t.PushAttr(labelMigrate)
	defer t.PopAttr()
	p := m.p
	d := p.d
	span.Of(t).Open(t, labelMigrateSpan)
	defer span.Of(t).End(t)
	migratedAny := false
	p.MM.Sem.Lock(t, cost.SemAcquireFast)
	for _, ino := range obs.SortedKeys(d.tables) {
		ft := d.tables[ino]
		if !ft.Migrated && ft.shadowNodes(t) {
			migratedAny = true
			m.reattach(t, ft)
		}
	}
	p.MM.Sem.Unlock(t, cost.SemReleaseFast)
	if migratedAny {
		m.Stats.Triggers++
		d.Stats.Migrations++
		// Stale translations and PTE-line state die with one flush.
		if core := p.MM.AnyCore(); core != nil {
			d.cpus.Shootdown(t, core, p.MM.Cores(), cpu.ShootFull, nil, 0, 0)
		}
		for _, c := range p.MM.Cores() {
			c.DropPTELines()
		}
	}
}

// shadowNodes gives each PMem node of a persistent table a DRAM shadow
// and marks the table migrated if it had any. A table migrates once:
// chunks it grows later keep their PMem node alone.
func (ft *FileTable) shadowNodes(t *sim.Thread) bool {
	for ci := range ft.chunks {
		c := &ft.chunks[ci]
		if c.node == nil {
			continue
		}
		// Copy cost: streaming read of one PMem page + DRAM stores.
		t.ChargeAs(labelTableCopy, cost.CopyFromPMemPerPage)
		c.shadow = ft.d.copyTableNode(t, c.node, mem.DRAM)
		ft.Migrated = true
	}
	return ft.Migrated
}

// reattach walks the process's DaxVM VMAs of this table and swaps the
// attachment pointers to the DRAM shadows.
func (m *Monitor) reattach(t *sim.Thread, ft *FileTable) {
	p := m.p
	for _, v := range p.vmasOf(ft.Ino) {
		cs := ft.chunksUnder(v)
		for i := range cs {
			c := &cs[i]
			if c.shadow == nil {
				continue
			}
			va := v.Start + mem.VirtAddr(uint64(i)*mem.HugeSize)
			if old := p.MM.AS.Detach(t, va, pt.LevelPMD); old != nil {
				p.MM.AS.Attach(t, va, pt.LevelPMD, c.attached(), attachPerm(v))
				t.ChargeAs(labelReattach, cost.AttachEntry*2)
			}
		}
	}
}
