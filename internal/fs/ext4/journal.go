package ext4

import (
	"daxvm/internal/cost"
	"daxvm/internal/mem"
	"daxvm/internal/obs/span"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

// Journal models jbd2: metadata updates join a running transaction;
// commits write the log to media and fence. There is one journal per file
// system, so concurrent committers serialize — the contention behind the
// aged-image MAP_SYNC collapse in Fig. 9c.
type Journal struct {
	dev *pmem.Device
	mu  *sim.Mutex

	logHead mem.PhysAddr
	logSize uint64
	logOff  uint64

	pendingBlocks uint64

	Stats JournalStats
}

// Journal attribution labels.
var (
	labelJournalBegin   = sim.NewLabel("journal.begin")
	labelJournalAddMeta = sim.NewLabel("journal.add_meta")
)

// JournalStats counts journal activity.
type JournalStats struct {
	Begins  uint64
	Commits uint64
	Blocks  uint64
}

// NewJournal creates a journal whose log area is [head, head+size) on dev.
// Time parked on the contended commit lock books as journal_flush wait
// inside the parked thread's "journal.commit" span.
func NewJournal(dev *pmem.Device, head mem.PhysAddr, size uint64) *Journal {
	mu := sim.NewMutex(cost.SchedWakeup)
	mu.OnContended = func(t *sim.Thread, blocked uint64) { span.Of(t).Wait(t, span.WaitJournal, blocked) }
	return &Journal{dev: dev, mu: mu, logHead: head, logSize: size}
}

// WaitQueueDepth reports how many threads are parked on the commit lock.
// Pure read for gauge sampling.
func (j *Journal) WaitQueueDepth() int { return j.mu.WaitQueueDepth() }

// Begin starts (or joins) the running transaction.
func (j *Journal) Begin(t *sim.Thread) {
	j.Stats.Begins++
	t.ChargeAs(labelJournalBegin, cost.JournalBegin)
}

// AddMeta records n dirty metadata blocks in the running transaction.
func (j *Journal) AddMeta(t *sim.Thread, n uint64) {
	j.pendingBlocks += n
	j.Stats.Blocks += n
	t.ChargeAs(labelJournalAddMeta, cost.JournalAddPerBlock*n)
}

// Commit forces the running transaction to media. It serializes on the
// journal lock, writes the pending metadata blocks to the log with
// nt-stores and fences.
func (j *Journal) Commit(t *sim.Thread) {
	t.Enter(span.JournalCommit)
	defer t.Leave()
	j.mu.Lock(t, cost.SemAcquireFast)
	n := j.pendingBlocks
	j.pendingBlocks = 0
	t.Charge(cost.JournalCommit)
	if n > 0 {
		bytes := n * mem.PageSize
		if j.logOff+bytes > j.logSize {
			j.logOff = 0
		}
		// The log write consumes real device write bandwidth.
		j.dev.StreamNT(t, j.logHead+mem.PhysAddr(j.logOff), bytes)
		j.logOff += bytes
	}
	j.dev.Fence(t)
	j.Stats.Commits++
	j.mu.Unlock(t, cost.SemReleaseFast)
}
