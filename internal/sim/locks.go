package sim

// LockStats aggregates contention behaviour of a virtual lock.
type LockStats struct {
	Acquisitions uint64
	Contended    uint64 // acquisitions that had to wait
	WaitCycles   uint64 // total virtual cycles spent waiting
	HoldCycles   uint64 // total virtual cycles the lock was held
}

// ContentionFn observes one contended acquisition after the wait ends:
// blocked is the pure uncharged gap the thread spent parked — the wait
// window minus any wakeup cost charged on resume — which is what the
// span layer books as lock-wait time. Wired by the kernel to the span
// collector; nil costs one branch.
//
// Contract (holds for every lock flavour — Mutex, SpinLock, and both
// RWSem modes — and is asserted by TestContentionCallbackShape):
//
//	blocked = wait - wakeCyclesCharged
//
// where wait is what the acquisition adds to the lock's WaitCycles and
// wakeCyclesCharged is the lock's wakeup cost (0 for SpinLock, which
// resumes at the release time with nothing charged). blocked is computed
// BEFORE the wakeup charge lands so callbacks never have to
// reverse-engineer it from the clock.
type ContentionFn func(t *Thread, blocked uint64)

// Mutex is a sleeping virtual-time mutex (FIFO). Waiters block and pay a
// scheduler wakeup cost when resumed, mirroring a kernel sleeping lock.
type Mutex struct {
	owner      *Thread
	waiters    []*Thread
	acquiredAt uint64
	wakeCost   uint64
	Stats      LockStats

	// OnContended, when set, observes each contended acquisition.
	OnContended ContentionFn
}

// NewMutex creates a sleeping mutex whose waiters pay wakeCost cycles on
// wakeup (use cost.SchedWakeup for kernel sleeping locks, 0 for pure
// hand-off).
func NewMutex(wakeCost uint64) *Mutex { return &Mutex{wakeCost: wakeCost} }

// Lock acquires the mutex, charging acqCost for the uncontended path.
func (m *Mutex) Lock(t *Thread, acqCost uint64) {
	t.Yield() // synchronization point: lock decisions happen in time order
	t.Charge(acqCost)
	m.Stats.Acquisitions++
	if m.owner == nil {
		m.owner = t
		m.acquiredAt = t.Now()
		return
	}
	m.Stats.Contended++
	start := t.Now()
	//lint:ignore hotalloc contention queue: bounded by thread count, steady after first growth
	m.waiters = append(m.waiters, t)
	t.Block("mutex")
	// Ownership was transferred to us by Unlock.
	blocked := t.Now() - start
	t.Charge(m.wakeCost)
	m.Stats.WaitCycles += t.Now() - start
	m.acquiredAt = t.Now()
	if m.OnContended != nil {
		m.OnContended(t, blocked)
	}
}

// WaitQueueDepth reports how many threads are currently parked waiting
// for the mutex. Pure read for gauge sampling: charges nothing and never
// perturbs the simulation.
func (m *Mutex) WaitQueueDepth() int { return len(m.waiters) }

// Unlock releases the mutex, charging relCost, and hands ownership to the
// first waiter if any.
func (m *Mutex) Unlock(t *Thread, relCost uint64) {
	t.Yield() // synchronization point: releases are ordered in virtual time too
	if m.owner != t {
		panic("sim: Mutex.Unlock by non-owner")
	}
	t.Charge(relCost)
	m.Stats.HoldCycles += t.Now() - m.acquiredAt
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	w := m.waiters[0]
	copy(m.waiters, m.waiters[1:])
	m.waiters = m.waiters[:len(m.waiters)-1]
	m.owner = w
	t.e.Wake(w, t.Now())
}

// SpinLock is a virtual-time spinlock: waiters burn cycles until the
// holder releases (their clock advances to the release time with no
// scheduler wakeup cost).
type SpinLock struct {
	owner      *Thread
	waiters    []*Thread
	acquiredAt uint64
	Stats      LockStats

	// OnContended, when set, observes each contended acquisition.
	OnContended ContentionFn
}

// Lock acquires the spinlock, charging acqCost for the uncontended path.
func (s *SpinLock) Lock(t *Thread, acqCost uint64) {
	t.Yield()
	t.Charge(acqCost)
	s.Stats.Acquisitions++
	if s.owner == nil {
		s.owner = t
		s.acquiredAt = t.Now()
		return
	}
	s.Stats.Contended++
	start := t.Now()
	//lint:ignore hotalloc contention queue: bounded by thread count, steady after first growth
	s.waiters = append(s.waiters, t)
	t.Block("spinlock")
	// No wakeup cost for a spinner, so the blocked gap is the whole wait
	// window — the same blocked contract as Mutex/RWSem.
	blocked := t.Now() - start
	s.Stats.WaitCycles += t.Now() - start
	s.acquiredAt = t.Now()
	if s.OnContended != nil {
		s.OnContended(t, blocked)
	}
}

// WaitQueueDepth reports how many threads are currently spinning on the
// lock. Pure read for gauge sampling.
func (s *SpinLock) WaitQueueDepth() int { return len(s.waiters) }

// Unlock releases the spinlock and hands it to the first spinner.
func (s *SpinLock) Unlock(t *Thread, relCost uint64) {
	t.Yield() // synchronization point: releases are ordered in virtual time too
	if s.owner != t {
		panic("sim: SpinLock.Unlock by non-owner")
	}
	t.Charge(relCost)
	s.Stats.HoldCycles += t.Now() - s.acquiredAt
	if len(s.waiters) == 0 {
		s.owner = nil
		return
	}
	w := s.waiters[0]
	copy(s.waiters, s.waiters[1:])
	s.waiters = s.waiters[:len(s.waiters)-1]
	s.owner = w
	t.e.Wake(w, t.Now())
}

// RWSem models Linux's rw_semaphore (mmap_sem): readers share, writers are
// exclusive, and — like the kernel's handoff policy — new readers queue
// behind a waiting writer so writers do not starve. Consecutive queued
// readers are woken as a batch.
type RWSem struct {
	readers    int
	writer     *Thread
	queue      []semWaiter
	wakeCost   uint64
	acquiredAt uint64 // time the current exclusive/first-shared stint began

	Stats       LockStats
	ReaderStats LockStats

	// OnContended, when set, observes each contended acquisition.
	OnContended ContentionFn
}

type semWaiter struct {
	t     *Thread
	write bool
}

// NewRWSem creates a reader/writer semaphore; waiters pay wakeCost on
// wakeup.
func NewRWSem(wakeCost uint64) *RWSem { return &RWSem{wakeCost: wakeCost} }

// hasWaitingWriter reports whether any queued waiter wants exclusivity.
func (s *RWSem) hasWaitingWriter() bool {
	for _, w := range s.queue {
		if w.write {
			return true
		}
	}
	return false
}

// WaitQueueDepth reports how many threads (readers and writers combined)
// are currently queued on the semaphore. Pure read for gauge sampling.
func (s *RWSem) WaitQueueDepth() int { return len(s.queue) }

// RLock acquires the semaphore in shared mode.
func (s *RWSem) RLock(t *Thread, acqCost uint64) {
	t.Yield()
	t.Charge(acqCost)
	s.ReaderStats.Acquisitions++
	if s.writer == nil && !s.hasWaitingWriter() {
		if s.readers == 0 {
			s.acquiredAt = t.Now() // a shared stint begins
		}
		s.readers++
		return
	}
	s.ReaderStats.Contended++
	start := t.Now()
	//lint:ignore hotalloc contention queue: bounded by thread count, steady after first growth
	s.queue = append(s.queue, semWaiter{t, false})
	t.Block("rwsem-read")
	blocked := t.Now() - start
	t.Charge(s.wakeCost)
	s.ReaderStats.WaitCycles += t.Now() - start
	if s.OnContended != nil {
		s.OnContended(t, blocked)
	}
}

// RUnlock releases shared mode.
func (s *RWSem) RUnlock(t *Thread, relCost uint64) {
	t.Yield() // synchronization point: releases are ordered in virtual time too
	if s.readers <= 0 {
		panic("sim: RUnlock without readers")
	}
	t.Charge(relCost)
	s.readers--
	if s.readers == 0 {
		// The shared stint ends: book its hold time against the reader
		// side (writer stints book in Unlock), so HoldCycles across both
		// sides is the total time the sem was held — the utilization
		// numerator the bottleneck analyzer divides by wall cycles.
		s.ReaderStats.HoldCycles += t.Now() - s.acquiredAt
		s.wakeNext(t)
	}
}

// Lock acquires the semaphore exclusively.
func (s *RWSem) Lock(t *Thread, acqCost uint64) {
	t.Yield()
	t.Charge(acqCost)
	s.Stats.Acquisitions++
	if s.writer == nil && s.readers == 0 && len(s.queue) == 0 {
		s.writer = t
		s.acquiredAt = t.Now()
		return
	}
	s.Stats.Contended++
	start := t.Now()
	s.queue = append(s.queue, semWaiter{t, true})
	t.Block("rwsem-write")
	blocked := t.Now() - start
	t.Charge(s.wakeCost)
	s.Stats.WaitCycles += t.Now() - start
	s.acquiredAt = t.Now()
	if s.OnContended != nil {
		s.OnContended(t, blocked)
	}
}

// Unlock releases exclusive mode.
func (s *RWSem) Unlock(t *Thread, relCost uint64) {
	t.Yield() // synchronization point: releases are ordered in virtual time too
	if s.writer != t {
		panic("sim: RWSem.Unlock by non-writer")
	}
	t.Charge(relCost)
	s.Stats.HoldCycles += t.Now() - s.acquiredAt
	s.writer = nil
	s.wakeNext(t)
}

// wakeNext hands the semaphore to the head of the queue: either one writer
// or a batch of consecutive readers.
func (s *RWSem) wakeNext(t *Thread) {
	if len(s.queue) == 0 {
		return
	}
	if s.queue[0].write {
		w := s.queue[0]
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		s.writer = w.t
		t.e.Wake(w.t, t.Now())
		return
	}
	// Wake the prefix of readers. Wake only pushes to the run queue —
	// it cannot reenter this semaphore — so waking straight out of the
	// queue before compacting it is safe and saves a batch copy.
	n := 0
	for n < len(s.queue) && !s.queue[n].write {
		n++
	}
	s.readers += n
	s.acquiredAt = t.Now() // the woken batch's shared stint begins at handoff
	for i := 0; i < n; i++ {
		t.e.Wake(s.queue[i].t, t.Now())
	}
	copy(s.queue, s.queue[n:])
	s.queue = s.queue[:len(s.queue)-n]
}

// Event is a simple condition: threads Wait until someone Broadcasts.
type Event struct {
	waiters []*Thread
}

// Wait parks the thread until the next Broadcast.
func (ev *Event) Wait(t *Thread, tag string) {
	t.Yield() // synchronization point
	ev.waiters = append(ev.waiters, t)
	t.Block(tag)
}

// Broadcast wakes every waiter at the caller's clock.
func (ev *Event) Broadcast(t *Thread) {
	t.Yield() // synchronization point: releases are ordered in virtual time too
	ws := ev.waiters
	ev.waiters = nil
	for _, w := range ws {
		t.e.Wake(w, t.Now())
	}
}

// Contention returns the fraction of acquisitions that had to wait.
func (s *LockStats) Contention() float64 {
	if s.Acquisitions == 0 {
		return 0
	}
	return float64(s.Contended) / float64(s.Acquisitions)
}
