package sim

import "testing"

// lockIface lets one scenario drive Mutex and SpinLock identically.
type lockIface interface {
	Lock(t *Thread, acqCost uint64)
	Unlock(t *Thread, relCost uint64)
	stats() *LockStats
	setOnContended(fn ContentionFn)
}

type mutexUnderTest struct{ *Mutex }

func (m mutexUnderTest) stats() *LockStats              { return &m.Mutex.Stats }
func (m mutexUnderTest) setOnContended(fn ContentionFn) { m.Mutex.OnContended = fn }

type spinUnderTest struct{ *SpinLock }

func (s spinUnderTest) stats() *LockStats              { return &s.SpinLock.Stats }
func (s spinUnderTest) setOnContended(fn ContentionFn) { s.SpinLock.OnContended = fn }

// TestLockStatsContention runs a deterministic two-thread scenario and
// checks every LockStats field: A acquires at t=0 and holds for 100
// cycles; B arrives at t=10, waits until the handoff at t=100 (90 cycles
// of wait), then holds for 50.
func TestLockStatsContention(t *testing.T) {
	cases := []struct {
		name string
		mk   func() lockIface
	}{
		{"mutex", func() lockIface { return mutexUnderTest{NewMutex(0)} }},
		{"spinlock", func() lockIface { return spinUnderTest{&SpinLock{}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			l := tc.mk()
			type contention struct{ end, blocked uint64 }
			var seen []contention
			l.setOnContended(func(th *Thread, blocked uint64) {
				seen = append(seen, contention{th.Now(), blocked})
			})
			e.Go("a", 0, 0, func(th *Thread) {
				l.Lock(th, 0)
				th.Charge(100)
				l.Unlock(th, 0)
			})
			e.Go("b", 1, 10, func(th *Thread) {
				l.Lock(th, 0)
				th.Charge(50)
				l.Unlock(th, 0)
			})
			e.Run()

			s := l.stats()
			if s.Acquisitions != 2 {
				t.Errorf("Acquisitions = %d, want 2", s.Acquisitions)
			}
			if s.Contended != 1 {
				t.Errorf("Contended = %d, want 1", s.Contended)
			}
			if s.WaitCycles != 90 {
				t.Errorf("WaitCycles = %d, want 90", s.WaitCycles)
			}
			if s.HoldCycles != 150 {
				t.Errorf("HoldCycles = %d, want 150 (100 by A + 50 by B)", s.HoldCycles)
			}
			if got := s.Contention(); got != 0.5 {
				t.Errorf("Contention() = %v, want 0.5", got)
			}
			if len(seen) != 1 {
				t.Fatalf("OnContended fired %d times, want 1", len(seen))
			}
			if seen[0].end != 100 {
				t.Errorf("hook fired at t=%d, want 100 (the handoff)", seen[0].end)
			}
			// With wakeCost 0 the whole window is uncharged park time.
			if seen[0].blocked != 90 {
				t.Errorf("blocked = %d, want 90", seen[0].blocked)
			}
		})
	}
}

// TestContentionBlockedExcludesWakeCost pins the contract the span layer
// relies on: blocked is the uncharged park gap only, while WaitCycles
// keeps including the wakeup charge paid on resume.
func TestContentionBlockedExcludesWakeCost(t *testing.T) {
	e := New()
	m := NewMutex(7)
	var blocked, end uint64
	m.OnContended = func(th *Thread, b uint64) {
		blocked, end = b, th.Now()
	}
	e.Go("a", 0, 0, func(th *Thread) {
		m.Lock(th, 0)
		th.Charge(100)
		m.Unlock(th, 0)
	})
	e.Go("b", 1, 10, func(th *Thread) {
		m.Lock(th, 0)
		m.Unlock(th, 0)
	})
	e.Run()
	if blocked != 90 {
		t.Errorf("blocked = %d, want 90 (park gap without the wake charge)", blocked)
	}
	if end != 107 {
		t.Errorf("hook fired at t=%d, want 107 (after the wake charge)", end)
	}
	if m.Stats.WaitCycles != 97 {
		t.Errorf("WaitCycles = %d, want 97 (gap + wake cost)", m.Stats.WaitCycles)
	}
}

// TestContentionCallbackShape drives every lock flavour through the same
// two-thread scenario (holder keeps the lock for 100 cycles, contender
// arrives at t=10) and asserts all four report an identically shaped
// blocked value per the ContentionFn contract: blocked = wait -
// wakeCharged, computed before the wake charge lands. SpinLock
// historically inlined t.Now()-start instead — this pins the fixed
// behaviour. Each case returns the stats its contended side books into.
func TestContentionCallbackShape(t *testing.T) {
	const wake = 7
	cases := []struct {
		name     string
		wakeCost uint64
		run      func(e *Engine, onc ContentionFn) *LockStats
	}{
		{"mutex", wake, func(e *Engine, onc ContentionFn) *LockStats {
			m := NewMutex(wake)
			m.OnContended = onc
			e.Go("a", 0, 0, func(th *Thread) { m.Lock(th, 0); th.Charge(100); m.Unlock(th, 0) })
			e.Go("b", 1, 10, func(th *Thread) { m.Lock(th, 0); m.Unlock(th, 0) })
			return &m.Stats
		}},
		{"spinlock", 0, func(e *Engine, onc ContentionFn) *LockStats {
			s := &SpinLock{}
			s.OnContended = onc
			e.Go("a", 0, 0, func(th *Thread) { s.Lock(th, 0); th.Charge(100); s.Unlock(th, 0) })
			e.Go("b", 1, 10, func(th *Thread) { s.Lock(th, 0); s.Unlock(th, 0) })
			return &s.Stats
		}},
		{"read", wake, func(e *Engine, onc ContentionFn) *LockStats {
			s := NewRWSem(wake)
			s.OnContended = onc
			e.Go("a", 0, 0, func(th *Thread) { s.Lock(th, 0); th.Charge(100); s.Unlock(th, 0) })
			e.Go("b", 1, 10, func(th *Thread) { s.RLock(th, 0); s.RUnlock(th, 0) })
			return &s.ReaderStats
		}},
		{"write", wake, func(e *Engine, onc ContentionFn) *LockStats {
			s := NewRWSem(wake)
			s.OnContended = onc
			e.Go("a", 0, 0, func(th *Thread) { s.RLock(th, 0); th.Charge(100); s.RUnlock(th, 0) })
			e.Go("b", 1, 10, func(th *Thread) { s.Lock(th, 0); s.Unlock(th, 0) })
			return &s.Stats
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			var blocked, end uint64
			fired := 0
			stats := tc.run(e, func(th *Thread, b uint64) {
				fired++
				blocked, end = b, th.Now()
			})
			e.Run()
			if fired != 1 {
				t.Fatalf("OnContended fired %d times, want 1", fired)
			}
			// Identical shape across flavours: the contender arrived at
			// t=10 and was handed the lock at t=100; the only flavour
			// difference is the wake cost charged after the park gap.
			if end != 100+tc.wakeCost {
				t.Errorf("callback fired at t=%d, want %d", end, 100+tc.wakeCost)
			}
			if want := stats.WaitCycles - tc.wakeCost; blocked != want {
				t.Errorf("blocked = %d, want %d (WaitCycles-wakeCharged)", blocked, want)
			}
			if blocked != 90 {
				t.Errorf("blocked = %d, want 90 for every flavour", blocked)
			}
		})
	}
}

// TestWaitQueueDepth samples queue depth from a zero-cost observer while
// three threads pile onto a mutex, checking the gauge reads the parked
// count without perturbing the run.
func TestWaitQueueDepth(t *testing.T) {
	e := New()
	m := NewMutex(0)
	var depths []int
	e.Go("holder", 0, 0, func(th *Thread) {
		m.Lock(th, 0)
		th.Charge(100)
		th.Yield() // let the t=10 arrivals park before sampling
		depths = append(depths, m.WaitQueueDepth())
		m.Unlock(th, 0)
	})
	for i := 0; i < 2; i++ {
		core := i + 1
		e.Go("w", core, 10, func(th *Thread) { m.Lock(th, 0); m.Unlock(th, 0) })
	}
	e.Run()
	if len(depths) != 1 || depths[0] != 2 {
		t.Fatalf("sampled depths = %v, want [2]", depths)
	}
	if m.WaitQueueDepth() != 0 {
		t.Fatalf("final depth = %d, want 0", m.WaitQueueDepth())
	}
}

// TestRWSemReaderStats checks the reader-side stats and the reader's
// contention callback: a writer holds the sem for 100 cycles while a
// reader arrives at t=10 and must wait for the handoff.
func TestRWSemReaderStats(t *testing.T) {
	e := New()
	s := NewRWSem(0)
	fired := 0
	s.OnContended = func(th *Thread, blocked uint64) { fired++ }
	e.Go("w", 0, 0, func(th *Thread) {
		s.Lock(th, 0)
		th.Charge(100)
		s.Unlock(th, 0)
	})
	e.Go("r", 1, 10, func(th *Thread) {
		s.RLock(th, 0)
		th.Charge(20)
		s.RUnlock(th, 0)
	})
	e.Run()
	if s.ReaderStats.Acquisitions != 1 || s.ReaderStats.Contended != 1 {
		t.Fatalf("reader stats = %+v", s.ReaderStats)
	}
	if s.ReaderStats.WaitCycles != 90 {
		t.Fatalf("reader WaitCycles = %d, want 90", s.ReaderStats.WaitCycles)
	}
	if fired != 1 {
		t.Fatalf("OnContended fired %d times, want 1", fired)
	}
}
