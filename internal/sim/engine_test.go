package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSingleThreadClock(t *testing.T) {
	e := New()
	var end uint64
	e.Go("t0", 0, 0, func(th *Thread) {
		th.Charge(100)
		th.Yield()
		th.Charge(50)
		end = th.Now()
	})
	max := e.Run()
	if end != 150 {
		t.Fatalf("clock = %d, want 150", end)
	}
	if max != 150 {
		t.Fatalf("max clock = %d, want 150", max)
	}
}

func TestMinClockOrdering(t *testing.T) {
	// Threads with staggered start times must interleave their yields in
	// virtual-time order.
	e := New()
	var order []string
	mk := func(name string, start uint64) {
		e.Go(name, 0, start, func(th *Thread) {
			for i := 0; i < 3; i++ {
				th.Yield()
				order = append(order, name)
				th.Charge(100)
			}
		})
	}
	mk("a", 0)   // yields at 0, 100, 200
	mk("b", 50)  // yields at 50, 150, 250
	mk("c", 250) // yields at 250, 350, 450
	e.Run()
	want := []string{"a", "b", "a", "b", "a", "b", "c", "c", "c"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := New()
		m := NewMutex(0)
		var ends []uint64
		for i := 0; i < 8; i++ {
			e.Go("w", i, uint64(i*7), func(th *Thread) {
				for j := 0; j < 20; j++ {
					m.Lock(th, 10)
					th.Charge(33)
					m.Unlock(th, 5)
					th.Charge(17)
				}
				ends = append(ends, th.Now())
			})
		}
		e.Run()
		return ends
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: run1=%v run2=%v", a, b)
		}
	}
}

func TestMutexSerializes(t *testing.T) {
	e := New()
	m := NewMutex(0)
	var inside int32
	var maxInside int32
	var holds [][2]uint64
	for i := 0; i < 4; i++ {
		e.Go("w", i, 0, func(th *Thread) {
			for j := 0; j < 5; j++ {
				m.Lock(th, 0)
				if v := atomic.AddInt32(&inside, 1); v > maxInside {
					maxInside = v
				}
				start := th.Now()
				th.Charge(1000)
				holds = append(holds, [2]uint64{start, th.Now()})
				atomic.AddInt32(&inside, -1)
				m.Unlock(th, 0)
			}
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Fatalf("mutex admitted %d threads", maxInside)
	}
	// Hold intervals must not overlap in virtual time.
	for i := 1; i < len(holds); i++ {
		if holds[i][0] < holds[i-1][1] {
			t.Fatalf("overlapping holds: %v then %v", holds[i-1], holds[i])
		}
	}
	if m.Stats.Acquisitions != 20 {
		t.Fatalf("acquisitions = %d", m.Stats.Acquisitions)
	}
	if m.Stats.Contended == 0 {
		t.Fatal("expected contention")
	}
}

func TestMutexContentionStretchesTime(t *testing.T) {
	// 4 threads × 10 critical sections of 1000 cycles each must take at
	// least 40000 virtual cycles in total because the lock serializes.
	e := New()
	m := NewMutex(0)
	for i := 0; i < 4; i++ {
		e.Go("w", i, 0, func(th *Thread) {
			for j := 0; j < 10; j++ {
				m.Lock(th, 0)
				th.Charge(1000)
				m.Unlock(th, 0)
			}
		})
	}
	max := e.Run()
	if max < 40000 {
		t.Fatalf("max clock %d < serialized minimum 40000", max)
	}
}

func TestRWSemReadersShare(t *testing.T) {
	e := New()
	s := NewRWSem(0)
	for i := 0; i < 8; i++ {
		e.Go("r", i, 0, func(th *Thread) {
			s.RLock(th, 0)
			th.Charge(1000)
			s.RUnlock(th, 0)
		})
	}
	max := e.Run()
	// All readers run concurrently: finish near 1000, far below 8000.
	if max > 2000 {
		t.Fatalf("readers did not share: max clock %d", max)
	}
}

func TestRWSemWriterExcludes(t *testing.T) {
	e := New()
	s := NewRWSem(0)
	var events []string
	for i := 0; i < 2; i++ {
		e.Go("w", i, 0, func(th *Thread) {
			s.Lock(th, 0)
			events = append(events, "enter")
			th.Charge(500)
			events = append(events, "exit")
			s.Unlock(th, 0)
		})
	}
	e.Run()
	want := []string{"enter", "exit", "enter", "exit"}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v", events)
		}
	}
}

func TestRWSemWriterNotStarved(t *testing.T) {
	// A stream of readers must not starve a waiting writer: once the
	// writer queues, later readers wait behind it.
	e := New()
	s := NewRWSem(0)
	var writerDone uint64
	e.Go("r0", 0, 0, func(th *Thread) {
		s.RLock(th, 0)
		th.Charge(1000)
		s.RUnlock(th, 0)
	})
	e.Go("wr", 1, 100, func(th *Thread) {
		s.Lock(th, 0)
		th.Charge(100)
		s.Unlock(th, 0)
		writerDone = th.Now()
	})
	var lateReaderIn uint64
	e.Go("r1", 2, 200, func(th *Thread) {
		s.RLock(th, 0)
		lateReaderIn = th.Now()
		th.Charge(10)
		s.RUnlock(th, 0)
	})
	e.Run()
	if writerDone == 0 || lateReaderIn < writerDone-100 {
		t.Fatalf("late reader entered at %d before writer finished at %d", lateReaderIn, writerDone)
	}
}

func TestSleepOrdering(t *testing.T) {
	e := New()
	var order []string
	e.Go("sleeper", 0, 0, func(th *Thread) {
		th.Sleep(1000)
		order = append(order, "sleeper")
	})
	e.Go("worker", 1, 0, func(th *Thread) {
		th.Charge(500)
		th.Yield()
		order = append(order, "worker")
	})
	e.Run()
	if order[0] != "worker" || order[1] != "sleeper" {
		t.Fatalf("order = %v", order)
	}
}

func TestDaemonTeardown(t *testing.T) {
	e := New()
	var ticks int
	e.GoDaemon("d", 0, 0, func(th *Thread) {
		for {
			th.Sleep(100)
			ticks++
		}
	})
	e.Go("main", 1, 0, func(th *Thread) {
		th.Charge(550)
		th.Yield()
	})
	e.Run() // must terminate even though the daemon loops forever
	if ticks == 0 {
		t.Fatal("daemon never ran")
	}
	if ticks > 10 {
		t.Fatalf("daemon ran past main exit: %d ticks", ticks)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := New()
	ev := &Event{}
	e.Go("stuck", 0, 0, func(th *Thread) {
		ev.Wait(th, "never")
	})
	e.Run()
}

func TestEventBroadcast(t *testing.T) {
	e := New()
	ev := &Event{}
	var woke []uint64
	for i := 0; i < 3; i++ {
		e.Go("w", i, 0, func(th *Thread) {
			ev.Wait(th, "ev")
			woke = append(woke, th.Now())
		})
	}
	e.Go("sig", 3, 500, func(th *Thread) {
		th.Charge(100)
		th.Yield()
		ev.Broadcast(th)
	})
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke = %v", woke)
	}
	for _, w := range woke {
		if w < 600 {
			t.Fatalf("waiter woke at %d before broadcast at 600", w)
		}
	}
}

func TestSpinLockNoWakeCost(t *testing.T) {
	e := New()
	var sp SpinLock
	var second uint64
	e.Go("a", 0, 0, func(th *Thread) {
		sp.Lock(th, 0)
		th.Charge(1000)
		sp.Unlock(th, 0)
	})
	e.Go("b", 1, 10, func(th *Thread) {
		sp.Lock(th, 0)
		second = th.Now()
		sp.Unlock(th, 0)
	})
	e.Run()
	if second != 1000 {
		t.Fatalf("spinner acquired at %d, want exactly 1000 (release time)", second)
	}
}

// TestChargeTables pins what each thread's table holds: every charge
// booked onto the thread, in the row of its dense per-engine path id (0
// is Unattributed, then one id per newly interned path, frames
// included), with its cycles and a count that zero-cycle charges add to
// too. AddRemote books onto the target's table, and Path names each id.
func TestChargeTables(t *testing.T) {
	e := New()
	var t1 *Thread
	t0 := e.Go("t0", 3, 0, func(th *Thread) {
		th.Charge(10) // empty stack -> unattributed
		th.PushAttr(NewLabel("app"))
		th.Charge(20)
		th.PushAttr(NewLabel("syscall.read")) // nests -> app.syscall.read
		th.ChargeAs(NewLabel("copy"), 30)     // one-shot child
		th.PopAttr()
		t1.AddRemote(NewLabel("shootdown.ipi_handler"), 40) // absolute, ignores stack, books onto t1
		th.PushAttr(NewLabel("syscall"))                    // app.syscall: a new id, never charged
		th.ChargeAs(NewLabel("read"), 50)                   // same path as the frame above: same id
		th.ChargeAs(NewLabel("read"), 0)                    // zero cycles, still a charge
		th.PopAttr()
		th.PopAttr()
		th.AddRemote(NewLabel("app"), 60) // a root reached from no frame: same id
	})
	t1 = e.Go("t1", 4, 1000, func(th *Thread) {})
	e.Run()
	paths := []string{Unattributed, "app", "app.syscall.read", "app.syscall.read.copy", "shootdown.ipi_handler", "app.syscall"}
	for id, p := range paths {
		if got := e.Path(id); got != p {
			t.Errorf("Path(%d) = %q, want %q", id, got, p)
		}
	}
	want := map[*Thread][]Row{
		// A table grows to every path interned so far when it books a
		// new id: t0's last at id 3, before app.syscall; t1's at id 4.
		t0: {{10, 1}, {80, 2}, {50, 2}, {30, 1}},
		t1: {{}, {}, {}, {}, {40, 1}},
	}
	for th, w := range want {
		if got := th.Rows(); !reflect.DeepEqual(got, w) {
			t.Errorf("%s rows = %v, want %v", th.Name, got, w)
		}
	}
	if e.TotalCharged() != 210 {
		t.Errorf("engine charged %d, want 210", e.TotalCharged())
	}
}

// TestBatchChargesMatchSingleCharges books one script of charges twice,
// on engines with a classifier: through ChargeN and ChargeAsN, and as
// that many Charge and ChargeAs calls. The two must agree on clock, rows,
// tally, TotalCharged, Events and interned paths; a batch of n == 0
// books nothing and interns no path.
func TestBatchChargesMatchSingleCharges(t *testing.T) {
	steps := []struct {
		frame, label string // frame "" charges outside any; label "" charges the frame
		c, n         uint64
	}{
		{"", "", 5, 3},
		{"app", "", 7, 4},
		{"app", "store", 2, 6},
		{"app", "zero", 9, 0}, // interns no app.zero
		{"", "", 11, 0},
		{"app", "store", 0, 5}, // zero-cycle charges still count
		{"", "stall", 3, 2},
		{"app", "stall", 4, 1},
	}
	play := func(batch bool) (*Engine, *Thread) {
		e := New()
		e.SetSpans(nil, func(path string) uint8 {
			switch {
			case strings.HasSuffix(path, "stall"):
				return 2
			case strings.HasPrefix(path, "app"):
				return 1
			}
			return 0
		})
		th := e.Go("t", 0, 0, func(th *Thread) {
			for _, s := range steps {
				if s.frame != "" {
					th.PushAttr(NewLabel(s.frame))
				}
				switch {
				case batch && s.label == "":
					th.ChargeN(s.c, s.n)
				case batch:
					th.ChargeAsN(NewLabel(s.label), s.c, s.n)
				default:
					for i := uint64(0); i < s.n; i++ {
						if s.label == "" {
							th.Charge(s.c)
						} else {
							th.ChargeAs(NewLabel(s.label), s.c)
						}
					}
				}
				if s.frame != "" {
					th.PopAttr()
				}
			}
			th.ChargeAs(NewLabel("last"), 1) // its id shows what was interned before it
		})
		e.Run()
		return e, th
	}
	be, bt := play(true)
	se, st := play(false)
	if bt.Now() != st.Now() || bt.Tally() != st.Tally() {
		t.Errorf("batched: clock %d, tally %+v; single: clock %d, tally %+v", bt.Now(), bt.Tally(), st.Now(), st.Tally())
	}
	if !reflect.DeepEqual(bt.Rows(), st.Rows()) {
		t.Errorf("batched rows %v, single rows %v", bt.Rows(), st.Rows())
	}
	if be.TotalCharged() != se.TotalCharged() || be.Events() != se.Events() {
		t.Errorf("batched: charged %d, events %d; single: charged %d, events %d", be.TotalCharged(), be.Events(), se.TotalCharged(), se.Events())
	}
	for id := range st.Rows() {
		if be.Path(id) != se.Path(id) {
			t.Errorf("path %d: batched %q, single %q", id, be.Path(id), se.Path(id))
		}
	}
	if _, ok := be.ids["app.zero"]; ok {
		t.Error("ChargeAsN with n == 0 interned its path")
	}
}

func TestTotalChargedCountsEveryCharge(t *testing.T) {
	// TotalCharged must equal the sum of all Charge/ChargeAs/AddRemote
	// amounts — idle time (Sleep) and lock waits are excluded because
	// dispatch advances clocks without charging.
	e := New()
	e.Go("a", 0, 0, func(th *Thread) {
		th.PushAttr(NewLabel("app"))
		th.Charge(100)
		th.Sleep(5000) // idle: not charged
		th.ChargeAs(NewLabel("tail"), 11)
	})
	e.Go("b", 1, 0, func(th *Thread) {
		th.Charge(7)
		th.AddRemote(NewLabel("x.y"), 3)
	})
	e.Run()
	if e.TotalCharged() != 121 {
		t.Fatalf("TotalCharged = %d, want 121", e.TotalCharged())
	}
}

func TestGoFromRunningThread(t *testing.T) {
	e := New()
	var childClock uint64
	e.Go("parent", 0, 0, func(th *Thread) {
		th.Charge(300)
		th.e.Go("child", 1, th.Now(), func(c *Thread) {
			childClock = c.Now()
		})
		th.Charge(100)
	})
	e.Run()
	if childClock != 300 {
		t.Fatalf("child started at %d, want 300", childClock)
	}
}

// TestThreadHeapPopOrder pins that the concrete-typed heap pops in
// ascending (wakeAt, seq) order — seq is unique, so this is a total
// order and the exact dispatch sequence the engine depends on.
func TestThreadHeapPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h threadHeap
	var ts []*Thread
	for i := 0; i < 500; i++ {
		th := &Thread{wakeAt: uint64(rng.Intn(50)), seq: uint64(i + 1), index: -1}
		ts = append(ts, th)
		h.push(th)
	}
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].wakeAt != ts[j].wakeAt {
			return ts[i].wakeAt < ts[j].wakeAt
		}
		return ts[i].seq < ts[j].seq
	})
	for i, want := range ts {
		got := h.pop()
		if got != want {
			t.Fatalf("pop %d: got (wakeAt=%d seq=%d), want (wakeAt=%d seq=%d)",
				i, got.wakeAt, got.seq, want.wakeAt, want.seq)
		}
		if got.index != -1 {
			t.Fatalf("pop %d: index not reset, got %d", i, got.index)
		}
	}
	if h.pop() != nil {
		t.Fatal("pop of empty heap should return nil")
	}
}

// TestThreadsReturnsCopy pins the aliasing fix: mutating the returned
// slice must not corrupt the engine's own registry.
func TestThreadsReturnsCopy(t *testing.T) {
	e := New()
	e.Go("a", 0, 0, func(t *Thread) {})
	e.Go("b", 1, 0, func(t *Thread) {})
	got := e.Threads()
	got[0] = nil
	got = append(got, nil)
	_ = got
	again := e.Threads()
	if len(again) != 2 || again[0] == nil || again[0].Name != "a" {
		t.Fatalf("engine registry corrupted through Threads(): %+v", again)
	}
}

// TestDumpIncludesAttr pins the deadlock dump: each thread line carries
// its innermost attribution path and what it is blocked on.
func TestDumpIncludesAttr(t *testing.T) {
	e := New()
	e.Go("stuck", 3, 0, func(t *Thread) {
		t.PushAttr(NewLabel("fs.write"))
		t.Block("nothing")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg, _ := r.(string)
		for _, want := range []string{"attr=fs.write", "blocked on nothing"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("deadlock dump missing %q:\n%v", want, r)
			}
		}
	}()
	e.Run()
}

// TestTallies pins the running tallies: a thread's Local counts its
// Charge and ChargeAs cycles and never AddRemote, Classes splits them by
// the classifier's class of each path (paths interned before
// SetSpans included), and the engine's tally sums its threads'.
func TestTallies(t *testing.T) {
	e := New()
	e.join(noParent, NewLabel("app")) // interned before the classifier is set
	e.Go("a", 0, 0, func(th *Thread) {
		th.PushAttr(NewLabel("app"))
		th.Sleep(10) // idle: in no tally
		th.Charge(5)
		th.ChargeAs(NewLabel("stall"), 7)
		th.PushAttr(NewLabel("stall"))
		th.Charge(11)
		th.PopAttr()
		th.PopAttr()
		th.Charge(2)
	})
	b := e.Go("b", 1, 0, func(th *Thread) {
		th.PushAttr(NewLabel("app"))
		th.Charge(3)
		th.PopAttr()
	})
	e.Go("c", 2, 0, func(th *Thread) {
		b.AddRemote(NewLabel("app"), 100)
	})
	e.SetSpans(nil, func(path string) uint8 {
		switch {
		case strings.HasSuffix(path, "stall"):
			return 2
		case path == "app":
			return 1
		}
		return 0
	})
	e.Run()
	ths := e.Threads()
	want := []Tally{
		{Local: 25, Classes: [NumClasses]uint64{0: 2, 1: 5, 2: 18}},
		{Local: 3, Classes: [NumClasses]uint64{1: 3}},
		{},
	}
	for i, w := range want {
		if got := ths[i].Tally(); got != w {
			t.Errorf("%s tally = %+v, want %+v", ths[i].Name, got, w)
		}
	}
	if got, w := e.Tally(), (Tally{Local: 28, Classes: [NumClasses]uint64{0: 2, 1: 8, 2: 18}}); got != w {
		t.Errorf("engine tally = %+v, want %+v", got, w)
	}
	if e.TotalCharged() != 128 {
		t.Errorf("engine charged %d, want 128 (28 local, 100 remote)", e.TotalCharged())
	}
}

// TestFinishedThreadsReleaseTheirFunctions pins that an engine kept
// reachable after its run (observability hubs keep every engine's
// counters) does not keep what its threads' bodies captured: for a
// kernel that is the whole machine, PMem device included. Both a thread
// that ran to completion and a daemon that was never dispatched must let
// their captures be collected.
func TestFinishedThreadsReleaseTheirFunctions(t *testing.T) {
	e := New()
	collected := make(chan string, 2)
	spawn := func(name string, start uint64, daemon bool) {
		captured := new([1 << 10]byte)
		runtime.SetFinalizer(captured, func(*[1 << 10]byte) { collected <- name })
		fn := func(th *Thread) { th.Charge(uint64(captured[0]) + 1) }
		if daemon {
			e.GoDaemon(name, 0, start, fn)
		} else {
			e.Go(name, 0, start, fn)
		}
	}
	spawn("finished", 0, false)
	spawn("never-started", 1<<40, true)
	e.Run()
	got := map[string]bool{}
	for i := 0; i < 200 && len(got) < 2; i++ {
		runtime.GC()
		select {
		case name := <-collected:
			got[name] = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(e)
	for _, name := range []string{"finished", "never-started"} {
		if !got[name] {
			t.Errorf("thread %q still pins its function's captures after the run", name)
		}
	}
}

// TestRunLeavesNoGoroutines pins that Run returns only once every
// thread's goroutine is gone, with parked threads unwound synchronously
// in registration order: on a normal exit, when a thread panics, and
// when a thread calls runtime.Goexit, which ends Run's goroutine.
func TestRunLeavesNoGoroutines(t *testing.T) {
	// build registers parked daemons (one blocked, one sleeping, one
	// never dispatched), a sampler and a thread running body; unwound
	// records each daemon's unwinding.
	build := func(body func(*Thread)) (e *Engine, unwound *[]string) {
		e = New()
		unwound = new([]string)
		park := func(name string, wait func(*Thread)) {
			e.GoDaemon(name, 1, 0, func(th *Thread) {
				defer func() { *unwound = append(*unwound, name) }()
				for {
					wait(th)
				}
			})
		}
		park("blocked", func(th *Thread) { th.Block("never") })
		park("sleeper", func(th *Thread) { th.Sleep(10) })
		e.GoDaemon("late", 2, 1<<40, func(*Thread) {})
		e.GoSampler("sampler", 3, func(now uint64) uint64 { return now + 7 }, func(uint64) {})
		e.Go("main", 0, 0, func(th *Thread) {
			th.Sleep(100)
			body(th)
		})
		return e, unwound
	}
	checkUnwound := func(t *testing.T, unwound []string) {
		t.Helper()
		if strings.Join(unwound, ",") != "blocked,sleeper" {
			t.Errorf("daemons unwound as %v, want [blocked sleeper] in registration order", unwound)
		}
	}

	t.Run("exit", func(t *testing.T) {
		e, unwound := build(func(th *Thread) { th.Charge(5) })
		before := runtime.NumGoroutine()
		if got := e.Run(); got != 105 {
			t.Errorf("Run = %d, want 105", got)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%d goroutines after Run, %d before", after, before)
		}
		checkUnwound(t, *unwound)
	})

	t.Run("panic", func(t *testing.T) {
		boom := &struct{ msg string }{"boom"}
		e, unwound := build(func(*Thread) { panic(boom) })
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				if r := recover(); r != boom {
					t.Errorf("Run panicked with %v, want the thread's value", r)
				}
			}()
			e.Run()
		}()
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%d goroutines after Run, %d before", after, before)
		}
		checkUnwound(t, *unwound)
	})

	t.Run("goexit", func(t *testing.T) {
		e, unwound := build(func(*Thread) { runtime.Goexit() })
		var before, after int
		returned := false
		done := make(chan struct{})
		go func() {
			// Both counts include this goroutine, which Run's Goexit ends.
			before = runtime.NumGoroutine()
			defer func() {
				after = runtime.NumGoroutine()
				close(done)
			}()
			e.Run()
			returned = true
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Run hangs after a thread's runtime.Goexit")
		}
		if returned {
			t.Error("Run returned normally after a thread's runtime.Goexit")
		}
		checkUnwound(t, *unwound)
		if after != before {
			t.Errorf("%d goroutines after Run, %d before", after, before)
		}
	})
}
