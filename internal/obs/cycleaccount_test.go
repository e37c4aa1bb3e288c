package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"daxvm/internal/sim"
)

func TestCycleAccountBooking(t *testing.T) {
	a := NewCycleAccount()
	a.Charge(0, "app.syscall.write", 100)
	a.Charge(0, "app.syscall.write.ntstore", 50)
	a.Charge(1, "app.syscall.write.ntstore", 25)
	a.Charge(2, "journal.commit", 10)

	if got := a.Total(); got != 185 {
		t.Fatalf("total = %d, want 185", got)
	}
	s := a.Snapshot()
	if s.Total != 185 {
		t.Fatalf("snapshot total = %d", s.Total)
	}
	nt := s.Leaves["app.syscall.write.ntstore"]
	if nt.Cycles != 75 || nt.Count != 2 {
		t.Fatalf("ntstore leaf: %+v", nt)
	}
	if nt.ByCore[0] != 50 || nt.ByCore[1] != 25 {
		t.Fatalf("ntstore by_core: %+v", nt.ByCore)
	}
	if got := s.TotalOf("app.syscall.write"); got != 175 {
		t.Fatalf("TotalOf(app.syscall.write) = %d, want 175", got)
	}
	if got := s.TotalOf("app"); got != 175 {
		t.Fatalf("TotalOf(app) = %d, want 175", got)
	}
	if got := s.TotalOf("jour"); got != 0 {
		t.Fatalf("TotalOf must not match partial segments: %d", got)
	}
	a.Charge(3, "bare", 4)
	roots := a.RootCycles()
	if len(roots) != 3 || roots["app"] != 175 || roots["journal"] != 10 || roots["bare"] != 4 {
		t.Fatalf("root cycles = %v, want app 175, journal 10, bare 4", roots)
	}
}

func TestCycleSnapshotDelta(t *testing.T) {
	a := NewCycleAccount()
	a.Charge(0, "x.y", 100)
	s1 := a.Snapshot()
	a.Charge(0, "x.y", 40)
	a.Charge(1, "x.z", 7)
	d := a.Snapshot().Delta(s1)
	if d.Total != 47 {
		t.Fatalf("delta total = %d", d.Total)
	}
	if d.Leaves["x.y"].Cycles != 40 || d.Leaves["x.y"].Count != 1 {
		t.Fatalf("x.y delta: %+v", d.Leaves["x.y"])
	}
	if d.Leaves["x.z"].Cycles != 7 {
		t.Fatalf("x.z delta: %+v", d.Leaves["x.z"])
	}
	if d.Leaves["x.y"].ByCore[0] != 40 {
		t.Fatalf("x.y by_core delta: %+v", d.Leaves["x.y"].ByCore)
	}
}

func TestCycleSnapshotWriteFolded(t *testing.T) {
	a := NewCycleAccount()
	a.Charge(0, "app.access.walk.pte_miss_pmem", 900)
	a.Charge(0, "app.access", 100)
	var buf bytes.Buffer
	if err := a.Snapshot().WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	want := "app;access 100\napp;access;walk;pte_miss_pmem 900\n"
	if buf.String() != want {
		t.Fatalf("folded:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestCycleSnapshotWriteTable(t *testing.T) {
	a := NewCycleAccount()
	a.Charge(0, "app.syscall.write", 100)
	a.Charge(0, "app.syscall.write.ntstore", 300)
	a.Charge(0, "journal.commit", 50)
	var buf bytes.Buffer
	a.Snapshot().WriteTable(&buf, 0)
	out := buf.String()
	// "app" rolls up to 400 total with 0 self; the write node keeps 100 self.
	if !strings.Contains(out, "app") || !strings.Contains(out, "400") {
		t.Fatalf("table missing rollup:\n%s", out)
	}
	// Nodes: app, app.syscall, app.syscall.write, app.syscall.write.ntstore,
	// journal, journal.commit — plus the header line.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+6 {
		t.Fatalf("unexpected table rows (%d):\n%s", len(lines)-1, out)
	}
	// Rows must be sorted by total descending: app (400) before journal (50).
	if strings.Index(out, " app\n") > strings.Index(out, " journal\n") {
		t.Fatalf("rows not sorted by total:\n%s", out)
	}
}

func TestCycleAccountNilSafety(t *testing.T) {
	var a *CycleAccount
	a.Charge(0, "x", 1) // must not panic
	if a.Total() != 0 {
		t.Fatal("nil account not inert")
	}
	s := a.Snapshot()
	if s.Total != 0 || len(s.Leaves) != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

// TestAccountReadsEveryCharge pins what a reader on a running engine
// sees: every charge made before the read, on any thread, however few
// handoffs came between. A GoSampler reads at each wake, and a thread
// that charges long runs without a handoff reads after each charge.
func TestAccountReadsEveryCharge(t *testing.T) {
	a := NewCycleAccount()
	e := sim.New()
	a.Attach(e)
	check := func(who string) {
		if got := a.Total(); got != e.TotalCharged() {
			t.Fatalf("%s read Total %d, engine charged %d", who, got, e.TotalCharged())
		}
		var roots uint64
		for _, v := range a.RootCycles() {
			roots += v
		}
		if roots != e.TotalCharged() {
			t.Fatalf("%s read root cycles summing to %d, engine charged %d", who, roots, e.TotalCharged())
		}
	}
	wakes := 0
	e.GoSampler("sampler", 0, func(now uint64) uint64 { return now + 500 }, func(uint64) {
		wakes++
		check("sampler")
	})
	body := func(th *sim.Thread) {
		th.PushAttr(sim.NewLabel("app"))
		for i := 0; i < 600; i++ {
			th.ChargeAs(sim.NewLabel("copy"), uint64(i%3)*10)
			if i%100 == 0 {
				check(th.Name)
				th.Sleep(50)
			}
		}
		th.PopAttr()
	}
	e.Go("a", 1, 0, body)
	e.Go("b", 2, 0, body)
	e.Run()
	if wakes < 2 {
		t.Fatalf("premise: the sampler woke %d times, want at least 2", wakes)
	}
	check("Run's caller")
}

// TestAccountFoldsStoppedEngines pins the fold: the first read after an
// attached engine stops moves its threads' tables into the account's
// leaves, on the threads' cores with zero-cycle charges counted, and
// drops the engine. Every reader returns the same before the fold (on
// the engine's last running thread), at it and after it, and only the
// engines that have not stopped stay live.
func TestAccountFoldsStoppedEngines(t *testing.T) {
	a := NewCycleAccount()
	a.Charge(1, "app", 4)
	idle := sim.New() // attached, never run
	idle.Go("never", 3, 0, func(th *sim.Thread) { th.Charge(1) })
	a.Attach(idle)
	want := CycleSnapshot{Total: 4, Leaves: map[string]CycleLeaf{"app": {Cycles: 4, Count: 1, ByCore: map[int]uint64{1: 4}}}}
	const engines = 3
	for k := 1; k <= engines; k++ {
		e := sim.New()
		a.Attach(e)
		var before CycleSnapshot
		var beforeTotal uint64
		var beforeRoots map[string]uint64
		var ta *sim.Thread
		ta = e.Go("a", 2, 0, func(th *sim.Thread) {
			th.PushAttr(sim.NewLabel("setup"))
			th.Charge(5)
			th.ChargeAs(sim.NewLabel("zero"), 0)
			th.PopAttr()
		})
		e.Go("b", 5, 1, func(th *sim.Thread) {
			th.PushAttr(sim.NewLabel("setup"))
			th.Charge(7)
			th.PopAttr()
			ta.AddRemote(sim.NewLabel("ipi"), 3)
			before, beforeTotal, beforeRoots = a.Snapshot(), a.Total(), a.RootCycles()
		})
		e.Run()
		want.Total += 15
		want.Leaves["setup"] = CycleLeaf{Cycles: 12 * uint64(k), Count: 2 * uint64(k), ByCore: map[int]uint64{2: 5 * uint64(k), 5: 7 * uint64(k)}}
		want.Leaves["setup.zero"] = CycleLeaf{Cycles: 0, Count: uint64(k), ByCore: map[int]uint64{2: 0}}
		want.Leaves["ipi"] = CycleLeaf{Cycles: 3 * uint64(k), Count: uint64(k), ByCore: map[int]uint64{2: 3 * uint64(k)}}
		wantRoots := map[string]uint64{"app": 4, "setup": 12 * uint64(k), "ipi": 3 * uint64(k)}
		if !reflect.DeepEqual(before, want) || beforeTotal != want.Total || !reflect.DeepEqual(beforeRoots, wantRoots) {
			t.Fatalf("engine %d, live: snapshot %+v total %d roots %v, want %+v, %d, %v",
				k, before, beforeTotal, beforeRoots, want, want.Total, wantRoots)
		}
		for _, read := range []string{"folding", "second"} {
			var snap CycleSnapshot
			var total uint64
			var roots map[string]uint64
			switch k % 3 { // each reader takes a turn at folding
			case 0:
				snap, total, roots = a.Snapshot(), a.Total(), a.RootCycles()
			case 1:
				total, roots, snap = a.Total(), a.RootCycles(), a.Snapshot()
			case 2:
				roots, snap, total = a.RootCycles(), a.Snapshot(), a.Total()
			}
			if !reflect.DeepEqual(snap, want) || total != want.Total || !reflect.DeepEqual(roots, wantRoots) {
				t.Fatalf("engine %d, %s read: snapshot %+v total %d roots %v, want %+v, %d, %v",
					k, read, snap, total, roots, want, want.Total, wantRoots)
			}
		}
		if len(a.live) != 1 || a.live[0] != idle {
			t.Fatalf("after %d stopped engines the account reads %d live engines, want only the idle one", k, len(a.live))
		}
	}
}

// TestAccountAttachedIdleEngine pins that an attached engine that never
// runs reads as empty, its registered threads included.
func TestAccountAttachedIdleEngine(t *testing.T) {
	a := NewCycleAccount()
	e := sim.New()
	e.Go("never", 0, 0, func(th *sim.Thread) { th.Charge(9) })
	a.Attach(e)
	if s := a.Snapshot(); s.Total != 0 || len(s.Leaves) != 0 {
		t.Fatalf("idle engine reads as %+v", s)
	}
	if a.Total() != 0 || len(a.RootCycles()) != 0 {
		t.Fatalf("idle engine reads Total %d, roots %v", a.Total(), a.RootCycles())
	}
}
