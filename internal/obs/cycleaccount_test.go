package obs

import (
	"bytes"
	"strings"
	"testing"
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
