package kernel

import (
	"bytes"
	"encoding/json"
	"testing"

	"daxvm/internal/core"
	"daxvm/internal/cpu"
	"daxvm/internal/fs/ext4"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/sim"
)

// runObsWorkload drives both the POSIX and the DaxVM data paths on two
// cores so every instrumented subsystem fires at least once.
func runObsWorkload(t *testing.T, k *Kernel) *Proc {
	t.Helper()
	p := k.NewProc()
	p.Spawn("posix", 0, 0, func(th *sim.Thread, c *cpu.Core) {
		fd, err := p.Create(th, "f")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		p.Append(th, fd, make([]byte, 1<<20))
		va, err := p.Mmap(th, c, fd, 0, 1<<20, mem.PermRead|mem.PermWrite, mm.MapShared|mm.MapSync)
		if err != nil {
			t.Errorf("Mmap: %v", err)
			return
		}
		// Read first (pages install write-protected under MAP_SYNC), then
		// write: the second pass takes WP faults and hits the TLB.
		p.AccessMapped(th, c, va, 128<<10, KindSum)
		p.AccessMapped(th, c, va, 128<<10, KindCachedWrite)
		p.Msync(th, c, va, 1<<20)
		p.Munmap(th, c, va, 1<<20)
		p.Close(th, fd)
	})
	p.Spawn("daxvm", 1, 0, func(th *sim.Thread, c *cpu.Core) {
		fd, err := p.Create(th, "g")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		p.Append(th, fd, make([]byte, 1<<20))
		p.Fsync(th, fd)
		va, err := p.DaxvmMmap(th, c, fd, 0, 1<<20, mem.PermRead, 0)
		if err != nil {
			t.Errorf("DaxvmMmap: %v", err)
			return
		}
		p.AccessMapped(th, c, va, 128<<10, KindSum)
		p.DaxvmMunmap(th, c, va)
		p.Close(th, fd)
	})
	if k.Run() == 0 {
		t.Fatal("no virtual time elapsed")
	}
	return p
}

// TestSnapshotMatchesLegacyStats is the acceptance check for the metrics
// registry: the delta over the measured window must reproduce exactly the
// values the per-subsystem Stats structs report.
func TestSnapshotMatchesLegacyStats(t *testing.T) {
	o := obs.New(0)
	k := bootTest(t, Config{Cores: 2, DeviceBytes: 512 << 20, DaxVM: true, Obs: o})
	before := o.Reg.Snapshot()
	p := runObsWorkload(t, k)
	after := o.Reg.Snapshot()
	d := after.Delta(before)

	sumCores := func(f func(*cpu.Core) uint64) uint64 {
		var s uint64
		for _, c := range k.Cpus.Cores {
			s += f(c)
		}
		return s
	}
	// The boot-time snapshot is zero for these namespaces (no process
	// existed, no faults ran), so both the absolute snapshot and the
	// window delta must equal the legacy structs.
	checks := []struct {
		name string
		want uint64
	}{
		{"mm.mmaps", p.MM.Stats.Mmaps},
		{"mm.munmaps", p.MM.Stats.Munmaps},
		{"mm.minor_faults", p.MM.Stats.MinorFaults},
		{"mm.wp_faults", p.MM.Stats.WPFaults},
		{"mm.msync_pages", p.MM.Stats.MsyncPages},
		{"mm.shootdowns", p.MM.Stats.Shootdowns},
		{"mm.lock.acquisitions", p.MM.Sem.Stats.Acquisitions},
		{"mm.lock.read.acquisitions", p.MM.Sem.ReaderStats.Acquisitions},
		{"tlb.misses", sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.Misses })},
		{"tlb.hits", sumCores(func(c *cpu.Core) uint64 { return c.TLB.Stats.Hits })},
		{"cpu.walks", sumCores(func(c *cpu.Core) uint64 { return c.Stats.Walks })},
		{"cpu.walk_cycles", sumCores(func(c *cpu.Core) uint64 { return c.Stats.WalkCycles })},
		{"core.attach_ops", k.Dax.Stats.AttachOps},
		{"core.detach_ops", k.Dax.Stats.DetachOps},
	}
	for _, c := range checks {
		if got := after.Get(c.name); got != c.want {
			t.Errorf("snapshot %s = %d, legacy stats say %d", c.name, got, c.want)
		}
		if got := d.Get(c.name); got != c.want {
			t.Errorf("delta %s = %d, legacy stats say %d", c.name, got, c.want)
		}
		if c.want == 0 {
			t.Errorf("workload did not exercise %s (legacy value 0)", c.name)
		}
	}
	// Journal commits happen during boot-time mkfs too, so compare the
	// absolute snapshot only.
	if f, ok := k.FS.(*ext4.FS); ok {
		if got, want := after.Get("ext4.journal.commits"), f.Journal().Stats.Commits; got != want || want == 0 {
			t.Errorf("ext4.journal.commits = %d, legacy %d", got, want)
		}
	} else {
		t.Fatal("expected ext4")
	}
	if got, want := after.Get("pmem.bytes_written"), k.Dev.Stats.BytesWritten; got != want || want == 0 {
		t.Errorf("pmem.bytes_written = %d, legacy %d", got, want)
	}
	if got, want := after.Get("dram.used_bytes"), k.Pool.Used(); got != want {
		t.Errorf("dram.used_bytes = %d, legacy %d", got, want)
	}

	// Histograms: every charged walk lands in cpu.walk_latency, so the
	// counts must agree with the per-core Stats too.
	wh := after.Hists["cpu.walk_latency"]
	if want := sumCores(func(c *cpu.Core) uint64 { return c.Stats.Walks }); wh.Count != want {
		t.Errorf("cpu.walk_latency count = %d, want %d", wh.Count, want)
	}
	if fh := after.Hists["mm.fault_latency"]; fh.Count == 0 || fh.Sum == 0 {
		t.Errorf("mm.fault_latency empty: %+v", fh)
	}
}

// TestTraceEventsAcrossCores checks that spans are the tracer's only
// per-operation source: with the ring unwrapped, every class has exactly
// as many slices as the collector closed spans, slices land on more than
// one core track, the instrumented operations all appear, the retired
// lock-contention events do not, and the Chrome export is valid JSON.
func TestTraceEventsAcrossCores(t *testing.T) {
	o := obs.New(0)
	sp := span.New(0)
	k := bootTest(t, Config{Cores: 2, DeviceBytes: 512 << 20, DaxVM: true, Obs: o, Spans: sp})
	runObsWorkload(t, k)
	if o.Trace.Dropped() != 0 {
		t.Fatalf("ring wrapped (%d dropped): counts cannot be compared", o.Trace.Dropped())
	}

	slices := map[string]uint64{}
	cores := map[int]bool{}
	for _, e := range o.Trace.Events() {
		slices[e.Type]++
		cores[e.Core] = true
	}
	spans := map[string]uint64{}
	for _, seg := range sp.Export() {
		for _, ce := range seg.Classes {
			spans[ce.Class] += ce.Count
		}
	}
	if len(slices) != len(spans) {
		t.Errorf("tracer has %d classes, collector %d: %v vs %v", len(slices), len(spans), slices, spans)
	}
	for cls, n := range spans {
		if slices[cls] != n {
			t.Errorf("class %s: %d slices, %d spans", cls, slices[cls], n)
		}
	}
	if len(cores) < 2 {
		t.Errorf("slices on %d cores, want >= 2", len(cores))
	}
	for _, want := range []string{"fault.minor", "fault.wp", "syscall.mmap", "syscall.daxvm_mmap", "access", "shootdown", span.ClassJournalCommit} {
		if slices[want] == 0 {
			t.Errorf("no %s slices (have %v)", want, slices)
		}
	}
	if slices["lock_contention"] != 0 {
		t.Errorf("%d lock_contention slices: the contention hook must only book span waits", slices["lock_contention"])
	}

	var buf bytes.Buffer
	if err := o.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) < 10 {
		t.Fatalf("suspiciously small trace: %d entries", len(parsed.TraceEvents))
	}
}

// TestObsSharedAcrossBoots locks in the multi-kernel contract: when one
// hub is reused (as bench does) and each kernel is closed before the next
// boots, counter readers follow the most recent boot while the trace ring
// keeps accumulating.
func TestObsSharedAcrossBoots(t *testing.T) {
	o := obs.New(0)
	sp := span.New(0)
	k1 := bootTest(t, Config{Cores: 2, DeviceBytes: 512 << 20, DaxVM: true, Obs: o, Spans: sp})
	runObsWorkload(t, k1)
	if o.Reg.Snapshot().Get("mm.mmaps") == 0 {
		t.Fatal("first kernel registered nothing")
	}
	eventsAfterFirst := o.Trace.Len()
	if eventsAfterFirst == 0 {
		t.Fatal("first kernel traced nothing")
	}

	k1.Close()
	bootTest(t, Config{Cores: 2, DeviceBytes: 512 << 20, DaxVM: true, Obs: o, Spans: sp})
	if got := o.Reg.Snapshot().Get("mm.mmaps"); got != 0 {
		t.Errorf("after reboot mm.mmaps = %d, want 0 (readers must follow the new kernel)", got)
	}
	if o.Trace.Len() < eventsAfterFirst {
		t.Error("reboot discarded trace events")
	}
}

// TestDaemonSpans: the DaxVM background work (pre-zero quanta, monitor
// migrations, batched zombie flushes) opens spans like any foreground
// operation, so it shows in the critical-path export and as tracer
// slices, and the span layer still reconciles exactly with the engines.
func TestDaemonSpans(t *testing.T) {
	o := obs.New(0)
	sp := span.New(1)
	k := bootTest(t, Config{Cores: 2, DeviceBytes: 512 << 20, DaxVM: true, Prezero: true, Monitor: true, Obs: o, Spans: sp})
	p := k.NewProc()
	p.Spawn("w", 0, 0, func(th *sim.Thread, c *cpu.Core) {
		// Freed blocks feed the pre-zero daemon.
		fd, _ := p.Create(th, "scratch")
		p.Append(th, fd, make([]byte, 1<<20))
		p.Close(th, fd)
		p.Unlink(th, "scratch")

		// One async-unmap batch: 8-page ephemeral mappings until the
		// zombie pages cross the batch threshold.
		fd, _ = p.Create(th, "small")
		p.Append(th, fd, make([]byte, 32<<10))
		for i := 0; i < 8; i++ {
			va, err := p.DaxvmMmap(th, c, fd, 0, 32<<10, mem.PermRead, core.FlagEphemeral|core.FlagUnmapAsync)
			if err != nil {
				t.Errorf("DaxvmMmap: %v", err)
				return
			}
			p.AccessMapped(th, c, va, 32<<10, KindSum)
			p.DaxvmMunmap(th, c, va)
		}

		// Monitor trigger: a file whose 2 MiB chunks are never physically
		// contiguous (interleaved padding) keeps its tables on PMem, and
		// random 4 KiB touches make every walk hit them.
		fd, _ = p.Create(th, "big")
		pad, _ := p.Create(th, "pad")
		for i := 0; i < 128; i++ {
			p.Append(th, fd, make([]byte, 512<<10))
			p.Append(th, pad, make([]byte, 4096))
		}
		size := p.Inode(fd).Size
		va, err := p.DaxvmMmap(th, c, fd, 0, size, mem.PermRead, core.FlagNoMsync)
		if err != nil {
			t.Errorf("DaxvmMmap: %v", err)
			return
		}
		rng := uint64(12345)
		chunks := size &^ (mem.HugeSize - 1)
		for i := 0; i < 120_000 && k.Dax.Stats.Migrations == 0; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			off := (rng >> 12) % chunks &^ (mem.PageSize - 1)
			if err := p.MM.Access(th, c, va+mem.VirtAddr(off), 8, false, 0); err != nil {
				t.Errorf("access: %v", err)
				return
			}
			if i%1000 == 0 {
				th.Yield() // let the monitor sample
			}
		}
	})
	k.Run()
	if k.Dax.Stats.ZombieBatches == 0 || k.Dax.Stats.Migrations == 0 || k.Dax.Prezero().Stats.Zeroed == 0 {
		t.Fatalf("daemons idle: zombie batches %d, migrations %d, prezeroed %d",
			k.Dax.Stats.ZombieBatches, k.Dax.Stats.Migrations, k.Dax.Prezero().Stats.Zeroed)
	}

	spans := map[string]uint64{}
	for _, seg := range sp.Export() {
		for _, ce := range seg.Classes {
			spans[ce.Class] += ce.Count
		}
	}
	slices := map[string]uint64{}
	for _, e := range o.Trace.Events() {
		slices[e.Type]++
	}
	for _, cls := range []string{"daemon.prezero", "daemon.monitor.migrate", "zombie_flush"} {
		if spans[cls] == 0 {
			t.Errorf("no %s spans in the export (have %v)", cls, spans)
		}
		if slices[cls] == 0 {
			t.Errorf("no %s tracer slices (have %v)", cls, slices)
		}
	}
	if got, want := sp.ObservedCycles(), o.EnginesTotal(); got != want {
		t.Errorf("span layer observed %d cycles, engines charged %d", got, want)
	}
}

// TestCutSpansEndAtEngineStop pins the teardown of a daemon parked inside
// its spans when the last workload thread exits: Run ends them, innermost
// first, at the daemon's clock, so no span stays open and every cycle the
// daemon charged inside them reaches their classes, matching the account.
func TestCutSpansEndAtEngineStop(t *testing.T) {
	o := obs.New(0)
	sp := span.New(1)
	k := bootTest(t, Config{Cores: 2, DeviceBytes: 512 << 20, Obs: o, Spans: sp})
	daemon := k.Engine.GoDaemon("cut", 1, 0, func(th *sim.Thread) {
		th.PushAttr(sim.NewLabel("daemon.cut"))
		sp.Begin(th, "daemon.cut")
		th.Charge(300)
		th.PushAttr(sim.NewLabel("zero"))
		sp.Begin(th, "zero")
		th.Charge(200)
		th.Sleep(1 << 40) // parked here when the workload exits
		sp.End(th)
		th.PopAttr()
		sp.End(th)
		th.PopAttr()
	})
	p := k.NewProc()
	p.Spawn("w", 0, 0, func(th *sim.Thread, _ *cpu.Core) { th.Sleep(1000) })
	k.Run()
	if n := sp.OpenSpans(daemon); n != 0 {
		t.Fatalf("%d spans left open on the torn-down daemon", n)
	}
	snap := o.Cycles.Snapshot()
	want := map[string]struct{ count, self, attributed, dur uint64 }{
		"daemon.cut": {1, 500, snap.TotalOf("daemon.cut"), daemon.Now()},
		"zero":       {1, 200, snap.TotalOf("daemon.cut.zero"), daemon.Now() - 300},
	}
	seen := 0
	for _, seg := range sp.Export() {
		for _, ce := range seg.Classes {
			w, ok := want[ce.Class]
			if !ok {
				continue
			}
			seen++
			if ce.Count != w.count || ce.SelfCycles != w.self || ce.SelfCycles != w.attributed || ce.TotalCycles != w.dur {
				t.Errorf("class %s: count %d self %d total %d, want count %d self %d (attributed %d) total %d",
					ce.Class, ce.Count, ce.SelfCycles, ce.TotalCycles, w.count, w.self, w.attributed, w.dur)
			}
		}
	}
	if seen != len(want) {
		t.Fatalf("exported %d of the daemon's %d classes", seen, len(want))
	}
	if got, charged := sp.ObservedCycles(), o.EnginesTotal(); got != charged {
		t.Errorf("span layer observed %d cycles, engines charged %d", got, charged)
	}
}
