package kernel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
	"daxvm/internal/sim"
)

// runContendedWorkload drives four threads of the same process through
// create/append/mmap/touch/munmap loops so the mmap_sem writer side and
// the PMem bandwidth bucket both see real contention.
func runContendedWorkload(t *testing.T, k *Kernel) *Proc {
	t.Helper()
	p := k.NewProc()
	for w := 0; w < 4; w++ {
		w := w
		p.Spawn("worker", w, 0, func(th *sim.Thread, c *cpu.Core) {
			for i := 0; i < 6; i++ {
				fd, err := p.Create(th, fmt.Sprintf("f%d_%d", w, i))
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				p.Append(th, fd, make([]byte, 256<<10))
				va, err := p.Mmap(th, c, fd, 0, 256<<10, mem.PermRead, mm.MapShared|mm.MapSync)
				if err != nil {
					t.Errorf("Mmap: %v", err)
					return
				}
				p.AccessMapped(th, c, va, 256<<10, KindSum)
				p.Munmap(th, c, va, 256<<10)
				p.Close(th, fd)
			}
		})
	}
	if k.Run() == 0 {
		t.Fatal("no virtual time elapsed")
	}
	return p
}

// TestWaitTotalsReconcile pins the cross-layer identities the bottleneck
// analyzer's report rests on: the span layer's once-counted wait totals
// must reconcile exactly against the resource models' own counters.
//
//   - pmem_bw: every throttle-stall cycle is charged as a "bw_stall"
//     classified charge, so the span total and the device counter are
//     the same cycles booked through two independent paths.
//   - mmap_sem: the span total books the pure park gap (blocked time
//     before the wakeup charge), while the lock's wait counters include
//     the wakeup cost, so counter − wakeCost × contended == span total.
func TestWaitTotalsReconcile(t *testing.T) {
	o := obs.New(0)
	sp := span.New(3)
	k := bootTest(t, Config{Cores: 4, DeviceBytes: 512 << 20, Obs: o, Spans: sp})
	// Boot-time mkfs stalls land in the collector's default segment;
	// measure from a fresh segment and against counter deltas.
	sp.StartSegment("measured")
	stallBefore := k.Dev.Stats.ThrottleStall
	p := runContendedWorkload(t, k)

	seg, ok := sp.ExportSegment("measured")
	if !ok {
		t.Fatal("no measured segment exported")
	}

	wantStall := k.Dev.Stats.ThrottleStall - stallBefore
	if wantStall == 0 {
		t.Fatal("workload produced no PMem throttle stalls — reconciliation vacuous")
	}
	if got := seg.WaitTotals[span.WaitPMemBW.String()]; got != wantStall {
		t.Errorf("span pmem_bw total = %d, device throttle stall delta = %d", got, wantStall)
	}

	s := p.MM.Sem
	contended := s.Stats.Contended + s.ReaderStats.Contended
	if contended == 0 {
		t.Fatal("workload produced no mmap_sem contention — reconciliation vacuous")
	}
	wantSem := s.Stats.WaitCycles + s.ReaderStats.WaitCycles - cost.SchedWakeup*contended
	if got := seg.WaitTotals[span.WaitMmapSem.String()]; got != wantSem {
		t.Errorf("span mmap_sem total = %d, lock counters say %d (wait %d+%d − wake %d×%d)",
			got, wantSem, s.Stats.WaitCycles, s.ReaderStats.WaitCycles, cost.SchedWakeup, contended)
	}
}

// TestGaugeSamplingIsFree asserts the tentpole's zero-cost contract: a
// run with the full telemetry stack (registry, sampler, gauges) reaches
// exactly the same virtual end time as a bare run of the same workload,
// so attaching -timeline can never shift baseline metrics.
func TestGaugeSamplingIsFree(t *testing.T) {
	run := func(withObs bool) uint64 {
		cfg := Config{Cores: 4, DeviceBytes: 512 << 20}
		if withObs {
			o := obs.New(0)
			cfg.Obs = o
			cfg.Timeline = timeline.New(o.Reg, o.Cycles, timeline.Config{})
		}
		k := bootTest(t, cfg)
		p := k.NewProc()
		for w := 0; w < 4; w++ {
			w := w
			p.Spawn("worker", w, 0, func(th *sim.Thread, c *cpu.Core) {
				fd, err := p.Create(th, fmt.Sprintf("f%d", w))
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				p.Append(th, fd, make([]byte, 128<<10))
				va, err := p.Mmap(th, c, fd, 0, 128<<10, mem.PermRead, mm.MapShared|mm.MapSync)
				if err != nil {
					t.Errorf("Mmap: %v", err)
					return
				}
				p.AccessMapped(th, c, va, 128<<10, KindSum)
				p.Munmap(th, c, va, 128<<10)
				p.Close(th, fd)
			})
		}
		return k.Run()
	}
	bare := run(false)
	instrumented := run(true)
	if bare != instrumented {
		t.Fatalf("telemetry shifted virtual time: bare run ends at %d, instrumented at %d", bare, instrumented)
	}
}

// TestMultiNodeGaugeDeterminism runs the same two-node workload twice
// and asserts the serialized timeline — per-node saturation gauges
// included — is byte-identical, and that the per-node gauge tracks
// actually registered (they only exist on multi-node machines).
func TestMultiNodeGaugeDeterminism(t *testing.T) {
	run := func() []byte {
		o := obs.New(0)
		tl := timeline.New(o.Reg, o.Cycles, timeline.Config{})
		k := bootTest(t, Config{Cores: 4, Nodes: 2, DeviceBytes: 512 << 20, Obs: o, Timeline: tl})
		runContendedWorkload(t, k)
		b, err := json.Marshal(tl.Export())
		if err != nil {
			t.Fatalf("marshal timeline: %v", err)
		}
		return b
	}
	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Fatal("two-node gauge tracks differ between identical runs")
	}

	var exs []timeline.Export
	if err := json.Unmarshal(first, &exs); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	samples := uint64(0)
	for _, ex := range exs {
		for _, iv := range ex.Intervals {
			samples += iv.GaugeSamples
			for name := range iv.Gauges {
				seen[name] = true
			}
		}
	}
	if samples == 0 {
		t.Fatal("no gauge samples recorded")
	}
	// Per-node tracks only register on multi-node machines; their
	// presence (with non-zero samples — zero-only gauges are pruned
	// from the JSON) proves the NUMA gauge wiring end to end.
	for _, want := range []string{"mmap_sem.queue", "pmem.node0.bw.backlog", "pmem.node1.bw.backlog"} {
		if !seen[want] {
			t.Errorf("gauge %q never sampled non-zero (saw %v)", want, seen)
		}
	}
}
