package sim_test

import (
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/sim"
)

// wired returns a fresh engine attached to a cycle account, which it
// also returns, and to a span collector, the way the kernel attaches
// every engine it runs.
func wired() (*sim.Engine, *obs.CycleAccount) {
	e := sim.New()
	o := &obs.Obs{Cycles: obs.NewCycleAccount()}
	o.Attach(e)
	span.New(2).Attach(e)
	return e, o.Cycles
}

// TestChargeZeroAlloc pins the booking path at zero allocations on an
// engine attached to an account and a collector: Charge, ChargeN, warm
// ChargeAs and ChargeAsN (the joined path is already interned), AddRemote
// onto another thread and a warm Enter/Leave pair (its path interned, its
// span class, node and stack slots already made) each add into a charge
// table that already has the row, the account sees every cycle and the
// collector every span.
func TestChargeZeroAlloc(t *testing.T) {
	app, cp := sim.NewLabel("app"), sim.NewLabel("copy")
	handler, fault := sim.NewLabel("shootdown.ipi_handler"), sim.NewLabel("fault.minor")
	e, acct := wired()
	var allocs float64
	var sp *span.Collector
	peer := e.GoDaemon("peer", 1, 0, func(th *sim.Thread) { th.Block("never") })
	e.Go("t0", 0, 0, func(th *sim.Thread) {
		sp = span.Of(th)
		th.PushAttr(app)
		th.ChargeAs(cp, 1)         // warm the interned "app.copy" path
		peer.AddRemote(handler, 1) // and grow peer's table
		op := func() {
			th.Enter(fault)
			th.Charge(1)
			th.Leave()
		}
		op() // warm the operation's path and span state
		allocs = testing.AllocsPerRun(200, func() {
			th.Charge(1)
			th.ChargeAs(cp, 1)
			th.ChargeN(1, 8)
			th.ChargeAsN(cp, 1, 8)
			peer.AddRemote(handler, 1)
			op()
		})
		th.PopAttr()
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("charge booking path allocates %v times per run, want 0", allocs)
	}
	if got := acct.Total(); got != e.TotalCharged() {
		t.Fatalf("account holds %d cycles, engine charged %d: it must see every charge", got, e.TotalCharged())
	}
	// One warm-up op, AllocsPerRun's own warm-up run and its 200 runs.
	if seg, ok := sp.ExportSegment(""); !ok || len(seg.Classes) != 1 || seg.Classes[0].Count != 202 {
		t.Fatalf("collector segment = %+v, want 202 fault.minor spans", seg)
	}
}

// TestHandoffZeroAlloc pins the token handoff at zero allocations once
// both threads run, on an engine attached to an account and a collector:
// a Yield between equal clocks and a Block/Wake pair each pass the token
// through the driver and back.
func TestHandoffZeroAlloc(t *testing.T) {
	t.Run("yield", func(t *testing.T) {
		e, _ := wired()
		e.GoDaemon("peer", 1, 0, func(th *sim.Thread) {
			for {
				th.Yield()
			}
		})
		var allocs float64
		e.Go("main", 0, 0, func(th *sim.Thread) {
			for i := 0; i < 100; i++ {
				th.Yield()
			}
			allocs = testing.AllocsPerRun(1000, th.Yield)
		})
		e.Run()
		if allocs != 0 {
			t.Fatalf("Yield handoff allocates %v times per run, want 0", allocs)
		}
	})
	t.Run("block/wake", func(t *testing.T) {
		e, _ := wired()
		var main *sim.Thread
		peer := e.GoDaemon("peer", 1, 0, func(th *sim.Thread) {
			for {
				th.Block("ping")
				e.Wake(main, th.Now())
			}
		})
		var allocs float64
		main = e.Go("main", 0, 0, func(th *sim.Thread) {
			pingPong := func() {
				e.Wake(peer, th.Now())
				th.Block("pong")
			}
			for i := 0; i < 100; i++ {
				pingPong()
			}
			allocs = testing.AllocsPerRun(1000, pingPong)
		})
		e.Run()
		if allocs != 0 {
			t.Fatalf("Block/Wake handoff allocates %v times per run, want 0", allocs)
		}
	})
}
