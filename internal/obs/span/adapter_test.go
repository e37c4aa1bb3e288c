package span

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/sim"
	"daxvm/internal/sim/simtest"
)

// TestAdapterChargeZeroAlloc pins the wired charge path at zero
// allocations: an engine feeding a real CycleAccount and Collector
// through their consumers allocates nothing on a warm step of Charge,
// ChargeAs, AddRemote and PushAttr/PopAttr inside spans, Begin/End pairs
// (which take the engine's undelivered charges) and a handoff to another
// thread inside a span (which delivers the rest after a take).
func TestAdapterChargeZeroAlloc(t *testing.T) {
	o := &obs.Obs{Cycles: obs.NewCycleAccount()}
	c := New(3)
	e := sim.New()
	o.Attach(e)
	c.Attach(e)
	var allocs float64
	var t0 *sim.Thread
	t0 = e.Go("t0", 5, 0, func(th *sim.Thread) {
		th.PushAttr("app")
		step := func() {
			c.Begin(th, "op")
			th.Charge(1)
			th.ChargeAs("bw_stall", 1)
			th.AddRemote("shootdown.ipi_handler", 1)
			th.PushAttr("syscall.read")
			c.Begin(th, "syscall.read")
			th.Charge(1)
			c.End(th)
			th.PopAttr()
			th.Charge(1)
			th.Yield() // hands the token to t1, which hands it back
			th.Charge(1)
			c.End(th)
		}
		step() // intern the paths, grow the id tables, pools and per-core slices
		allocs = testing.AllocsPerRun(100, step)
		th.PopAttr()
	})
	// t1 wakes at t0's clock after each of t0's steps and so takes the
	// token once per step.
	e.GoDaemon("t1", 6, 0, func(th *sim.Thread) {
		for {
			th.SleepUntil(t0.Now())
		}
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("wired charge path allocates %v times per run, want 0", allocs)
	}
	if o.Cycles.Total() != e.TotalCharged() || c.ObservedCycles() != e.TotalCharged() {
		t.Fatalf("account %d, collector %d, engine %d cycles", o.Cycles.Total(), c.ObservedCycles(), e.TotalCharged())
	}
}

// charge is one recorded engine charge: the engine's index and what the
// consumer received.
type charge struct {
	engine int
	core   int
	id     int32
	path   string
	cycles uint64
	remote bool
}

// replayRun is the observable outcome of one replay.
type replayRun struct {
	acct    *obs.CycleAccount
	col     *Collector
	charged uint64    // Σ TotalCharged over both engines
	rec     []charge  // only when replayed through the string entry points
	segs    []segWait // segment id -> wait totals, in order
	spans   spanShapes
}

type segWait struct {
	id    string
	waits map[string]uint64
}

// spanShapes counts the spans of a replay that exercise the collector's
// take path: ones that open and close between two deliveries with
// charges already pending at Begin, ones that cross a handoff, and ones
// holding more than a full batch of charges.
type spanShapes struct {
	midBatch, crossHandoff, overBatch int
}

// openSpan is where the engine's charge stream stood at a Begin.
type openSpan struct {
	made, handoffs, pending int
}

// replay runs progs[i] on engine i, one after the other, both engines
// sharing one account and collector the way Boot's ager, setup and main
// engines do. Spans mirror the programs' attribution frames, and each
// engine's run is a collector segment. With ids, each engine is attached
// to the account and the collector. Otherwise a consumer records every
// charge and forwards it to the string Charge and Observe; at each span
// boundary it first forwards the charges the engine has not delivered
// yet, so each charge still meets the span stack it was made under.
func replay(progs [2][][]simtest.Op, ids bool) replayRun {
	r := replayRun{acct: obs.NewCycleAccount(), col: New(2)}
	for i, prog := range progs {
		i := i
		e := sim.New()
		var boundary func()
		if ids {
			(&obs.Obs{Cycles: r.acct}).Attach(e)
			r.col.Attach(e)
			boundary = func() {}
		} else {
			forwarded := 0 // leading charges of the engine's buffer already forwarded
			forward := func(paths []string, batch []sim.Charge) {
				for _, c := range batch[forwarded:] {
					p := paths[c.ID]
					r.rec = append(r.rec, charge{i, c.T.Core, c.ID, p, c.Cycles, c.Remote})
					r.acct.Charge(c.T.Core, p, c.Cycles)
					r.col.Observe(c.T, p, c.Cycles, c.Remote)
				}
			}
			e.AddChargeConsumer(func(paths []string, batch []sim.Charge) {
				forward(paths, batch)
				forwarded = 0
			})
			boundary = func() {
				paths, pending := e.PendingCharges()
				forward(paths, pending)
				forwarded = len(pending)
			}
		}
		// A third consumer tracks the stream's shape for the span premises.
		var delivered, handoffs int
		e.AddChargeConsumer(func(_ []string, batch []sim.Charge) {
			delivered += len(batch)
			if len(batch) < 256 {
				handoffs++ // a partial batch: a handoff or the engine's stop
			}
		})
		open := map[*sim.Thread][]openSpan{}
		now := func() openSpan {
			_, pending := e.PendingCharges()
			return openSpan{delivered + len(pending), handoffs, len(pending)}
		}
		hooks := simtest.Hooks{
			Push: func(t *sim.Thread, label string) {
				boundary()
				r.col.Begin(t, label)
				open[t] = append(open[t], now())
			},
			Pop: func(t *sim.Thread) {
				boundary()
				r.col.End(t)
				b, n := open[t][len(open[t])-1], now()
				open[t] = open[t][:len(open[t])-1]
				switch {
				case n.handoffs > b.handoffs:
					r.spans.crossHandoff++
				case b.pending > 0 && n.pending > b.pending:
					r.spans.midBatch++
				}
				if n.made-b.made > 256 {
					r.spans.overBatch++
				}
			},
		}
		r.col.StartSegment(fmt.Sprintf("e%d", i))
		simtest.Run(e, prog, hooks)
		r.charged += e.TotalCharged()
	}
	for _, s := range r.col.Export() {
		r.segs = append(r.segs, segWait{s.Segment, s.WaitTotals})
	}
	return r
}

// reference rebuilds, from a recorded charge stream alone, what the
// account and collector must report: the snapshot (a core charged only
// zero cycles still gets a ByCore entry), the per-root cycles, local
// versus remote cycles and each engine segment's wait totals.
type reference struct {
	snap          obs.CycleSnapshot
	roots         map[string]uint64
	local, remote uint64
	segs          []segWait
}

func referenceOf(rec []charge) reference {
	ref := reference{
		snap:  obs.CycleSnapshot{Leaves: map[string]obs.CycleLeaf{}},
		roots: map[string]uint64{},
		segs:  []segWait{{"e0", map[string]uint64{}}, {"e1", map[string]uint64{}}},
	}
	for _, c := range rec {
		l := ref.snap.Leaves[c.path]
		if l.ByCore == nil {
			l.ByCore = map[int]uint64{}
		}
		l.Cycles += c.cycles
		l.Count++
		l.ByCore[c.core] += c.cycles
		ref.snap.Leaves[c.path] = l
		ref.snap.Total += c.cycles
		root, _, _ := strings.Cut(c.path, ".")
		ref.roots[root] += c.cycles
		if c.remote {
			ref.remote += c.cycles
			continue
		}
		ref.local += c.cycles
		if k := classify(c.path); k != noKind {
			ref.segs[c.engine].waits[k.String()] += c.cycles
		}
	}
	for i := range ref.segs {
		for k, v := range ref.segs[i].waits {
			if v == 0 {
				delete(ref.segs[i].waits, k)
			}
		}
		if len(ref.segs[i].waits) == 0 {
			ref.segs[i].waits = nil
		}
	}
	return ref
}

// TestAdapterEquivalence replays seeded random charge programs on two
// engines sharing one account and collector, once through the engines'
// consumers and once through the string entry points, and requires both
// to agree with each other and with a reference rebuilt from the recorded
// charge stream: snapshot (including zero-cycle ByCore entries), root
// cycles, booked/outside/remote cycles, per-segment wait totals and the
// span export. The two engines' programs differ, so the same path id
// names different paths in each. Each engine's first thread also opens
// one span holding more than a full batch of charges.
func TestAdapterEquivalence(t *testing.T) {
	const nthreads, nops = 8, 60
	long := []simtest.Op{{Kind: simtest.OpPush, Label: "copy"}}
	for i := 0; i < 300; i++ {
		long = append(long, simtest.Op{Kind: simtest.OpChargeAs, Label: "bw_stall", Cycles: 3})
	}
	long = append(long, simtest.Op{Kind: simtest.OpPop})
	var zeroEntries int
	var shapes spanShapes
	for seed := int64(1); seed <= 5; seed++ {
		progs := [2][][]simtest.Op{
			simtest.Generate(seed, nthreads, nops),
			simtest.Generate(seed+100, nthreads, nops),
		}
		for i := range progs {
			progs[i][0] = append(append([]simtest.Op(nil), long...), progs[i][0]...)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a, s := replay(progs, true), replay(progs, false)
			ref := referenceOf(s.rec)
			if a.spans != s.spans {
				t.Fatalf("span shapes differ between replays: %+v vs %+v", a.spans, s.spans)
			}
			shapes.midBatch += a.spans.midBatch
			shapes.crossHandoff += a.spans.crossHandoff
			shapes.overBatch += a.spans.overBatch

			pathOf := [2]map[int32]string{{}, {}}
			shared := false
			for _, c := range s.rec {
				pathOf[c.engine][c.id] = c.path
			}
			for id, p := range pathOf[0] {
				if q, ok := pathOf[1][id]; ok && q != p {
					shared = true
				}
			}
			if !shared {
				t.Fatal("premise: no path id names different paths in the two engines")
			}
			for _, l := range ref.snap.Leaves {
				for _, v := range l.ByCore {
					if v == 0 {
						zeroEntries++
					}
				}
			}

			for _, r := range []struct {
				name string
				run  replayRun
			}{{"ids", a}, {"strings", s}} {
				if got := r.run.acct.Snapshot(); !reflect.DeepEqual(got, ref.snap) {
					t.Errorf("%s: snapshot differs from the reference:\n got %+v\nwant %+v", r.name, got, ref.snap)
				}
				if got := r.run.acct.RootCycles(); !reflect.DeepEqual(got, ref.roots) {
					t.Errorf("%s: root cycles %v, want %v", r.name, got, ref.roots)
				}
				if got := r.run.acct.Total(); got != r.run.charged {
					t.Errorf("%s: account total %d, engines charged %d", r.name, got, r.run.charged)
				}
				col := r.run.col
				if got := col.BookedCycles() + col.OutsideCycles(); got != ref.local {
					t.Errorf("%s: booked+outside = %d, want %d", r.name, got, ref.local)
				}
				if got := col.RemoteCycles(); got != ref.remote {
					t.Errorf("%s: remote = %d, want %d", r.name, got, ref.remote)
				}
				if !reflect.DeepEqual(r.run.segs, ref.segs) {
					t.Errorf("%s: segment wait totals %+v, want %+v", r.name, r.run.segs, ref.segs)
				}
			}
			if a.col.BookedCycles() != s.col.BookedCycles() || a.col.OutsideCycles() != s.col.OutsideCycles() {
				t.Errorf("booked/outside: ids %d/%d, strings %d/%d",
					a.col.BookedCycles(), a.col.OutsideCycles(), s.col.BookedCycles(), s.col.OutsideCycles())
			}
			if !reflect.DeepEqual(a.col.Export(), s.col.Export()) {
				t.Error("span exports differ between the id and string replays")
			}
		})
	}
	if zeroEntries == 0 {
		t.Fatal("premise: no leaf was charged only zero cycles on some core")
	}
	if shapes.midBatch == 0 || shapes.crossHandoff == 0 || shapes.overBatch == 0 {
		t.Fatalf("premise: spans of every shape, got %+v", shapes)
	}
}
