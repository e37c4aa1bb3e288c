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
// allocations: an engine feeding a real CycleAccount and Collector through
// their per-engine adapters, with a span open, allocates nothing on warm
// Charge, ChargeAs, AddRemote and PushAttr/PopAttr.
func TestAdapterChargeZeroAlloc(t *testing.T) {
	acct := obs.NewCycleAccount()
	c := New(3)
	e := sim.New()
	sink := acct.NewEngineSink()
	e.SetChargeSink(sink.Charge)
	e.AddChargeFlush(sink.Flush)
	attach(e, c)
	var allocs float64
	e.Go("t0", 5, 0, func(th *sim.Thread) {
		th.PushAttr("app")
		c.Begin(th, "op")
		step := func() {
			th.Charge(1)
			th.ChargeAs("bw_stall", 1)
			th.AddRemote("shootdown.ipi_handler", 1)
			th.PushAttr("syscall.read")
			th.Charge(1)
			th.PopAttr()
		}
		step() // intern the paths, grow the id tables and per-core slices
		allocs = testing.AllocsPerRun(100, step)
		c.End(th)
		th.PopAttr()
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("wired charge path allocates %v times per run, want 0", allocs)
	}
	if acct.Total() != e.TotalCharged() || c.ObservedCycles() != e.TotalCharged() {
		t.Fatalf("account %d, collector %d, engine %d cycles", acct.Total(), c.ObservedCycles(), e.TotalCharged())
	}
}

// charge is one recorded engine charge: the engine's index, the sink's
// arguments and the observer's remote flag.
type charge struct {
	engine int
	core   int
	id     int
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
}

type segWait struct {
	id    string
	waits map[string]uint64
}

// replay runs progs[i] on engine i, one after the other, both engines
// sharing one account and collector the way Boot's ager, setup and main
// engines do. Spans mirror the programs' attribution frames, and each
// engine's run is a collector segment. With ids, each engine is wired
// through its own adapters; otherwise through closures that record every
// charge and forward it to the string Charge and Observe.
func replay(progs [2][][]simtest.Op, ids bool) replayRun {
	r := replayRun{acct: obs.NewCycleAccount(), col: New(2)}
	hooks := simtest.Hooks{
		Push: func(t *sim.Thread, label string) { r.col.Begin(t, label) },
		Pop:  func(t *sim.Thread) { r.col.End(t) },
	}
	for i, prog := range progs {
		i := i
		e := sim.New()
		if ids {
			sink := r.acct.NewEngineSink()
			e.SetChargeSink(sink.Charge)
			e.AddChargeFlush(sink.Flush)
			attach(e, r.col)
		} else {
			e.SetChargeSink(func(core, id int, path string, cycles uint64) {
				r.rec = append(r.rec, charge{i, core, id, path, cycles, false})
				r.acct.Charge(core, path, cycles)
			})
			e.SetChargeObserver(func(t *sim.Thread, _ int, path string, cycles uint64, remote bool) {
				// The engine calls the sink first, so this charge is
				// the last one recorded.
				r.rec[len(r.rec)-1].remote = remote
				r.col.Observe(t, path, cycles, remote)
			})
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
// engines sharing one account and collector, once through the per-engine
// id adapters and once through the string entry points, and requires both
// to agree with each other and with a reference rebuilt from the recorded
// charge stream: snapshot (including zero-cycle ByCore entries), root
// cycles, booked/outside/remote cycles and per-segment wait totals. The
// two engines' programs differ, so the same path id names different paths
// in each.
func TestAdapterEquivalence(t *testing.T) {
	const nthreads, nops = 8, 60
	var zeroEntries int
	for seed := int64(1); seed <= 5; seed++ {
		progs := [2][][]simtest.Op{
			simtest.Generate(seed, nthreads, nops),
			simtest.Generate(seed+100, nthreads, nops),
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a, s := replay(progs, true), replay(progs, false)
			ref := referenceOf(s.rec)

			pathOf := [2]map[int]string{{}, {}}
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
}
