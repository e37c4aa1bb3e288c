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
// allocations: an engine attached to a real CycleAccount, which reads
// its threads' charge tables, and to a Collector, which reads their
// tallies, allocates nothing on a warm step of Charge, ChargeAs with
// classified labels, AddRemote and PushAttr/PopAttr inside nested spans,
// Begin/End pairs (which book the thread's tally), Wait inside and
// outside a span, and a handoff to another thread inside a span.
func TestAdapterChargeZeroAlloc(t *testing.T) {
	o := &obs.Obs{Cycles: obs.NewCycleAccount()}
	c := New(3)
	e := sim.New()
	o.Attach(e)
	c.Attach(e)
	var allocs float64
	var t0 *sim.Thread
	t0 = e.Go("t0", 5, 0, func(th *sim.Thread) {
		th.PushAttr(sim.NewLabel("app"))
		step := func() {
			c.Wait(th, WaitMmapSem, 1) // outside any span: segment only
			c.Begin(th, "op")
			th.Charge(1)
			th.ChargeAs(sim.NewLabel("bw_stall"), 1)
			th.AddRemote(sim.NewLabel("shootdown.ipi_handler"), 1)
			th.PushAttr(sim.NewLabel("syscall.read"))
			c.Begin(th, "syscall.read")
			th.ChargeAs(sim.NewLabel("remote_read"), 1)
			th.Charge(1)
			c.Wait(th, WaitMmapSem, 1)
			c.End(th)
			th.PopAttr()
			th.Charge(1)
			th.Yield() // hands the token to t1, which hands it back
			th.ChargeAs(sim.NewLabel("ipi_send"), 1)
			c.End(th)
		}
		step() // intern the paths, grow the charge tables and pools
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

// Every span boundary charges zero cycles under one of these leaf
// labels, so the tables hold zero-cycle rows whose counts the program
// fixes: one per Begin or End hook run.
const (
	markBegin = "span_begin"
	markEnd   = "span_end"
)

// wiring is how a replay connects its engines to its collector. The
// account is attached to every engine in both.
type wiring int

const (
	// attached: the collector is attached to each engine, so it reads
	// their tallies.
	attached wiring = iota
	// fed: the collector is fed through Observe. At each of a thread's
	// span boundaries it gets the thread's row deltas since its previous
	// boundary, and after each engine's run the remainder, so each
	// charge meets the span stack it was made under: a thread's stack
	// changes only at its own boundaries.
	fed
)

// replayRun is the observable outcome of one replay.
type replayRun struct {
	acct    *obs.CycleAccount
	col     *Collector
	engines [2]*sim.Engine
	charged uint64 // Σ TotalCharged over both engines
	marks   uint64 // boundary hooks run
	shapes  spanShapes
}

// spanShapes counts the span windows a tally-reading collector must get
// right: spans with a child, spans another thread charged cycles inside
// of, and spans a remote booking landed inside of.
type spanShapes struct {
	nested, interleaved, remoteInside int
}

// openSpan is one span a replay's hooks have open: what was charged
// outside and onto its thread when it began, and whether a child ended.
type openSpan struct {
	others, remote uint64
	kids           bool
}

// replay runs progs[i] on engine i, one after the other, both engines
// sharing one account and collector the way Boot's ager, setup and main
// engines do. Spans mirror the programs' attribution frames, and each
// engine's run is a collector segment.
func replay(progs [2][][]simtest.Op, w wiring) replayRun {
	r := replayRun{acct: obs.NewCycleAccount(), col: New(2)}
	for i, prog := range progs {
		e := sim.New()
		r.engines[i] = e
		(&obs.Obs{Cycles: r.acct}).Attach(e)
		if w == attached {
			r.col.Attach(e)
		}
		seen := map[*sim.Thread][]sim.Row{} // each thread's rows as last fed
		feed := func(t *sim.Thread) {
			prev := seen[t]
			for id, row := range t.Rows() {
				var p sim.Row
				if id < len(prev) {
					p = prev[id]
				}
				if row != p {
					path := e.Path(id)
					r.col.Observe(t, path, row.Cycles-p.Cycles, path == simtest.RemotePath)
				}
			}
			seen[t] = append(prev[:0], t.Rows()...)
		}
		stacks := map[*sim.Thread][]openSpan{}
		boundary := func(t *sim.Thread, mark string) {
			t.ChargeAs(sim.NewLabel(mark), 0)
			r.marks++
			if w == fed {
				feed(t)
			}
		}
		hooks := simtest.Hooks{
			Push: func(t *sim.Thread, label sim.Label) {
				boundary(t, markBegin)
				r.col.Open(t, label)
				own, remote := ownCycles(e, t)
				stacks[t] = append(stacks[t], openSpan{others: e.TotalCharged() - own, remote: remote})
			},
			Pop: func(t *sim.Thread) {
				st := stacks[t]
				sp := st[len(st)-1]
				stacks[t] = st[:len(st)-1]
				own, remote := ownCycles(e, t)
				if sp.kids {
					r.shapes.nested++
				}
				if e.TotalCharged()-own > sp.others {
					r.shapes.interleaved++
				}
				if remote > sp.remote {
					r.shapes.remoteInside++
				}
				if len(st) > 1 {
					st[len(st)-2].kids = true
				}
				boundary(t, markEnd)
				r.col.End(t)
			},
		}
		r.col.StartSegment(fmt.Sprintf("e%d", i))
		simtest.Run(e, prog, hooks)
		if w == fed {
			for _, t := range e.Threads() {
				feed(t)
			}
		}
		r.charged += e.TotalCharged()
	}
	return r
}

// ownCycles sums what was charged onto t: all its rows, and its
// simtest.RemotePath row alone.
func ownCycles(e *sim.Engine, t *sim.Thread) (own, remote uint64) {
	for id, row := range t.Rows() {
		own += row.Cycles
		if e.Path(id) == simtest.RemotePath {
			remote = row.Cycles
		}
	}
	return own, remote
}

// reference rebuilds, from the engines' charge tables alone, what the
// account and collector must report: the snapshot (a core charged only
// zero cycles still gets a ByCore entry), the per-root cycles, local
// versus remote cycles, each engine segment's wait totals and how many
// boundary markers were charged.
type reference struct {
	snap          obs.CycleSnapshot
	roots         map[string]uint64
	local, remote uint64
	segs          []segWait
	marks         uint64
}

type segWait struct {
	id    string
	waits map[string]uint64
}

func referenceOf(engines [2]*sim.Engine) reference {
	ref := reference{
		snap:  obs.CycleSnapshot{Leaves: map[string]obs.CycleLeaf{}},
		roots: map[string]uint64{},
		segs:  []segWait{{"e0", map[string]uint64{}}, {"e1", map[string]uint64{}}},
	}
	for i, e := range engines {
		for _, t := range e.Threads() {
			for id, row := range t.Rows() {
				if row.Count == 0 {
					continue
				}
				path := e.Path(id)
				l := ref.snap.Leaves[path]
				if l.ByCore == nil {
					l.ByCore = map[int]uint64{}
				}
				l.Cycles += row.Cycles
				l.Count += row.Count
				l.ByCore[t.Core] += row.Cycles
				ref.snap.Leaves[path] = l
				ref.snap.Total += row.Cycles
				root, _, _ := strings.Cut(path, ".")
				ref.roots[root] += row.Cycles
				if isMark(path) {
					ref.marks += row.Count
				}
				if path == simtest.RemotePath {
					ref.remote += row.Cycles
					continue
				}
				ref.local += row.Cycles
				if k := classify(path); k != 0 {
					ref.segs[i].waits[WaitKind(k).String()] += row.Cycles
				}
			}
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

// isMark reports whether path is a span-boundary marker.
func isMark(path string) bool {
	return strings.HasSuffix(path, "."+markBegin) || strings.HasSuffix(path, "."+markEnd)
}

// TestAdapterEquivalence replays seeded random charge programs on two
// engines sharing one account and collector: once with the collector
// attached (it reads the engines' tallies) and once feeding it each
// thread's charge-table deltas through Observe, span boundary by span
// boundary. The attached collector must match the fed one — the full
// export, booked/outside/remote cycles — and both accounts and
// collectors must match a reference rebuilt from the engines' tables:
// snapshot (including zero-cycle ByCore entries), root cycles, local and
// remote cycles and per-segment wait totals. The marker rows must count
// every boundary hook. The two engines' programs differ, so the same
// path id names different paths in each. Each engine's first thread also
// opens one span holding 300 classified charges.
func TestAdapterEquivalence(t *testing.T) {
	const nthreads, nops = 8, 60
	long := []simtest.Op{{Kind: simtest.OpPush, Label: sim.NewLabel("copy")}}
	for i := 0; i < 300; i++ {
		long = append(long, simtest.Op{Kind: simtest.OpChargeAs, Label: sim.NewLabel("bw_stall"), Cycles: 3})
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
			a, f := replay(progs, attached), replay(progs, fed)
			ref := referenceOf(a.engines)
			shapes.nested += a.shapes.nested
			shapes.interleaved += a.shapes.interleaved
			shapes.remoteInside += a.shapes.remoteInside

			if !sharesID(a.engines) {
				t.Fatal("premise: no path id names different paths in the two engines")
			}
			for _, l := range ref.snap.Leaves {
				for _, v := range l.ByCore {
					if v == 0 {
						zeroEntries++
					}
				}
			}
			if ref.marks != a.marks {
				t.Errorf("marker rows count %d charges, the hooks charged %d", ref.marks, a.marks)
			}

			for _, r := range []struct {
				name string
				run  replayRun
			}{{"attached", a}, {"fed", f}} {
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
				var segs []segWait
				for _, s := range col.Export() {
					segs = append(segs, segWait{s.Segment, s.WaitTotals})
				}
				if !reflect.DeepEqual(segs, ref.segs) {
					t.Errorf("%s: segment wait totals %+v, want %+v", r.name, segs, ref.segs)
				}
			}
			if a.col.BookedCycles() != f.col.BookedCycles() || a.col.OutsideCycles() != f.col.OutsideCycles() {
				t.Errorf("booked/outside: attached %d/%d, fed %d/%d",
					a.col.BookedCycles(), a.col.OutsideCycles(), f.col.BookedCycles(), f.col.OutsideCycles())
			}
			if ae, fe := a.col.Export(), f.col.Export(); !reflect.DeepEqual(ae, fe) {
				t.Errorf("span exports differ between the attached and fed collectors:\nattached %+v\n     fed %+v", ae, fe)
			}
		})
	}
	if zeroEntries == 0 {
		t.Fatal("premise: no leaf was charged only zero cycles on some core")
	}
	t.Logf("span shapes: %+v", shapes)
	if shapes.nested == 0 || shapes.interleaved == 0 || shapes.remoteInside == 0 {
		t.Fatalf("premise: spans of every shape, got %+v", shapes)
	}
}

// sharesID reports whether some path id names different paths in the two
// engines. A table covers ids up to its engine's path count when it last
// grew, so the longest table bounds the ids an engine has interned.
func sharesID(engines [2]*sim.Engine) bool {
	var n [2]int
	for i, e := range engines {
		for _, t := range e.Threads() {
			n[i] = max(n[i], len(t.Rows()))
		}
	}
	for id := 0; id < min(n[0], n[1]); id++ {
		if engines[0].Path(id) != engines[1].Path(id) {
			return true
		}
	}
	return false
}
