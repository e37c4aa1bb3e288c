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
// allocations: an engine feeding a real CycleAccount through its
// consumer and tallying for a Collector allocates nothing on a warm step
// of Charge, ChargeAs with classified labels, AddRemote and
// PushAttr/PopAttr inside nested spans, Begin/End pairs (which book the
// thread's tally), Wait inside and outside a span, and a handoff to
// another thread inside a span (which delivers the buffer).
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
			c.Wait(th, WaitMmapSem, 1) // outside any span: segment only
			c.Begin(th, "op")
			th.Charge(1)
			th.ChargeAs("bw_stall", 1)
			th.AddRemote("shootdown.ipi_handler", 1)
			th.PushAttr("syscall.read")
			c.Begin(th, "syscall.read")
			th.ChargeAs("remote_read", 1)
			th.Charge(1)
			c.Wait(th, WaitMmapSem, 1)
			c.End(th)
			th.PopAttr()
			th.Charge(1)
			th.Yield() // hands the token to t1, which hands it back
			th.ChargeAs("ipi_send", 1)
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

// Span boundaries show in the charge stream as zero-cycle charges with
// these leaf labels: the replay hooks make one at every Begin and End on
// every wiring, so every wiring's stream is the same.
const (
	markBegin = "span_begin"
	markEnd   = "span_end"
)

// charge is one recorded engine charge: the engine's index, the thread
// it booked onto and what the consumer received.
type charge struct {
	engine int
	thread string
	core   int
	id     int32
	path   string
	cycles uint64
	remote bool
}

// wiring is how a replay connects its engines to its account and
// collector.
type wiring int

const (
	// attached: the account is each engine's consumer and the collector
	// is attached to each engine, so it reads their tallies.
	attached wiring = iota
	// recorded: a consumer records the delivered charge stream and books
	// it into the account by path.
	recorded
	// fed: the collector is fed a recorded stream through Observe. At each
	// span boundary it first gets the charges up to that boundary's
	// marker, so each charge meets the span stack it was made under.
	fed
)

// replayRun is the observable outcome of one replay.
type replayRun struct {
	acct    *obs.CycleAccount
	col     *Collector
	charged uint64   // Σ TotalCharged over both engines
	rec     []charge // the delivered stream, when recorded
}

// replay runs progs[i] on engine i, one after the other, both engines
// sharing one account and collector the way Boot's ager, setup and main
// engines do. Spans mirror the programs' attribution frames, and each
// engine's run is a collector segment. feed is the recorded stream a fed
// replay observes.
func replay(progs [2][][]simtest.Op, w wiring, feed []charge) replayRun {
	r := replayRun{acct: obs.NewCycleAccount(), col: New(2)}
	next := 0 // feed[next] is the first charge not yet observed
	for i, prog := range progs {
		i := i
		e := sim.New()
		switch w {
		case attached:
			(&obs.Obs{Cycles: r.acct}).Attach(e)
			r.col.Attach(e)
		case recorded:
			e.SetChargeConsumer(func(paths []string, batch []sim.Charge) {
				for _, c := range batch {
					p := paths[c.ID]
					r.rec = append(r.rec, charge{i, c.T.Name, c.T.Core, c.ID, p, c.Cycles, c.Remote})
					r.acct.Charge(c.T.Core, p, c.Cycles)
				}
			})
		}
		// observe feeds engine i's recorded charges to the collector, up
		// to and including t's marker with leaf label mark, or all of them
		// when t is nil.
		threads := map[string]*sim.Thread{}
		observe := func(t *sim.Thread, mark string) {
			for next < len(feed) && feed[next].engine == i {
				c := feed[next]
				next++
				if len(threads) == 0 {
					for _, th := range e.Threads() {
						threads[th.Name] = th
					}
				}
				r.col.Observe(threads[c.thread], c.path, c.cycles, c.remote)
				if t == nil || !isMark(c.path) {
					continue
				}
				if c.thread != t.Name || !strings.HasSuffix(c.path, "."+mark) {
					panic(fmt.Sprintf("%s at %s: the stream's next marker is %s of %s", mark, t.Name, c.path, c.thread))
				}
				return
			}
			if t != nil {
				panic(fmt.Sprintf("%s at %s: no marker left in the stream", mark, t.Name))
			}
		}
		boundary := func(t *sim.Thread, mark string) {
			t.ChargeAs(mark, 0)
			if w == fed {
				observe(t, mark)
			}
		}
		hooks := simtest.Hooks{
			Push: func(t *sim.Thread, label string) {
				boundary(t, markBegin)
				r.col.Begin(t, label)
			},
			Pop: func(t *sim.Thread) {
				boundary(t, markEnd)
				r.col.End(t)
			},
		}
		r.col.StartSegment(fmt.Sprintf("e%d", i))
		simtest.Run(e, prog, hooks)
		if w == fed {
			observe(nil, "")
		}
		r.charged += e.TotalCharged()
	}
	return r
}

// isMark reports whether path is a span-boundary marker.
func isMark(path string) bool {
	return strings.HasSuffix(path, "."+markBegin) || strings.HasSuffix(path, "."+markEnd)
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

type segWait struct {
	id    string
	waits map[string]uint64
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
		if k := classify(c.path); k != 0 {
			ref.segs[c.engine].waits[WaitKind(k).String()] += c.cycles
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

// streamShapes counts, in a recorded stream, the span windows a
// tally-reading collector must get right: spans with a child, spans
// another thread charged cycles inside of, and remote bookings onto a
// thread with a span open.
type streamShapes struct {
	nested, interleaved, remoteInside int
}

func shapesOf(rec []charge) streamShapes {
	var sh streamShapes
	type open struct {
		at   int  // index of the begin marker
		kids bool // a child span ended inside
	}
	stacks := map[string][]open{} // engine/thread -> open spans
	for i, c := range rec {
		key := fmt.Sprint(c.engine, "/", c.thread)
		st := stacks[key]
		switch {
		case c.remote:
			if len(st) > 0 && c.cycles > 0 {
				sh.remoteInside++
			}
		case strings.HasSuffix(c.path, "."+markBegin):
			stacks[key] = append(st, open{at: i})
		case strings.HasSuffix(c.path, "."+markEnd):
			sp := st[len(st)-1]
			stacks[key] = st[:len(st)-1]
			if sp.kids {
				sh.nested++
			}
			if len(st) > 1 {
				st[len(st)-2].kids = true
			}
			for _, o := range rec[sp.at:i] {
				if o.thread != c.thread && o.cycles > 0 {
					sh.interleaved++
					break
				}
			}
		}
	}
	return sh
}

// TestAdapterEquivalence replays seeded random charge programs on two
// engines sharing one account and collector: once with both attached
// (the account consumes the stream by path id, the collector reads the
// engines' tallies), once recording the delivered stream into an account
// by path, and once feeding that recorded stream to a collector through
// Observe, span boundary by span boundary. The attached collector must
// match the fed one — the full export, booked/outside/remote cycles —
// and both accounts and collectors must match a reference rebuilt from
// the stream: snapshot (including zero-cycle ByCore entries), root
// cycles, local and remote cycles and per-segment wait totals. The two
// engines' programs differ, so the same path id names different paths
// in each. Each engine's first thread also opens one span holding more
// than a full batch of classified charges.
func TestAdapterEquivalence(t *testing.T) {
	const nthreads, nops = 8, 60
	long := []simtest.Op{{Kind: simtest.OpPush, Label: "copy"}}
	for i := 0; i < 300; i++ {
		long = append(long, simtest.Op{Kind: simtest.OpChargeAs, Label: "bw_stall", Cycles: 3})
	}
	long = append(long, simtest.Op{Kind: simtest.OpPop})
	var zeroEntries int
	var shapes streamShapes
	for seed := int64(1); seed <= 5; seed++ {
		progs := [2][][]simtest.Op{
			simtest.Generate(seed, nthreads, nops),
			simtest.Generate(seed+100, nthreads, nops),
		}
		for i := range progs {
			progs[i][0] = append(append([]simtest.Op(nil), long...), progs[i][0]...)
		}
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			a, s := replay(progs, attached, nil), replay(progs, recorded, nil)
			f := replay(progs, fed, s.rec)
			ref := referenceOf(s.rec)
			sh := shapesOf(s.rec)
			shapes.nested += sh.nested
			shapes.interleaved += sh.interleaved
			shapes.remoteInside += sh.remoteInside

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
			}{{"attached", a}, {"recorded", s}} {
				if got := r.run.acct.Snapshot(); !reflect.DeepEqual(got, ref.snap) {
					t.Errorf("%s: snapshot differs from the reference:\n got %+v\nwant %+v", r.name, got, ref.snap)
				}
				if got := r.run.acct.RootCycles(); !reflect.DeepEqual(got, ref.roots) {
					t.Errorf("%s: root cycles %v, want %v", r.name, got, ref.roots)
				}
				if got := r.run.acct.Total(); got != r.run.charged {
					t.Errorf("%s: account total %d, engines charged %d", r.name, got, r.run.charged)
				}
			}
			for _, r := range []struct {
				name string
				col  *Collector
			}{{"attached", a.col}, {"fed", f.col}} {
				col := r.col
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
