package bench

import (
	"strings"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
)

// TestCycleReconciliation asserts the profiler's core invariant on real
// experiment runs: every cycle an engine charges lands in the cycle
// account — no charge path bypasses attribution, nothing is double
// booked. Idle and lock-wait time advance thread clocks without Charge
// calls, so both sides of the comparison exclude them by construction.
func TestCycleReconciliation(t *testing.T) {
	for _, id := range []string{"storage", "ftcost", "numa"} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			o := obs.New(0)
			tl := timeline.New(o.Reg, o.Cycles, timeline.Config{})
			sp := span.New(3)
			t.Cleanup(CloseLast)
			e.Run(Options{Quick: true, Obs: o, Timeline: tl, Spans: sp})
			attributed := o.Cycles.Total()
			charged := o.EnginesTotal()
			if attributed == 0 {
				t.Fatal("no cycles attributed — engines not attached to the account")
			}
			if attributed != charged {
				t.Fatalf("attributed %d != engine-charged %d (drift %d)",
					attributed, charged, int64(attributed)-int64(charged))
			}
			// Nothing should charge without a frame: the simulator roots
			// every thread ("app", "setup", "daemon.*").
			snap := o.Cycles.Snapshot()
			if u := snap.TotalOf("unattributed"); u != 0 {
				t.Errorf("%d cycles unattributed", u)
			}
			// The timeline's per-interval cycle deltas must telescope back
			// to the full account: sampling loses nothing at the seams.
			var sampled uint64
			for _, ex := range tl.Export() {
				for _, iv := range ex.Intervals {
					sampled += iv.Cycles
				}
			}
			if sampled != attributed {
				t.Fatalf("timeline intervals sum to %d cycles, account holds %d (drift %d)",
					sampled, attributed, int64(sampled)-int64(attributed))
			}
			// The span layer reads the same charges through the threads'
			// tallies: booked (inside an open span) + outside (daemons,
			// setup bootstrap) + remote (AddRemote work, never booked into
			// the interrupted thread's span) must telescope to the same
			// engine total.
			if got := sp.ObservedCycles(); got != charged {
				t.Fatalf("span layer observed %d cycles, engines charged %d (booked %d outside %d remote %d)",
					got, charged, sp.BookedCycles(), sp.OutsideCycles(), sp.RemoteCycles())
			}
			if sp.BookedCycles() == 0 {
				t.Fatal("no cycles booked into spans — observer not wired")
			}
		})
	}
}

// TestSpanSelfTimeMatchesAttribution is the zero-unattributed discipline
// extended to the span layer, per op class: for every class whose Begin
// coincides with an attribution frame of the same name (syscalls, faults,
// shootdowns, journal commits), the summed span self-times must equal the
// cycles the account attributes to frames carrying that class segment.
// The two sides are computed by independent code paths from the same
// charges (the account from the threads' tables, the spans from their
// tallies), so any instrumentation gap — a charge escaping its span,
// a span outliving its frame — shows up as drift here.
func TestSpanSelfTimeMatchesAttribution(t *testing.T) {
	// classMatches reports whether an attribution leaf path contains the
	// class as a frame segment, anywhere from the root to the leaf:
	// "app.x.syscall.append" and "app.x.syscall.append.ntstore" both carry
	// "syscall.append", and the root frame "daemon.prezero" carries its
	// own class. The root-absolute remote path "shootdown.ipi_handler" is
	// the exception: it does not carry class "shootdown", because remote
	// work belongs to no span, and the matcher must agree.
	classMatches := func(path, class string) bool {
		if path == "shootdown.ipi_handler" {
			return false
		}
		return path == class || strings.HasPrefix(path, class+".") ||
			strings.Contains(path, "."+class+".") || strings.HasSuffix(path, "."+class)
	}
	for _, id := range []string{"storage", "ftcost", "numa", "ablate-throttle"} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			o := obs.New(0)
			sp := span.New(3)
			t.Cleanup(CloseLast)
			e.Run(Options{Quick: true, Obs: o, Spans: sp})
			snap := o.Cycles.Snapshot()

			seg, ok := sp.ExportSegment(id)
			if !ok {
				t.Fatalf("no span segment for %s", id)
			}
			if len(seg.Classes) == 0 {
				t.Fatal("no span classes recorded")
			}
			checked := 0
			for _, ce := range seg.Classes {
				// nova.log_append has no attribution frame of its own (the
				// charges book under the enclosing syscall), so the account
				// holds no independent number to check it against.
				if ce.Class == "nova.log_append" {
					continue
				}
				var want uint64
				for path, leaf := range snap.Leaves {
					if classMatches(path, ce.Class) {
						want += leaf.Cycles
					}
				}
				if ce.SelfCycles != want {
					t.Errorf("class %s: span self %d != attributed %d (drift %d)",
						ce.Class, ce.SelfCycles, want, int64(ce.SelfCycles)-int64(want))
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no classes cross-checked")
			}
		})
	}
}
