package sim_test

import (
	"fmt"
	"reflect"
	"testing"

	"daxvm/internal/sim"
	"daxvm/internal/sim/simtest"
)

// Whole-engine property tests over seeded random programs (package
// simtest), run on the sequential engine.

// booking is one sink or observer call. The sink leaves thread empty and
// remote false; it reports only core, id, path and cycles.
type booking struct {
	core   int
	thread string
	id     int
	path   string
	cycles uint64
	remote bool
}

// progTrace is everything observable about one run: final thread clocks,
// engine totals, the exact sink/observer call sequences, per-lock
// acquisition counts and the first exclusion violation seen, if any.
type progTrace struct {
	clocks   map[string]uint64
	charged  uint64
	events   uint64
	maxClock uint64
	sink     []booking
	observer []booking
	simtest.Result
}

// runProgram executes a generated program on a fresh engine and records
// its trace.
func runProgram(progs [][]simtest.Op) progTrace {
	e := sim.New()
	var tr progTrace
	e.SetChargeSink(func(core, id int, path string, cycles uint64) {
		tr.sink = append(tr.sink, booking{core: core, id: id, path: path, cycles: cycles})
	})
	e.SetChargeObserver(func(t *sim.Thread, id int, path string, cycles uint64, remote bool) {
		tr.observer = append(tr.observer, booking{t.Core, t.Name, id, path, cycles, remote})
	})
	tr.Result = simtest.Run(e, progs, simtest.Hooks{})
	tr.maxClock = e.MaxClock()
	tr.charged = e.TotalCharged()
	tr.events = e.Events()
	tr.clocks = make(map[string]uint64)
	for _, t := range e.Threads() {
		tr.clocks[t.Name] = t.Now()
	}
	return tr
}

// forSeeds runs check as one subtest per seeded program.
func forSeeds(t *testing.T, check func(t *testing.T, progs [][]simtest.Op)) {
	const nthreads, nops = 8, 60
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			check(t, simtest.Generate(seed, nthreads, nops))
		})
	}
}

// TestProgramDeterminism pins replay: the same program run twice on fresh
// engines yields identical final clocks, engine totals and sink/observer
// call sequences. Every artifact's byte-identity rests on this.
func TestProgramDeterminism(t *testing.T) {
	forSeeds(t, func(t *testing.T, progs [][]simtest.Op) {
		a, b := runProgram(progs), runProgram(progs)
		if a.charged != b.charged || a.events != b.events || a.maxClock != b.maxClock {
			t.Fatalf("totals differ: charged %d vs %d, events %d vs %d, maxClock %d vs %d",
				a.charged, b.charged, a.events, b.events, a.maxClock, b.maxClock)
		}
		if !reflect.DeepEqual(a.clocks, b.clocks) {
			t.Fatalf("final clocks differ:\n%v\n%v", a.clocks, b.clocks)
		}
		compareBookings(t, "sink", a.sink, b.sink)
		compareBookings(t, "observer", a.observer, b.observer)
	})
}

// TestProgramChargeStreams pins the direct emit path: the sink and the
// observer see the same charges in the same order (core, id, path,
// cycles), only AddRemote bookings are flagged remote, ids and paths are
// in one-to-one correspondence, and the sink's cycles sum to TotalCharged.
func TestProgramChargeStreams(t *testing.T) {
	forSeeds(t, func(t *testing.T, progs [][]simtest.Op) {
		tr := runProgram(progs)
		if len(tr.sink) != len(tr.observer) {
			t.Fatalf("sink saw %d charges, observer %d", len(tr.sink), len(tr.observer))
		}
		var sum uint64
		pathOf, idOf := map[int]string{}, map[string]int{}
		for i, s := range tr.sink {
			o := tr.observer[i]
			if s.core != o.core || s.id != o.id || s.path != o.path || s.cycles != o.cycles {
				t.Fatalf("charge %d: sink %+v, observer %+v", i, s, o)
			}
			if o.remote != (o.path == simtest.RemotePath) {
				t.Fatalf("charge %d: remote=%v on path %q", i, o.remote, o.path)
			}
			if p, ok := pathOf[s.id]; ok && p != s.path {
				t.Fatalf("charge %d: id %d names %q and %q", i, s.id, p, s.path)
			}
			if id, ok := idOf[s.path]; ok && id != s.id {
				t.Fatalf("charge %d: path %q has ids %d and %d", i, s.path, id, s.id)
			}
			pathOf[s.id], idOf[s.path] = s.path, s.id
			sum += s.cycles
		}
		if sum != tr.charged {
			t.Fatalf("sink cycles sum to %d, TotalCharged = %d", sum, tr.charged)
		}
		if tr.events < uint64(len(tr.sink)) {
			t.Fatalf("Events() = %d, below the %d charges", tr.events, len(tr.sink))
		}
	})
}

// TestProgramLockExclusion pins lock semantics under arbitrary
// interleavings: a mutex or spinlock never has two holders, an rwsem
// writer never shares with anyone, and every lock op is counted once.
func TestProgramLockExclusion(t *testing.T) {
	forSeeds(t, func(t *testing.T, progs [][]simtest.Op) {
		tr := runProgram(progs)
		if tr.Violation != "" {
			t.Fatal(tr.Violation)
		}
		want := map[int]uint64{simtest.OpMutex: 0, simtest.OpSpin: 0, simtest.OpRead: 0, simtest.OpWrite: 0}
		for _, prog := range progs {
			for _, o := range prog {
				if _, ok := want[o.Kind]; ok {
					want[o.Kind]++
				}
			}
		}
		if !reflect.DeepEqual(tr.Acquired, want) {
			t.Fatalf("acquisitions by op kind = %v, want %v", tr.Acquired, want)
		}
	})
}

func compareBookings(t *testing.T, kind string, want, got []booking) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s call count %d, want %d", kind, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s call %d = %+v, want %+v", kind, i, got[i], want[i])
		}
	}
}
