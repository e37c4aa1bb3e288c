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

// booking is one charge as a consumer receives it.
type booking struct {
	core   int
	thread string
	id     int
	path   string
	cycles uint64
	remote bool
}

// progTrace is everything observable about one run: final thread clocks,
// engine totals, the exact charge stream, per-lock acquisition counts
// and the first exclusion violation seen, if any.
type progTrace struct {
	clocks   map[string]uint64
	charged  uint64
	events   uint64
	maxClock uint64
	charges  []booking
	simtest.Result
}

// runProgram executes a generated program on a fresh engine and records
// its trace.
func runProgram(progs [][]simtest.Op) progTrace {
	e := sim.New()
	var tr progTrace
	e.SetChargeConsumer(func(paths []string, batch []sim.Charge) {
		for _, c := range batch {
			tr.charges = append(tr.charges, booking{c.T.Core, c.T.Name, int(c.ID), paths[c.ID], c.Cycles, c.Remote})
		}
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
// engines yields identical final clocks, engine totals and charge
// streams. Every artifact's byte-identity rests on this.
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
		compareBookings(t, a.charges, b.charges)
	})
}

// TestProgramChargeStreams pins the charge stream on random programs:
// only AddRemote bookings are flagged remote, ids and paths are in
// one-to-one correspondence, and the cycles sum to TotalCharged.
func TestProgramChargeStreams(t *testing.T) {
	forSeeds(t, func(t *testing.T, progs [][]simtest.Op) {
		tr := runProgram(progs)
		var sum uint64
		pathOf, idOf := map[int]string{}, map[string]int{}
		for i, c := range tr.charges {
			if c.remote != (c.path == simtest.RemotePath) {
				t.Fatalf("charge %d: remote=%v on path %q", i, c.remote, c.path)
			}
			if p, ok := pathOf[c.id]; ok && p != c.path {
				t.Fatalf("charge %d: id %d names %q and %q", i, c.id, p, c.path)
			}
			if id, ok := idOf[c.path]; ok && id != c.id {
				t.Fatalf("charge %d: path %q has ids %d and %d", i, c.path, id, c.id)
			}
			pathOf[c.id], idOf[c.path] = c.path, c.id
			sum += c.cycles
		}
		if sum != tr.charged {
			t.Fatalf("charges sum to %d cycles, TotalCharged = %d", sum, tr.charged)
		}
		if tr.events < uint64(len(tr.charges)) {
			t.Fatalf("Events() = %d, below the %d charges", tr.events, len(tr.charges))
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

func compareBookings(t *testing.T, want, got []booking) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("charge count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("charge %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
