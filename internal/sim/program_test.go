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

// progTrace is everything observable about one run: final thread clocks,
// engine totals, each thread's charge table and tally, the paths their
// ids name, per-lock acquisition counts and the first exclusion
// violation seen, if any.
type progTrace struct {
	clocks   map[string]uint64
	charged  uint64
	events   uint64
	maxClock uint64
	rows     map[string][]sim.Row
	local    map[string]uint64 // Tally().Local by thread
	paths    []string          // by id, up to the longest table
	simtest.Result
}

// runProgram executes a generated program on a fresh engine and records
// its trace.
func runProgram(progs [][]simtest.Op) progTrace {
	e := sim.New()
	tr := progTrace{Result: simtest.Run(e, progs, simtest.Hooks{})}
	tr.maxClock = e.MaxClock()
	tr.charged = e.TotalCharged()
	tr.events = e.Events()
	tr.clocks = make(map[string]uint64)
	tr.rows = make(map[string][]sim.Row)
	tr.local = make(map[string]uint64)
	for _, t := range e.Threads() {
		tr.clocks[t.Name] = t.Now()
		tr.rows[t.Name] = t.Rows()
		tr.local[t.Name] = t.Tally().Local
		for id := len(tr.paths); id < len(t.Rows()); id++ {
			tr.paths = append(tr.paths, e.Path(id))
		}
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
// engines yields identical final clocks, engine totals, charge tables and
// path ids. Every artifact's byte-identity rests on this.
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
		if !reflect.DeepEqual(a.paths, b.paths) {
			t.Fatalf("path ids differ:\n%v\n%v", a.paths, b.paths)
		}
		if !reflect.DeepEqual(a.rows, b.rows) {
			t.Fatalf("charge tables differ:\n%v\n%v", a.rows, b.rows)
		}
	})
}

// TestProgramChargeTables pins the charge tables on random programs
// against what the program itself says: a thread's simtest.RemotePath row
// holds exactly the OpRemote bookings aimed at it, zero-cycle ones
// counted; its other rows sum to its tally's Local; all rows sum to
// TotalCharged, and their count is within Events. Ids name distinct
// paths.
func TestProgramChargeTables(t *testing.T) {
	forSeeds(t, func(t *testing.T, progs [][]simtest.Op) {
		tr := runProgram(progs)
		remote := map[string]sim.Row{}
		for _, prog := range progs {
			for _, o := range prog {
				if o.Kind == simtest.OpRemote {
					name := fmt.Sprintf("t%d", o.Target)
					r := remote[name]
					r.Cycles += o.Cycles
					r.Count++
					remote[name] = r
				}
			}
		}
		idOf := map[string]int{}
		for id, p := range tr.paths {
			if prev, ok := idOf[p]; ok {
				t.Fatalf("path %q has ids %d and %d", p, prev, id)
			}
			idOf[p] = id
		}
		var sum, count uint64
		for name, rows := range tr.rows {
			var local uint64
			var rem sim.Row
			for id, r := range rows {
				sum += r.Cycles
				count += r.Count
				if tr.paths[id] == simtest.RemotePath {
					rem = r
				} else {
					local += r.Cycles
				}
			}
			if rem != remote[name] {
				t.Errorf("%s: %s row %+v, the program aims %+v at it", name, simtest.RemotePath, rem, remote[name])
			}
			if local != tr.local[name] {
				t.Errorf("%s: local rows sum to %d cycles, tally Local = %d", name, local, tr.local[name])
			}
		}
		if sum != tr.charged {
			t.Fatalf("rows sum to %d cycles, TotalCharged = %d", sum, tr.charged)
		}
		if tr.events < count {
			t.Fatalf("Events() = %d, below the %d charges", tr.events, count)
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
