package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// Whole-engine property tests over seeded random programs: charges,
// sleeps, yields, attribution frames, lock ops (mutex / spin / rwsem),
// event block/wake and remote IPI bookings, run on the sequential engine.

// op is one step of a generated thread program.
type op struct {
	kind   int
	cycles uint64
	label  string
	target int // AddRemote target thread index
}

const (
	opCharge = iota
	opChargeAs
	opSleep
	opYield
	opPush
	opPop
	opMutex
	opSpin
	opRead
	opWrite
	opRemote
	opWaitEvent
	numOpKinds
)

var opLabels = []string{"walk", "bw_stall", "ipi_send", "copy"}

// remotePath is the attribution path of every AddRemote booking; no
// local frame can produce it.
const remotePath = "ipi.remote"

// genProgram builds a randomized program for nthreads threads from seed.
// The program is plain data, so every run executes the identical op
// sequence.
func genProgram(seed int64, nthreads, nops int) [][]op {
	rng := rand.New(rand.NewSource(seed))
	progs := make([][]op, nthreads)
	for i := range progs {
		depth := 0
		for j := 0; j < nops; j++ {
			o := op{kind: rng.Intn(numOpKinds), cycles: uint64(1 + rng.Intn(4000))}
			switch o.kind {
			case opChargeAs:
				o.label = opLabels[rng.Intn(len(opLabels))]
			case opPush:
				if depth >= 3 {
					o.kind = opCharge
				} else {
					o.label = opLabels[rng.Intn(len(opLabels))]
					depth++
				}
			case opPop:
				if depth == 0 {
					o.kind = opYield
				} else {
					depth--
				}
			case opRemote:
				o.target = rng.Intn(nthreads)
			}
			progs[i] = append(progs[i], o)
		}
		for ; depth > 0; depth-- {
			progs[i] = append(progs[i], op{kind: opPop})
		}
	}
	return progs
}

// booking is one sink or observer call. The sink leaves thread empty and
// remote false; it reports only core, path and cycles.
type booking struct {
	core   int
	thread string
	path   string
	cycles uint64
	remote bool
}

// progTrace is everything observable about one run: final thread clocks,
// engine totals, the exact sink/observer call sequences, per-lock
// acquisition counts and the first exclusion violation seen, if any.
type progTrace struct {
	clocks    map[string]uint64
	charged   uint64
	events    uint64
	maxClock  uint64
	sink      []booking
	observer  []booking
	acquired  map[int]uint64 // lock op kind -> Stats.Acquisitions
	violation string
}

// runProgram executes a generated program on a fresh engine and records
// its trace.
func runProgram(progs [][]op) progTrace {
	e := New()
	var tr progTrace
	e.SetChargeSink(func(core int, path string, cycles uint64) {
		tr.sink = append(tr.sink, booking{core: core, path: path, cycles: cycles})
	})
	e.SetChargeObserver(func(t *Thread, path string, cycles uint64, remote bool) {
		tr.observer = append(tr.observer, booking{t.Core, t.Name, path, cycles, remote})
	})
	mu := NewMutex(2200)
	var spin SpinLock
	rw := NewRWSem(2200)
	var ev Event
	var mutexIn, spinIn, readersIn, writersIn int
	check := func(ok bool, format string, args ...any) {
		if !ok && tr.violation == "" {
			tr.violation = fmt.Sprintf(format, args...)
		}
	}
	ths := make([]*Thread, len(progs))
	for i, prog := range progs {
		prog := prog
		ths[i] = e.Go(fmt.Sprintf("t%d", i), i, uint64(i)*37, func(t *Thread) {
			for _, o := range prog {
				switch o.kind {
				case opCharge:
					t.Charge(o.cycles)
				case opChargeAs:
					t.ChargeAs(o.label, o.cycles)
				case opSleep:
					t.Sleep(o.cycles)
				case opYield:
					t.Yield()
				case opPush:
					t.PushAttr(o.label)
				case opPop:
					t.PopAttr()
				case opMutex:
					mu.Lock(t, 80)
					mutexIn++
					check(mutexIn == 1, "%s: %d mutex holders at %d", t.Name, mutexIn, t.Now())
					t.Charge(o.cycles)
					mutexIn--
					mu.Unlock(t, 40)
				case opSpin:
					spin.Lock(t, 80)
					spinIn++
					check(spinIn == 1, "%s: %d spinlock holders at %d", t.Name, spinIn, t.Now())
					t.Charge(o.cycles)
					spinIn--
					spin.Unlock(t, 40)
				case opRead:
					rw.RLock(t, 80)
					readersIn++
					check(writersIn == 0, "%s: reader admitted beside a writer at %d", t.Name, t.Now())
					t.Charge(o.cycles)
					readersIn--
					rw.RUnlock(t, 40)
				case opWrite:
					rw.Lock(t, 80)
					writersIn++
					check(writersIn == 1 && readersIn == 0, "%s: writer admitted beside %d writers, %d readers at %d",
						t.Name, writersIn-1, readersIn, t.Now())
					t.Charge(o.cycles)
					writersIn--
					rw.Unlock(t, 40)
				case opRemote:
					ths[o.target].AddRemote(remotePath, o.cycles)
				case opWaitEvent:
					ev.Wait(t, "prog-event")
				}
			}
		})
	}
	// Broadcaster daemon: guarantees event waiters always wake, so a
	// random program can never deadlock on opWaitEvent.
	e.GoDaemon("broadcaster", 0, 0, func(t *Thread) {
		for {
			ev.Broadcast(t)
			t.Sleep(5_000)
		}
	})
	tr.maxClock = e.Run()
	tr.charged = e.TotalCharged()
	tr.events = e.Events()
	tr.clocks = make(map[string]uint64)
	for _, t := range e.Threads() {
		tr.clocks[t.Name] = t.Now()
	}
	tr.acquired = map[int]uint64{
		opMutex: mu.Stats.Acquisitions,
		opSpin:  spin.Stats.Acquisitions,
		opRead:  rw.ReaderStats.Acquisitions,
		opWrite: rw.Stats.Acquisitions,
	}
	return tr
}

// forSeeds runs check as one subtest per seeded program.
func forSeeds(t *testing.T, check func(t *testing.T, progs [][]op)) {
	const nthreads, nops = 8, 60
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			check(t, genProgram(seed, nthreads, nops))
		})
	}
}

// TestProgramDeterminism pins replay: the same program run twice on fresh
// engines yields identical final clocks, engine totals and sink/observer
// call sequences. Every artifact's byte-identity rests on this.
func TestProgramDeterminism(t *testing.T) {
	forSeeds(t, func(t *testing.T, progs [][]op) {
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
// observer see the same charges in the same order (core, path, cycles),
// only AddRemote bookings are flagged remote, and the sink's cycles sum
// to TotalCharged.
func TestProgramChargeStreams(t *testing.T) {
	forSeeds(t, func(t *testing.T, progs [][]op) {
		tr := runProgram(progs)
		if len(tr.sink) != len(tr.observer) {
			t.Fatalf("sink saw %d charges, observer %d", len(tr.sink), len(tr.observer))
		}
		var sum uint64
		for i, s := range tr.sink {
			o := tr.observer[i]
			if s.core != o.core || s.path != o.path || s.cycles != o.cycles {
				t.Fatalf("charge %d: sink %+v, observer %+v", i, s, o)
			}
			if o.remote != (o.path == remotePath) {
				t.Fatalf("charge %d: remote=%v on path %q", i, o.remote, o.path)
			}
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
	forSeeds(t, func(t *testing.T, progs [][]op) {
		tr := runProgram(progs)
		if tr.violation != "" {
			t.Fatal(tr.violation)
		}
		want := map[int]uint64{opMutex: 0, opSpin: 0, opRead: 0, opWrite: 0}
		for _, prog := range progs {
			for _, o := range prog {
				if _, ok := want[o.kind]; ok {
					want[o.kind]++
				}
			}
		}
		if !reflect.DeepEqual(tr.acquired, want) {
			t.Fatalf("acquisitions by op kind = %v, want %v", tr.acquired, want)
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
