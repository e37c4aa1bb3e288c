// Package simtest generates seeded random thread programs and replays them
// on a sim.Engine: charges, sleeps, yields, attribution frames, lock ops
// (mutex / spin / rwsem), event block/wake and remote IPI bookings. The
// engine's property tests and the tests of what reads its charge tables
// and tallies (the cycle account, the span collector) share it.
package simtest

import (
	"fmt"
	"math/rand"

	"daxvm/internal/sim"
)

// Op is one step of a generated thread program.
type Op struct {
	Kind   int
	Cycles uint64
	Label  sim.Label
	Target int // AddRemote target thread index
}

// Op kinds.
const (
	OpCharge = iota
	OpChargeAs
	OpSleep
	OpYield
	OpPush
	OpPop
	OpMutex
	OpSpin
	OpRead
	OpWrite
	OpRemote
	OpWaitEvent
	numOpKinds
)

// labels are the frame and leaf labels programs draw from.
var labels = []sim.Label{sim.NewLabel("walk"), sim.NewLabel("bw_stall"), sim.NewLabel("ipi_send"), sim.NewLabel("copy")}

// RemotePath is the attribution path of every AddRemote booking; no local
// frame can produce it. Its leaf is a label the span layer classifies as
// a wait, so a reader that wrongly classified remote bookings shows it.
const RemotePath = "shootdown.ipi_wait"

var remoteLabel = sim.NewLabel(RemotePath)

// Generate builds a randomized program for nthreads threads from seed.
// About one op in eight carries zero cycles. The program is plain data,
// so every run executes the identical op sequence.
func Generate(seed int64, nthreads, nops int) [][]Op {
	rng := rand.New(rand.NewSource(seed))
	progs := make([][]Op, nthreads)
	for i := range progs {
		depth := 0
		for j := 0; j < nops; j++ {
			o := Op{Kind: rng.Intn(numOpKinds), Cycles: uint64(1 + rng.Intn(4000))}
			if rng.Intn(8) == 0 {
				o.Cycles = 0
			}
			switch o.Kind {
			case OpChargeAs:
				o.Label = labels[rng.Intn(len(labels))]
			case OpPush:
				if depth >= 3 {
					o.Kind = OpCharge
				} else {
					o.Label = labels[rng.Intn(len(labels))]
					depth++
				}
			case OpPop:
				if depth == 0 {
					o.Kind = OpYield
				} else {
					depth--
				}
			case OpRemote:
				o.Target = rng.Intn(nthreads)
			}
			progs[i] = append(progs[i], o)
		}
		for ; depth > 0; depth-- {
			progs[i] = append(progs[i], Op{Kind: OpPop})
		}
	}
	return progs
}

// Hooks, when set, run right after each PushAttr and right before each
// PopAttr — where a test opens and closes spans that mirror the frames.
type Hooks struct {
	Push func(t *sim.Thread, label sim.Label)
	Pop  func(t *sim.Thread)
}

// Result is what Run observes beyond the engine's own state: per-lock
// acquisition counts and the first exclusion violation seen, if any.
type Result struct {
	Acquired  map[int]uint64 // lock op kind -> Stats.Acquisitions
	Violation string
}

// Run spawns one thread per program on e (thread i is "t<i>" on core i,
// starting at cycle 37·i), runs e to completion and reports lock behaviour.
// Attach e or set its classifier before calling it.
func Run(e *sim.Engine, progs [][]Op, h Hooks) Result {
	var res Result
	mu := sim.NewMutex(2200)
	var spin sim.SpinLock
	rw := sim.NewRWSem(2200)
	var ev sim.Event
	var mutexIn, spinIn, readersIn, writersIn int
	check := func(ok bool, format string, args ...any) {
		if !ok && res.Violation == "" {
			res.Violation = fmt.Sprintf(format, args...)
		}
	}
	ths := make([]*sim.Thread, len(progs))
	for i, prog := range progs {
		prog := prog
		ths[i] = e.Go(fmt.Sprintf("t%d", i), i, uint64(i)*37, func(t *sim.Thread) {
			for _, o := range prog {
				switch o.Kind {
				case OpCharge:
					t.Charge(o.Cycles)
				case OpChargeAs:
					t.ChargeAs(o.Label, o.Cycles)
				case OpSleep:
					t.Sleep(o.Cycles)
				case OpYield:
					t.Yield()
				//lint:ignore attrbalance Generate closes every pushed frame with a later OpPop
				case OpPush:
					t.PushAttr(o.Label)
					if h.Push != nil {
						h.Push(t, o.Label)
					}
				case OpPop:
					if h.Pop != nil {
						h.Pop(t)
					}
					//lint:ignore attrbalance pops the frame an earlier OpPush opened
					t.PopAttr()
				case OpMutex:
					mu.Lock(t, 80)
					mutexIn++
					check(mutexIn == 1, "%s: %d mutex holders at %d", t.Name, mutexIn, t.Now())
					t.Charge(o.Cycles)
					mutexIn--
					mu.Unlock(t, 40)
				case OpSpin:
					spin.Lock(t, 80)
					spinIn++
					check(spinIn == 1, "%s: %d spinlock holders at %d", t.Name, spinIn, t.Now())
					t.Charge(o.Cycles)
					spinIn--
					spin.Unlock(t, 40)
				case OpRead:
					rw.RLock(t, 80)
					readersIn++
					check(writersIn == 0, "%s: reader admitted beside a writer at %d", t.Name, t.Now())
					t.Charge(o.Cycles)
					readersIn--
					rw.RUnlock(t, 40)
				case OpWrite:
					rw.Lock(t, 80)
					writersIn++
					check(writersIn == 1 && readersIn == 0, "%s: writer admitted beside %d writers, %d readers at %d",
						t.Name, writersIn-1, readersIn, t.Now())
					t.Charge(o.Cycles)
					writersIn--
					rw.Unlock(t, 40)
				case OpRemote:
					ths[o.Target].AddRemote(remoteLabel, o.Cycles)
				case OpWaitEvent:
					ev.Wait(t, "prog-event")
				}
			}
		})
	}
	// Broadcaster daemon: guarantees event waiters always wake, so a
	// random program can never deadlock on OpWaitEvent.
	e.GoDaemon("broadcaster", 0, 0, func(t *sim.Thread) {
		for {
			ev.Broadcast(t)
			t.Sleep(5_000)
		}
	})
	e.Run()
	res.Acquired = map[int]uint64{
		OpMutex: mu.Stats.Acquisitions,
		OpSpin:  spin.Stats.Acquisitions,
		OpRead:  rw.ReaderStats.Acquisitions,
		OpWrite: rw.Stats.Acquisitions,
	}
	return res
}
