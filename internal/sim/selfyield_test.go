package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"daxvm/internal/sim"
)

// schedOp is one step of a scheduling script.
type schedOp struct {
	kind   int
	c      uint64 // Charge cycles, or the delay of a sleep or a wake
	target int    // Wake's thread
}

const (
	schedCharge = iota
	schedYield
	schedSleep
	schedBlock
	schedWake
	numSchedOps
)

// dispatch is one resumption of a thread: the thread and its clock when
// it got the token back (and after each step it runs without handing
// the token off).
type dispatch struct {
	th    int
	clock uint64
}

// schedScripts makes random scripts for n threads, with start clocks
// and small costs chosen so that wake times often tie.
func schedScripts(rng *rand.Rand, n, nops int) (starts []uint64, progs [][]schedOp) {
	starts = make([]uint64, n)
	progs = make([][]schedOp, n)
	for i := range progs {
		starts[i] = uint64(rng.Intn(3) * 10)
		for k := 0; k < nops; k++ {
			progs[i] = append(progs[i], schedOp{kind: rng.Intn(numSchedOps), c: uint64(rng.Intn(3) * 5), target: rng.Intn(n)})
		}
	}
	return starts, progs
}

// scriptState is the bookkeeping both runs of a script share: which
// threads wait in Block and which have finished. A thread blocks only
// while another one neither blocks nor has finished, and a finishing
// thread wakes every blocked one, so no script deadlocks.
type scriptState struct {
	blocked, exited []bool
}

func (s *scriptState) canBlock(i int) bool {
	for j := range s.blocked {
		if j != i && !s.blocked[j] && !s.exited[j] {
			return true
		}
	}
	return false
}

// runSchedEngine runs the scripts on the engine and logs every
// resumption.
func runSchedEngine(starts []uint64, progs [][]schedOp) ([]dispatch, uint64) {
	e := sim.New()
	st := scriptState{blocked: make([]bool, len(progs)), exited: make([]bool, len(progs))}
	var log []dispatch
	ths := make([]*sim.Thread, len(progs))
	for i, prog := range progs {
		i, prog := i, prog
		ths[i] = e.Go(fmt.Sprintf("t%d", i), i, starts[i], func(th *sim.Thread) {
			log = append(log, dispatch{i, th.Now()})
			for _, o := range prog {
				switch o.kind {
				case schedCharge:
					th.Charge(o.c)
				case schedYield:
					th.Yield()
				case schedSleep:
					th.SleepUntil(th.Now() + o.c)
				case schedBlock:
					if st.canBlock(i) {
						st.blocked[i] = true
						th.Block("script")
					}
				case schedWake:
					if st.blocked[o.target] {
						st.blocked[o.target] = false
						e.Wake(ths[o.target], th.Now()+o.c)
					}
				}
				log = append(log, dispatch{i, th.Now()})
			}
			st.exited[i] = true
			for j, b := range st.blocked {
				if b {
					st.blocked[j] = false
					e.Wake(ths[j], th.Now())
				}
			}
		})
	}
	e.Run()
	return log, e.Events()
}

// refThread is a thread of the reference scheduler.
type refThread struct {
	clock, wakeAt, seq uint64
	pc                 int
}

// refSched is the reference scheduler: the engine's rules with no fast
// path. Every yield and sleep pushes the thread into the ready set and
// pops the minimum (wakeAt, seq) thread, which may be the same one.
type refSched struct {
	ths    []*refThread
	ready  []int
	seq    uint64
	events uint64
}

func (r *refSched) push(i int, at uint64) {
	t := r.ths[i]
	t.wakeAt = at
	r.seq++
	r.events++
	t.seq = r.seq
	r.ready = append(r.ready, i)
}

// pop removes the minimum thread from the ready set and advances its
// clock to its wake time.
func (r *refSched) pop() int {
	m := 0
	for k, i := range r.ready {
		a, b := r.ths[i], r.ths[r.ready[m]]
		if a.wakeAt < b.wakeAt || a.wakeAt == b.wakeAt && a.seq < b.seq {
			m = k
		}
	}
	i := r.ready[m]
	r.ready = append(r.ready[:m], r.ready[m+1:]...)
	if t := r.ths[i]; t.clock < t.wakeAt {
		t.clock = t.wakeAt
	}
	return i
}

// runSchedRef runs the scripts on the reference scheduler.
func runSchedRef(starts []uint64, progs [][]schedOp) ([]dispatch, uint64) {
	r := &refSched{}
	st := scriptState{blocked: make([]bool, len(progs)), exited: make([]bool, len(progs))}
	for i := range progs {
		r.ths = append(r.ths, &refThread{clock: starts[i]})
		r.push(i, starts[i])
	}
	live := len(progs)
	cur := r.pop()
	var log []dispatch
	log = append(log, dispatch{cur, r.ths[cur].clock})
	for {
		t := r.ths[cur]
		if t.pc == len(progs[cur]) {
			st.exited[cur] = true
			for j, b := range st.blocked {
				if b {
					st.blocked[j] = false
					r.push(j, max(t.clock, r.ths[j].clock))
				}
			}
			if live--; live == 0 {
				return log, r.events
			}
			cur = r.pop()
			log = append(log, dispatch{cur, r.ths[cur].clock})
			continue
		}
		o := progs[cur][t.pc]
		t.pc++
		switch o.kind {
		case schedCharge:
			t.clock += o.c
			r.events++
		case schedYield, schedSleep:
			at := t.clock
			if o.kind == schedSleep {
				at += o.c
			}
			r.push(cur, at)
			cur = r.pop()
		case schedBlock:
			if st.canBlock(cur) {
				st.blocked[cur] = true
				cur = r.pop()
			}
		case schedWake:
			if st.blocked[o.target] {
				st.blocked[o.target] = false
				r.push(o.target, max(t.clock+o.c, r.ths[o.target].clock))
			}
		}
		log = append(log, dispatch{cur, r.ths[cur].clock})
	}
}

// TestSelfYieldMatchesReference runs random Yield/SleepUntil/Block/Wake
// scripts on the engine, whose Yield and SleepUntil keep the token
// without touching the ready heap when the thread would win the pop,
// and on the reference scheduler, which always pushes and pops. The
// dispatch sequences, with each thread's clock, and the event counts
// must be equal.
func TestSelfYieldMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		starts, progs := schedScripts(rng, 1+rng.Intn(4), 40)
		got, gotEvents := runSchedEngine(starts, progs)
		want, wantEvents := runSchedRef(starts, progs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: engine dispatches\n%v\nreference\n%v", seed, got, want)
		}
		if gotEvents != wantEvents {
			t.Fatalf("seed %d: engine counted %d events, reference %d", seed, gotEvents, wantEvents)
		}
	}
}
