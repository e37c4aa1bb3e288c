package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"daxvm/internal/sim"
)

// TestNewLabel pins minting: the same name gives the same label, each
// name its own label, String gives the name back, and minting a name
// again does not grow the table.
func TestNewLabel(t *testing.T) {
	a := sim.NewLabel("label_test.a")
	b := sim.NewLabel("label_test.b")
	n := sim.NumLabels()
	if a == b {
		t.Fatalf("two names share label %d", a)
	}
	if again := sim.NewLabel("label_test.a"); again != a {
		t.Fatalf("re-minting label_test.a gave %d, first %d", again, a)
	}
	if a.String() != "label_test.a" || b.String() != "label_test.b" {
		t.Fatalf("names %q, %q", a.String(), b.String())
	}
	if got := sim.NumLabels(); got != n {
		t.Fatalf("re-minting grew the table from %d to %d labels", n, got)
	}
}

// TestNewLabelConcurrent mints overlapping names from two goroutines
// (run it under -race): both must see one label per name.
func TestNewLabelConcurrent(t *testing.T) {
	const names = 200
	var got [2][names]sim.Label
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				// The goroutines walk the names in opposite orders.
				j := i
				if g == 1 {
					j = names - 1 - i
				}
				got[g][j] = sim.NewLabel(fmt.Sprintf("label_test.concurrent.%d", j))
				_ = got[g][j].String()
			}
		}(g)
	}
	wg.Wait()
	if got[0] != got[1] {
		t.Fatal("the goroutines minted different labels for one name")
	}
	for j, l := range got[0] {
		if want := fmt.Sprintf("label_test.concurrent.%d", j); l.String() != want {
			t.Fatalf("label %d is named %q, want %q", l, l.String(), want)
		}
	}
}

// joiner is the string model of the engine's path interning: it joins
// names with "." and gives each distinct path the next id, with no label
// ids or child lists.
type joiner struct {
	paths    []string
	ids      map[string]int
	classify func(string) uint8
	stacks   map[string][]int
	rows     map[string][]sim.Row
	tallies  map[string]sim.Tally
}

func newJoiner(classify func(string) uint8) *joiner {
	return &joiner{
		paths:    []string{sim.Unattributed},
		ids:      map[string]int{sim.Unattributed: 0},
		classify: classify,
		stacks:   map[string][]int{},
		rows:     map[string][]sim.Row{},
		tallies:  map[string]sim.Tally{},
	}
}

func (j *joiner) join(parent int, label string) int {
	p := label
	if parent >= 0 {
		p = j.paths[parent] + "." + label
	}
	id, ok := j.ids[p]
	if !ok {
		id = len(j.paths)
		j.paths = append(j.paths, p)
		j.ids[p] = id
	}
	return id
}

func (j *joiner) top(th string) int {
	if s := j.stacks[th]; len(s) > 0 {
		return s[len(s)-1]
	}
	return -1
}

func (j *joiner) add(th string, id int, c, n uint64) {
	rows := j.rows[th]
	for len(rows) <= id {
		rows = append(rows, sim.Row{})
	}
	rows[id].Cycles += c * n
	rows[id].Count += n
	j.rows[th] = rows
}

func (j *joiner) book(th string, id int, c, n uint64) {
	j.add(th, id, c, n)
	tl := j.tallies[th]
	tl.Local += c * n
	tl.Classes[j.classify(j.paths[id])] += c * n
	j.tallies[th] = tl
}

// labelOp is one step of a label script: a frame push (PushAttr or
// Enter) or pop, a charge under a label, or a remote booking onto
// another thread.
type labelOp struct {
	kind   int
	label  string
	c, n   uint64
	target int
}

const (
	opPushAttr = iota
	opEnter
	opPop
	opChargeAs
	opChargeAsN
	opAddRemote
	opYield
	numLabelOps
)

// scriptLabels include dotted names, so two (parent, label) pairs can
// spell one path ("a" + "b.c" and "a.b" + "c").
var scriptLabels = []string{"a", "b", "c", "a.b", "b.c", "bw_stall", "x.bw_stall"}

func genLabelScripts(rng *rand.Rand, nthreads, nops int) [][]labelOp {
	progs := make([][]labelOp, nthreads)
	for i := range progs {
		var open []int // kinds of the open frames
		for k := 0; k < nops; k++ {
			o := labelOp{kind: rng.Intn(numLabelOps), label: scriptLabels[rng.Intn(len(scriptLabels))],
				c: uint64(rng.Intn(50)), n: uint64(rng.Intn(3)), target: rng.Intn(nthreads)}
			switch {
			case (o.kind == opPushAttr || o.kind == opEnter) && len(open) == 3,
				o.kind == opPop && len(open) == 0:
				o.kind = opChargeAs
			case o.kind == opPushAttr || o.kind == opEnter:
				open = append(open, o.kind)
			case o.kind == opPop:
				o.label = ""
				if open[len(open)-1] == opEnter {
					o.label = "leave"
				}
				open = open[:len(open)-1]
			}
			progs[i] = append(progs[i], o)
		}
		for ; len(open) > 0; open = open[:len(open)-1] {
			o := labelOp{kind: opPop}
			if open[len(open)-1] == opEnter {
				o.label = "leave"
			}
			progs[i] = append(progs[i], o)
		}
	}
	return progs
}

// TestLabelJoinMatchesStringJoiner runs random PushAttr/Enter/ChargeAs/
// ChargeAsN/AddRemote scripts on several threads and replays the ops, in
// the order the engine ran them, through the string joiner: the path
// table, every thread's rows and every thread's tally must agree.
func TestLabelJoinMatchesStringJoiner(t *testing.T) {
	classify := func(p string) uint8 {
		switch {
		case strings.HasSuffix(p, "bw_stall"):
			return 1
		case strings.HasPrefix(p, "a"):
			return 2
		}
		return 0
	}
	labels := map[string]sim.Label{}
	for _, name := range scriptLabels {
		labels[name] = sim.NewLabel(name)
	}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nthreads := 1 + rng.Intn(4)
			progs := genLabelScripts(rng, nthreads, 80)
			e := sim.New()
			e.SetSpans(nil, classify)
			type step struct {
				th int
				op labelOp
			}
			var log []step
			ths := make([]*sim.Thread, nthreads)
			for i, prog := range progs {
				i, prog := i, prog
				ths[i] = e.Go(fmt.Sprintf("t%d", i), i, 0, func(th *sim.Thread) {
					for _, o := range prog {
						log = append(log, step{i, o})
						switch o.kind {
						case opPushAttr:
							th.PushAttr(labels[o.label])
						case opEnter:
							th.Enter(labels[o.label])
						case opPop:
							if o.label == "leave" {
								th.Leave()
							} else {
								th.PopAttr()
							}
						case opChargeAs:
							th.ChargeAs(labels[o.label], o.c)
						case opChargeAsN:
							th.ChargeAsN(labels[o.label], o.c, o.n)
						case opAddRemote:
							ths[o.target].AddRemote(labels[o.label], o.c)
						case opYield:
							th.Yield()
						}
					}
				})
			}
			e.Run()

			j := newJoiner(classify)
			for _, s := range log {
				name := fmt.Sprintf("t%d", s.th)
				o := s.op
				switch o.kind {
				case opPushAttr, opEnter:
					j.stacks[name] = append(j.stacks[name], j.join(j.top(name), o.label))
				case opPop:
					j.stacks[name] = j.stacks[name][:len(j.stacks[name])-1]
				case opChargeAs:
					j.book(name, j.join(j.top(name), o.label), o.c, 1)
				case opChargeAsN:
					if o.n > 0 {
						j.book(name, j.join(j.top(name), o.label), o.c, o.n)
					}
				case opAddRemote:
					j.add(fmt.Sprintf("t%d", o.target), j.join(-1, o.label), o.c, 1)
				}
			}
			for id, p := range j.paths {
				if got := e.Path(id); got != p {
					t.Fatalf("path %d = %q, the string joiner has %q", id, got, p)
				}
			}
			for _, th := range ths {
				rows := th.Rows()
				want := j.rows[th.Name]
				// A table may run past the last row charged onto it.
				for len(want) < len(rows) {
					want = append(want, sim.Row{})
				}
				if len(rows) == 0 {
					want = nil
				}
				if !reflect.DeepEqual(rows, want) {
					t.Errorf("%s rows %v, the string joiner's %v", th.Name, rows, want)
				}
				if got := th.Tally(); got != j.tallies[th.Name] {
					t.Errorf("%s tally %+v, the string joiner's %+v", th.Name, got, j.tallies[th.Name])
				}
			}
		})
	}
}
