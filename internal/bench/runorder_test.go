package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"daxvm/internal/kernel"
	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
)

// hub runs experiments one after another on one observability hub, the
// way daxbench does, and builds each artifact the same way: the
// registry snapshot at the end of the experiment and the cycle account's
// delta over it. An artifact carries no trace events, so the trace ring
// holds one.
type hub struct {
	opts       Options
	prevCycles obs.CycleSnapshot
}

func newHub() *hub {
	o := obs.New(1)
	return &hub{opts: Options{
		Quick:    true,
		Obs:      o,
		Timeline: timeline.New(o.Reg, o.Cycles, timeline.Config{}),
		Spans:    span.New(3),
	}}
}

// run runs experiment id and returns its serialized artifact with the
// git SHA pinned and no host block.
func (h *hub) run(t *testing.T, id string) []byte {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("%s not registered", id)
	}
	t.Cleanup(CloseLast)
	res := e.Run(h.opts)
	snap := h.opts.Obs.Reg.Snapshot()
	cycles := h.opts.Obs.Cycles.Snapshot()
	delta := cycles.Delta(h.prevCycles)
	h.prevCycles = cycles
	art := NewArtifact(res, h.opts, &snap, &delta)
	art.GitSHA = "pinned"
	var buf bytes.Buffer
	if err := art.WriteArtifact(&buf); err != nil {
		t.Fatalf("serialize %s: %v", id, err)
	}
	return buf.Bytes()
}

// TestArtifactIndependentOfRunOrder pins that an experiment's artifact
// depends only on that experiment: run after another experiment on the
// same hub, it equals the artifact of the experiment run alone on a
// fresh hub. A machine that outlived its experiment would leak its
// counter readers (nova.* after fig9c-nova, core.* after ftcost), its
// histogram counts or its timeline baseline into the next artifact.
func TestArtifactIndependentOfRunOrder(t *testing.T) {
	for _, pair := range [][2]string{{"fig9c-nova", "storage"}, {"ftcost", "numa"}} {
		t.Run(pair[0]+"_then_"+pair[1], func(t *testing.T) {
			// The alone runs go first: a hub holds every engine attached
			// to it, so each fresh hub is dropped before the next starts.
			var alone [2][]byte
			for i, id := range pair {
				alone[i] = newHub().run(t, id)
			}
			shared := newHub()
			for i, id := range pair {
				if after := shared.run(t, id); !bytes.Equal(after, alone[i]) {
					t.Errorf("%s: artifact on the shared hub differs from the one run alone:\n%s", id, firstDiff(after, alone[i]))
				}
			}
		})
	}
}

// firstDiff names the first line where two serialized artifacts differ.
func firstDiff(a, b []byte) string {
	al, bl := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  shared: %s\n  alone:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d lines", len(al), len(bl))
}

// TestTimelineAgreesWithKernels pins that the timeline books each
// kernel's counters once across in-experiment reboots: for every counter
// below, the experiment's summed interval deltas equal the sum, over the
// machines it booted, of each machine's final value read just before
// its Close. A timeline that kept an ended machine's final values as its
// baseline would subtract them from the next machine's.
func TestTimelineAgreesWithKernels(t *testing.T) {
	names := []string{"mm.minor_faults", "cpu.walks", "dram.allocs", "mm.mmaps"}
	for _, id := range []string{"fig7", "fig4"} {
		t.Run(id, func(t *testing.T) {
			CloseLast()
			h := newHub()
			final := map[string]uint64{}
			machines := 0
			saved := closeMachine
			closeMachine = func(k *kernel.Kernel) {
				snap := h.opts.Obs.Reg.Snapshot()
				for _, name := range names {
					final[name] += snap.Get(name)
				}
				machines++
				saved(k)
			}
			t.Cleanup(func() { closeMachine = saved })
			h.run(t, id)
			CloseLast()
			if machines < 2 {
				t.Fatalf("%s booted %d machines, want several", id, machines)
			}
			booked := map[string]uint64{}
			for _, ex := range h.opts.Timeline.Export() {
				for _, iv := range ex.Intervals {
					for _, name := range names {
						booked[name] += iv.Counters[name]
					}
				}
			}
			for _, name := range names {
				if final[name] == 0 {
					t.Errorf("%s: no machine counted %s", id, name)
				}
				if booked[name] != final[name] {
					t.Errorf("%s: timeline books %s %d, the %d machines counted %d", id, name, booked[name], machines, final[name])
				}
			}
		})
	}
}
