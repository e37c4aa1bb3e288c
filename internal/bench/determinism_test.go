package bench

import (
	"bytes"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
)

// TestRunDeterminism runs the ftcost experiment twice in one process and
// asserts the two serialized artifacts are byte-identical once the
// provenance fields (identical anyway within one build) are pinned. This
// is the invariant the perf gate's byte-stable baselines rest on: a
// simulator that produces different artifacts across same-binary runs —
// map-order leaks, wall-clock contamination, scheduler races — would
// render every baseline diff meaningless.
func TestRunDeterminism(t *testing.T) {
	run := func() []byte {
		e, ok := ByID("ftcost")
		if !ok {
			t.Fatal("ftcost not registered")
		}
		o := obs.New(0)
		tl := timeline.New(o.Reg, o.Cycles, timeline.Config{})
		sp := span.New(3)
		opts := Options{Quick: true, Obs: o, Timeline: tl, Spans: sp}
		t.Cleanup(CloseLast)
		res := e.Run(opts)
		snap := o.Reg.Snapshot()
		cycles := o.Cycles.Snapshot()
		art := NewArtifact(res, opts, &snap, &cycles)
		// The timeline rides the same determinism contract as everything
		// else in the artifact: the sampler runs on virtual time, so its
		// interval boundaries and deltas are part of the payload.
		if len(art.Timeline) == 0 {
			t.Fatal("artifact has no timeline section")
		}
		var intervals int
		for _, ex := range art.Timeline {
			intervals += len(ex.Intervals)
		}
		if intervals < 50 {
			t.Fatalf("timeline has %d intervals, want >= 50", intervals)
		}
		// The span sections ride the same contract: critical-path rows and
		// exemplar trees (including which ops the reservoir kept) are part
		// of the byte-compared payload below.
		if len(art.CriticalPath) == 0 {
			t.Fatal("artifact has no critical_path section")
		}
		if len(art.Exemplars) == 0 {
			t.Fatal("artifact has no exemplars section")
		}
		// Pin provenance: the invariant under test is the payload, and
		// the env-sensitive git SHA would make the assertion flaky in CI.
		art.GitSHA = "test"
		var buf bytes.Buffer
		if err := art.WriteArtifact(&buf); err != nil {
			t.Fatalf("serialize artifact: %v", err)
		}
		return buf.Bytes()
	}
	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		a, b := first, second
		// Find the first divergent line for a readable failure.
		al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
		for i := 0; i < len(al) && i < len(bl); i++ {
			if !bytes.Equal(al[i], bl[i]) {
				t.Fatalf("artifacts diverge at line %d:\n run 1: %s\n run 2: %s", i+1, al[i], bl[i])
			}
		}
		t.Fatalf("artifacts differ in length: %d vs %d bytes", len(a), len(b))
	}
}
