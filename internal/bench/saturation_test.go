package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
)

// runSaturationOnce executes the saturation experiment with the full
// observability stack attached and returns the result plus its artifact.
func runSaturationOnce(t *testing.T) (*Result, *Artifact) {
	t.Helper()
	e, ok := ByID("saturation")
	if !ok {
		t.Fatal("saturation not registered")
	}
	o := obs.New(0)
	tl := timeline.New(o.Reg, o.Cycles, timeline.Config{})
	opts := Options{Quick: true, Obs: o, Timeline: tl, Spans: span.New(3)}
	t.Cleanup(CloseLast)
	res := e.Run(opts)
	snap := o.Reg.Snapshot()
	cycles := o.Cycles.Snapshot()
	art := NewArtifact(res, opts, &snap, &cycles)
	art.GitSHA = "test"
	return res, art
}

// TestSaturationShape pins the experiment's headline claim: below the
// knee the PMem read channel is the named bottleneck, past it the
// mmap_sem writer side is, and the lock's saturation score grows
// monotonically with thread count.
func TestSaturationShape(t *testing.T) {
	res, art := runSaturationOnce(t)

	if res.Metrics["t1/top.is_pmem_bw"] != 1 {
		t.Errorf("t1: want pmem_bw as top resource, metrics: %v", res.Metrics)
	}
	if res.Metrics["t16/top.is_mmap_sem"] != 1 {
		t.Errorf("t16: want mmap_sem as top resource, metrics: %v", res.Metrics)
	}
	prev := -1.0
	for _, th := range []int{1, 4, 16} {
		s := res.Metrics[fmt.Sprintf("t%d/mmap_sem.score", th)]
		if s <= prev {
			t.Errorf("mmap_sem score not increasing: t%d has %v after %v", th, s, prev)
		}
		prev = s
	}

	// The artifact's saturation section carries one report per sweep
	// point, and the embedded verdict strings agree with the metrics.
	if len(art.Saturation) != 3 {
		t.Fatalf("artifact has %d saturation reports, want 3 (quick sweep)", len(art.Saturation))
	}
	verdicts := map[string]string{}
	for _, rep := range art.Saturation {
		verdicts[rep.Segment] = rep.Verdict
	}
	if v := verdicts["saturation/t1"]; !strings.HasPrefix(v, "bottleneck: pmem_bw") {
		t.Errorf("t1 verdict = %q, want pmem_bw", v)
	}
	if v := verdicts["saturation/t16"]; !strings.HasPrefix(v, "bottleneck: mmap_sem") {
		t.Errorf("t16 verdict = %q, want mmap_sem", v)
	}
}

// TestSaturationDeterminism runs the sweep twice in one process and
// asserts the serialized saturation reports are byte-identical — the
// verdicts are part of the artifact payload the perf gate diffs, so
// they must be a pure function of the build.
func TestSaturationDeterminism(t *testing.T) {
	marshal := func() []byte {
		_, art := runSaturationOnce(t)
		b, err := json.Marshal(art.Saturation)
		if err != nil {
			t.Fatalf("marshal saturation: %v", err)
		}
		return b
	}
	first := marshal()
	second := marshal()
	if !bytes.Equal(first, second) {
		t.Fatalf("saturation sections differ between runs:\n run 1: %s\n run 2: %s", first, second)
	}
}
