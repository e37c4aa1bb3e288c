package bench

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/obs/bottleneck"
)

func mkArtifact(t *testing.T, mutate func(a *Artifact)) []byte {
	t.Helper()
	a := &Artifact{
		Schema:     ArtifactSchema,
		ID:         "ftcost",
		Title:      "File-table maintenance overhead on appends",
		Quick:      true,
		GitSHA:     "baseline-sha",
		ConfigHash: configHash("ftcost", true, 0, ""),
		Metrics: map[string]float64{
			"overhead-pct/4.0M": 3.2,
			"64K/daxvm":         1_500_000,
		},
		CycleBreakdown: &obs.CycleSnapshot{
			Total: 1_000_000,
			Leaves: map[string]obs.CycleLeaf{
				"app.syscall.append.journal.commit": {Cycles: 200_000, Count: 50},
				"app.syscall.append.ntstore":        {Cycles: 700_000, Count: 500},
				"app.tiny":                          {Cycles: 1_000, Count: 3},
			},
		},
	}
	if mutate != nil {
		mutate(a)
	}
	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCompareDetectsJournalInflation is the issue's acceptance check: a
// 10% inflation of the JournalCommit cost must surface as a cycle-leaf
// regression (10% > the 5% cycle tolerance).
func TestCompareDetectsJournalInflation(t *testing.T) {
	base := mkArtifact(t, nil)
	inflated := mkArtifact(t, func(a *Artifact) {
		l := a.CycleBreakdown.Leaves["app.syscall.append.journal.commit"]
		l.Cycles = l.Cycles * 110 / 100
		a.CycleBreakdown.Leaves["app.syscall.append.journal.commit"] = l
		a.CycleBreakdown.Total += l.Cycles - 200_000
		a.GitSHA = "new-sha" // sha differences alone must not matter
	})
	rep, err := CompareArtifacts(base, inflated)
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, r := range rep.Regressions {
		if r.Name == "cycles:app.syscall.append.journal.commit" {
			hit = true
			if r.RelChange < 0.09 || r.RelChange > 0.11 {
				t.Fatalf("relative change = %v, want ~0.10", r.RelChange)
			}
		}
		if strings.HasPrefix(r.Name, "cycles:app.tiny") {
			t.Fatal("sub-min-share leaf flagged")
		}
	}
	if !hit {
		t.Fatalf("journal.commit inflation not detected; regressions = %v", rep.Regressions)
	}
}

func TestCompareCleanPair(t *testing.T) {
	rep, err := CompareArtifacts(mkArtifact(t, nil), mkArtifact(t, func(a *Artifact) {
		a.GitSHA = "other-sha"
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("clean pair flagged: %v", rep.Regressions)
	}
	if rep.Checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestCompareMetricDirections(t *testing.T) {
	// Throughput shrinking past 10% regresses; growing does not.
	slow := mkArtifact(t, func(a *Artifact) { a.Metrics["64K/daxvm"] = 1_200_000 })
	rep, err := CompareArtifacts(mkArtifact(t, nil), slow)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Name != "64K/daxvm" {
		t.Fatalf("regressions = %v", rep.Regressions)
	}
	// Overhead percentage growing past 10% regresses (lower is better).
	worse := mkArtifact(t, func(a *Artifact) { a.Metrics["overhead-pct/4.0M"] = 4.0 })
	rep, err = CompareArtifacts(mkArtifact(t, nil), worse)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Name != "overhead-pct/4.0M" {
		t.Fatalf("regressions = %v", rep.Regressions)
	}
	// A vanished metric is always a regression.
	missing := mkArtifact(t, func(a *Artifact) { delete(a.Metrics, "64K/daxvm") })
	rep, err = CompareArtifacts(mkArtifact(t, nil), missing)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || !strings.Contains(rep.Regressions[0].Name, "missing") {
		t.Fatalf("regressions = %v", rep.Regressions)
	}
}

func TestCompareRefusesCrossConfig(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(a *Artifact)
	}{
		{"quick-vs-full", func(a *Artifact) { a.Quick = false; a.ConfigHash = configHash(a.ID, false, 0, "") }},
		{"different-experiment", func(a *Artifact) { a.ID = "storage"; a.ConfigHash = configHash("storage", true, 0, "") }},
		{"config-hash-drift", func(a *Artifact) { a.ConfigHash = "deadbeefdeadbeef" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := CompareArtifacts(mkArtifact(t, nil), mkArtifact(t, c.mutate))
			var mm *MismatchError
			if !errors.As(err, &mm) {
				t.Fatalf("err = %v, want MismatchError", err)
			}
		})
	}
}

// TestCompareHostInformational checks that host-speed telemetry surfaces
// as an info line when both artifacts carry it — and never as a
// regression, no matter how large the slowdown: wall-clock speed depends
// on the host machine, not the simulated system under test.
func TestCompareHostInformational(t *testing.T) {
	withHost := func(eps float64) func(a *Artifact) {
		return func(a *Artifact) {
			a.Host = &HostTelemetry{WallSeconds: 1, Events: uint64(eps), EventsPerSec: eps}
		}
	}
	rep, err := CompareArtifacts(mkArtifact(t, withHost(100_000)), mkArtifact(t, withHost(10_000)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("10x host slowdown gated the comparison: %v", rep.Regressions)
	}
	var hit bool
	for _, s := range rep.Info {
		if strings.Contains(s, "events/sec") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("no host events/sec info line; info = %v", rep.Info)
	}

	// One side missing host telemetry (e.g. a pre-v3 baseline): no info
	// line, no error.
	rep, err = CompareArtifacts(mkArtifact(t, nil), mkArtifact(t, withHost(10_000)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Info) != 0 {
		t.Fatalf("info emitted without both hosts: %v", rep.Info)
	}
}

// TestLowerBetterFromRegistry pins the direction metadata to the
// experiment registration: registerCost experiments report every metric
// as lower-is-better, an experiment with a custom LowerBetter is
// consulted per metric, and unknown ids (old baselines from renamed
// experiments) fall back to the metric-name conventions.
// TestCompareSaturationInformational checks that bottleneck-verdict
// changes between artifacts surface as info lines and never gate: a
// verdict flipping is what a perf fix looks like, so only the metric
// and cycle checks may flip the exit code.
func TestCompareSaturationInformational(t *testing.T) {
	withVerdicts := func(sha string, t16 string) []byte {
		return mkArtifact(t, func(a *Artifact) {
			a.GitSHA = sha
			a.Saturation = []bottleneck.Report{
				{Segment: "ftcost/t1", Verdict: "bottleneck: pmem_bw (util 0.93, avg queue 0.4)"},
				{Segment: "ftcost/t16", Verdict: t16},
			}
		})
	}
	old := withVerdicts("a", "bottleneck: mmap_sem (util 0.97, avg queue 11.3)")
	new_ := withVerdicts("b", "bottleneck: pmem_bw (util 0.91, avg queue 0.2)")
	rep, err := CompareArtifacts(old, new_)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("saturation change gated: %v", rep.Regressions)
	}
	var hit bool
	for _, s := range rep.Info {
		if strings.Contains(s, "saturation ftcost/t16") && strings.Contains(s, "mmap_sem") && strings.Contains(s, "informational") {
			hit = true
		}
		if strings.Contains(s, "saturation ftcost/t1:") {
			t.Fatalf("unchanged verdict reported: %q", s)
		}
	}
	if !hit {
		t.Fatalf("no saturation info line; info = %v", rep.Info)
	}

	// A report present on only one side is also informational.
	rep, err = CompareArtifacts(mkArtifact(t, nil), withVerdicts("b", "bottleneck: none (no saturated resource)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("new saturation section gated: %v", rep.Regressions)
	}
	var added int
	for _, s := range rep.Info {
		if strings.Contains(s, "new report") {
			added++
		}
	}
	if added != 2 {
		t.Fatalf("want 2 new-report info lines, got %d: %v", added, rep.Info)
	}
}

func TestLowerBetterFromRegistry(t *testing.T) {
	// The real cost experiments are registered via registerCost.
	for _, id := range []string{"table2", "storage"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		if e.LowerBetter == nil || !e.LowerBetter("anything") {
			t.Fatalf("experiment %q not registered as all-cost", id)
		}
		if !lowerBetter(id, "walk-cycles") {
			t.Fatalf("lowerBetter(%q) ignored the registration", id)
		}
	}

	// A per-metric LowerBetter is consulted, not a blanket answer.
	saved := registry
	t.Cleanup(func() { registry = saved })
	registry = append(registry, Experiment{
		ID: "mixed-test", Title: "t",
		LowerBetter: func(metric string) bool { return metric == "lat-cycles" },
	})
	if !lowerBetter("mixed-test", "lat-cycles") {
		t.Fatal("cost metric not lower-better")
	}
	if lowerBetter("mixed-test", "throughput") {
		t.Fatal("throughput metric treated as cost")
	}

	// Unknown id: name conventions still apply.
	if !lowerBetter("no-such-experiment", "overhead-pct/4M") {
		t.Fatal("convention fallback lost")
	}
	if lowerBetter("no-such-experiment", "64K/daxvm") {
		t.Fatal("throughput metric flagged lower-better for unknown id")
	}
}

// TestCompareUsesRegisteredDirection is the end-to-end check: a metric
// on a registerCost experiment growing past tolerance regresses even
// though its name matches no cost-shaped convention.
func TestCompareUsesRegisteredDirection(t *testing.T) {
	mk := func(walk float64) []byte {
		return mkArtifact(t, func(a *Artifact) {
			a.ID = "table2"
			a.ConfigHash = configHash("table2", true, 0, "")
			a.Metrics = map[string]float64{"4K/walk-cycles": walk}
			a.CycleBreakdown = nil
		})
	}
	rep, err := CompareArtifacts(mk(100), mk(120))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Name != "4K/walk-cycles" {
		t.Fatalf("growing cost not flagged: %v", rep.Regressions)
	}
	rep, err = CompareArtifacts(mk(100), mk(80))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions) != 0 {
		t.Fatalf("shrinking cost flagged: %v", rep.Regressions)
	}
}

// TestCompareRejectsOlderBaseline pins the v5-only validator on the
// compare path: a pre-v5 baseline (here v1, which once compared on
// metrics alone) is refused as invalid, not silently compared, and the
// error names the baseline side.
func TestCompareRejectsOlderBaseline(t *testing.T) {
	v1 := []byte(`{"schema":"daxvm-bench/v1","id":"ftcost","title":"t","quick":true,"metrics":{"64K/daxvm":1500000}}`)
	_, err := CompareArtifacts(v1, mkArtifact(t, nil))
	if err == nil {
		t.Fatal("v1 baseline accepted")
	}
	if !strings.HasPrefix(err.Error(), "baseline: ") || !strings.Contains(err.Error(), `"daxvm-bench/v1"`) {
		t.Fatalf("error %q does not name the baseline's schema", err)
	}
	if _, err := CompareArtifacts(mkArtifact(t, nil), v1); err == nil || !strings.HasPrefix(err.Error(), "new: ") {
		t.Fatalf("v1 new artifact: err = %v, want a \"new: \" validation error", err)
	}
}
