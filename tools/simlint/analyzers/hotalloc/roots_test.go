package hotalloc

import (
	"testing"

	"daxvm/tools/simlint/anatest"
)

// TestMissingDefaultRoot pins that a default root whose package is
// loaded but whose function is gone is reported, while a present root is
// checked as usual and the real roots, whose packages the fixture run
// does not load, stay silent.
func TestMissingDefaultRoot(t *testing.T) {
	const pkg = "daxvm/tools/simlint/analyzers/hotalloc/testdata/src/missingroot"
	saved := defaultRoots
	defer func() { defaultRoots = saved }()
	defaultRoots = append([]string{"(*" + pkg + ".Engine).Run", "(*" + pkg + ".Engine).Gone"}, saved...)
	anatest.Run(t, "testdata", Analyzer, "missingroot")
}

func TestRootPackage(t *testing.T) {
	for id, want := range map[string]string{
		"(*daxvm/internal/obs/span.Collector).Observe":  "daxvm/internal/obs/span",
		"(daxvm/internal/kernel.nodeGauge).pmemBacklog": "daxvm/internal/kernel",
		"daxvm/internal/x.F":                            "daxvm/internal/x",
		"(*daxvm/internal/sim.Engine).dispatchFrom":     "daxvm/internal/sim",
	} {
		if got := rootPackage(id); got != want {
			t.Errorf("rootPackage(%q) = %q, want %q", id, got, want)
		}
	}
}
