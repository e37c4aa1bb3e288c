package determinism_test

import (
	"testing"

	"daxvm/tools/simlint/analyzers/determinism"
	"daxvm/tools/simlint/anatest"
)

func TestDeterminism(t *testing.T) {
	anatest.Run(t, "testdata", determinism.Analyzer, "det")
}

// Tests may still use sync: the loader hands the analyzer non-test files
// only, so detsync_test.go's import is never reported.
func TestDeterminismTestFilesMaySync(t *testing.T) {
	anatest.Run(t, "testdata", determinism.Analyzer, "detsync")
}
