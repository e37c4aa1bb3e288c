package hotalloc_test

import (
	"testing"

	"daxvm/tools/simlint/analyzers/hotalloc"
	"daxvm/tools/simlint/anatest"
)

func TestHotAlloc(t *testing.T) {
	anatest.Run(t, "testdata", hotalloc.Analyzer, "hot", "cold", "suppressed", "mint", "labelvar")
}
