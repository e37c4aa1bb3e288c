package main

import (
	"flag"
	"fmt"
	"strings"
)

// parseInterleaved parses argv with fs, letting flags and positional
// arguments interleave freely: the standard flag package stops at the
// first positional, which used to force a hand-rolled re-scan switch that
// every new flag had to be added to twice. Here the parse simply resumes
// after each positional, so a flag registered once works in any position.
// Returns the positionals in order.
func parseInterleaved(fs *flag.FlagSet, argv []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(argv); err != nil {
			return nil, err
		}
		argv = fs.Args()
		if len(argv) == 0 {
			return pos, nil
		}
		pos = append(pos, argv[0])
		argv = argv[1:]
	}
}

// exportFlagsSet names the run-export flags that were given a value, for
// the conflict diagnostics.
func exportFlagsSet(trace, metrics, profile, timeline, spans string) []string {
	var set []string
	for _, f := range []struct{ name, val string }{
		{"-trace", trace},
		{"-metrics-out", metrics},
		{"-profile-out", profile},
		{"-timeline-out", timeline},
		{"-spans-out", spans},
	} {
		if f.val != "" {
			set = append(set, f.name)
		}
	}
	return set
}

// exportConflict returns the diagnostic for a flag combination that
// cannot work, or "" when the combination is fine. Export flags describe
// an experiment run, so modes that run nothing (-compare, -validate,
// `list`) reject them rather than silently writing empty files; the
// checks live here, pure, so flags_test.go can pin the exit-2 contract
// without exec'ing the binary.
func exportConflict(compareMode, validateMode bool, firstArg string, exportFlags []string, exemplarsSet bool, exemplars int, spansPath, metricsDir string) string {
	flagged := exportFlags
	if exemplarsSet {
		flagged = append(append([]string{}, exportFlags...), "-exemplars")
	}
	switch {
	case compareMode && validateMode:
		return "-compare and -validate are separate modes; pick one"
	case (compareMode || validateMode) && len(flagged) > 0:
		return fmt.Sprintf("export flags (%s) only apply when running experiments, not with -compare/-validate; see 'daxbench' usage",
			strings.Join(flagged, ", "))
	case compareMode || validateMode:
		return ""
	case firstArg == "list" && len(flagged) > 0:
		return fmt.Sprintf("export flags (%s) only apply when running experiments, not with 'list'; see 'daxbench' usage",
			strings.Join(flagged, ", "))
	case exemplars < 1:
		return fmt.Sprintf("-exemplars must be >= 1 (got %d)", exemplars)
	case exemplarsSet && spansPath == "" && metricsDir == "":
		return "-exemplars has no effect without a sink; add -spans-out FILE or -metrics-out DIR"
	}
	return ""
}
