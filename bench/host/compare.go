package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareMain prints, per workload and end-to-end metric, both summaries'
// medians and quartiles and whether B's median lies within the metric's
// bound of A's. It only reports: the exit status is 0 whatever the
// verdicts, and 2 when a summary cannot be read.
func compareMain(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "usage: host -compare a.json b.json")
		return 2
	}
	var a, b summary
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(raw, []*summary{&a, &b}[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %s: %v\n", p, err)
			return 2
		}
	}
	fmt.Printf("A: %s (%s, %s)\nB: %s (%s, %s)\n\n", paths[0], a.Date, a.GoVersion, paths[1], b.Date, b.GoVersion)
	fmt.Printf("%-9s %-14s %12s %25s %12s %25s %8s  %s\n", "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B vs A", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Printf("%-9s missing from B\n", wa.Name)
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.Metrics[d.name], wb.Metrics[d.name]
			delta := ratio(sb.Median-sa.Median, sa.Median)
			fmt.Printf("%-9s %-14s %12s %25s %12s %25s %+7.1f%%  %s\n", wa.Name, d.name,
				fmtNum(sa.Median), fmtNum(sa.Q1)+".."+fmtNum(sa.Q3),
				fmtNum(sb.Median), fmtNum(sb.Q1)+".."+fmtNum(sb.Q3),
				100*delta, verdict(d, delta))
		}
		fmt.Printf("%-9s %-14s %12s %25s %12s %25s\n", wa.Name, "fail_frac", fmtNum(wa.FailFrac), "", fmtNum(wb.FailFrac), "")
	}
	return 0
}

// verdict judges B's relative change against the metric's bound, in the
// metric's better direction.
func verdict(d metricDecl, delta float64) string {
	worse := delta
	if d.better == "higher" {
		worse = -delta
	}
	switch {
	case worse > d.bound:
		return fmt.Sprintf("WORSE than the %.0f%% bound", 100*d.bound)
	case -worse > d.bound:
		return fmt.Sprintf("better by more than the %.0f%% bound", 100*d.bound)
	}
	return fmt.Sprintf("within the %.0f%% bound", 100*d.bound)
}
