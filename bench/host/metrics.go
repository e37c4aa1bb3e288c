package main

import "strings"

// metricDecl declares one reported metric. BENCHMARK.json at the repository
// root declares the same names, units and directions; a test keeps the two
// in step.
type metricDecl struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, each a median
// over untraced repetitions. Failed cells are reported as attempted/failed
// counts rather than a metric: a fail fraction is 0 on every good run.
var endToEnd = []metricDecl{
	{name: "sim_ops_per_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

// layers names the simulator's layers after its internal packages; the
// profile charges every sample to one of them (see layerOfPackage).
var layers = []string{"sim", "cpu", "mm", "core", "pmem", "fs", "kernel", "obs", "span", "timeline", "workload", "runtime"}

// derivedCounts are per-layer counts not read from the metrics registry.
var derivedCounts = []string{"sim.events", "kernel.syscalls", "span.closed", "timeline.intervals", "obs.charges"}

// countNames lists every per-layer work count.
var countNames = append(append([]string(nil), registryCounts...), derivedCounts...)

// perUnit derives a layer's host nanoseconds per unit of work: the layer's
// profiled host time over the sum of the named counts.
var perUnit = []struct {
	name, layer string
	counts      []string
}{
	{"sim.ns_per_event", "sim", []string{"sim.events"}},
	{"cpu.ns_per_walk", "cpu", []string{"cpu.walks"}},
	{"mm.ns_per_fault", "mm", []string{"mm.minor_faults", "mm.wp_faults"}},
	{"span.ns_per_span", "span", []string{"span.closed"}},
	{"obs.ns_per_charge", "obs", []string{"obs.charges"}},
}

func countUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "pmem.bytes_"):
		return "bytes"
	case strings.HasSuffix(name, "_cycles"):
		return "cycles"
	}
	return "count"
}

// perLayerDecls lists every per-layer metric in print order: deterministic
// work counts; each layer's share of profiled host time overall and per
// phase, with the profiled phases' wall times (a layer's host seconds in a
// phase are its share times the phase's seconds); derived nanoseconds per
// unit of work; the microbenchmarks; and the profile's own sample count
// and overhead. Shares rather than per-layer seconds, because profile
// samples come in 10 ms steps and an idle layer would read exactly 0 s.
func perLayerDecls() []metricDecl {
	var out []metricDecl
	for _, n := range countNames {
		better := "lower"
		if strings.HasSuffix(n, ".hits") {
			better = "higher"
		}
		out = append(out, metricDecl{name: n, unit: countUnit(n), better: better})
	}
	out = append(out,
		metricDecl{name: "runtime.alloc_mb", unit: "MB", better: "lower"},
		metricDecl{name: "runtime.gc_count", unit: "count", better: "lower"},
	)
	for _, l := range layers {
		out = append(out,
			metricDecl{name: l + ".host_frac", unit: "ratio", better: "lower"},
			metricDecl{name: l + ".setup_frac", unit: "ratio", better: "lower"},
			metricDecl{name: l + ".run_frac", unit: "ratio", better: "lower"},
		)
	}
	out = append(out,
		metricDecl{name: "trace.setup_s", unit: "s", better: "lower"},
		metricDecl{name: "trace.run_s", unit: "s", better: "lower"},
	)
	for _, p := range perUnit {
		out = append(out, metricDecl{name: p.name, unit: "ns", better: "lower"})
	}
	for _, m := range micros {
		out = append(out,
			metricDecl{name: m + "_ns", unit: "ns", better: "lower"},
			metricDecl{name: m + "_allocs", unit: "allocs/op", better: "lower"},
		)
	}
	return append(out,
		metricDecl{name: "trace.samples", unit: "count", better: "higher"},
		metricDecl{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	)
}
