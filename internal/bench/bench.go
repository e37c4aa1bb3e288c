// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation on the simulated machine and prints the
// same rows/series the paper reports. Absolute numbers are simulator
// cycles, not testbed wall-clock; the shape (who wins, by what factor,
// where the knees are) is the reproduction target — see EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"strings"

	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
)

// Options control an experiment run.
type Options struct {
	// Quick shrinks working sets for CI/testing.
	Quick bool
	// Log receives progress lines (may be nil).
	Log io.Writer
	// Obs, when set, is wired into every kernel the experiment boots:
	// counters read the most recent boot (each machine is closed before
	// the next boots, removing its readers), histograms span the current
	// experiment (zeroed before it starts), and the trace ring
	// accumulates across boots.
	Obs *obs.Obs
	// Timeline, when set, samples interval deltas from every kernel the
	// experiment boots. Each experiment records into its own segment
	// (Experiment.Run starts one named after the id), so a shared
	// timeline keeps experiments separable and run-order independent.
	Timeline *timeline.Timeline
	// Spans, when set, collects per-operation span trees (critical-path
	// breakdown, tail exemplars) from every kernel the experiment
	// boots. Segmented per experiment like the timeline.
	Spans *span.Collector
	// Nodes overrides the NUMA node count for topology-aware experiments
	// (0 = experiment default). Only experiments with Topo=true accept it.
	Nodes int
	// Placement overrides the default placement policy ("local",
	// "interleave", "bind:<n>"). Only Topo=true experiments accept it.
	Placement string
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Table is one printable result table.
type Table struct {
	Title string
	Cols  []string
	Rows  [][]string
}

// Result is an experiment outcome.
type Result struct {
	ID     string
	Title  string
	Tables []Table
	Notes  []string
	// Metrics holds named scalar outcomes for programmatic assertions
	// (bench_test.go checks the paper-shape claims against these).
	Metrics map[string]float64
}

// Metric records a scalar.
func (r *Result) Metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Note appends a free-form annotation.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Experiment is a registered reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(o Options) *Result
	// Topo marks experiments that accept topology overrides
	// (Options.Nodes / Options.Placement).
	Topo bool
	// LowerBetter, when set, reports whether a regression gate should
	// treat an increase in the named metric as a regression (costs,
	// latencies, byte counts) rather than an improvement (throughput).
	// Direction metadata lives here, on the registration, so the
	// compare logic never needs a hard-coded experiment-id table.
	LowerBetter func(metric string) bool
}

var registry []Experiment

// withSegment closes the last machine of the previous experiment, zeroes
// the hub's histograms and opens a fresh timeline and span segment named
// after the experiment before it runs, so every caller (CLI, tests) gets
// per-experiment segments and an artifact that depends only on its own
// experiment. The last machine stays open after Run returns, for the
// caller to snapshot. Nil-safe via Timeline/Spans.
func withSegment(id string, run func(o Options) *Result) func(o Options) *Result {
	return func(o Options) *Result {
		CloseLast()
		if o.Obs != nil {
			o.Obs.Reg.ZeroHistograms()
		}
		o.Timeline.StartSegment(id)
		o.Spans.StartSegment(id)
		return run(o)
	}
}

func register(id, title string, run func(o Options) *Result) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: withSegment(id, run)})
}

// registerCost registers an experiment whose metrics are all costs:
// lower is better for every one of them (overheads, storage bytes,
// maintenance cycles).
func registerCost(id, title string, run func(o Options) *Result) {
	registry = append(registry, Experiment{
		ID: id, Title: title, Run: withSegment(id, run),
		LowerBetter: func(string) bool { return true },
	})
}

// registerTopo registers an experiment that understands topology
// overrides (daxbench validates -nodes/-placement against this flag).
func registerTopo(id, title string, run func(o Options) *Result) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: withSegment(id, run), Topo: true})
}

// All returns the registered experiments in registration order.
func All() []Experiment { return registry }

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists registered ids.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Render prints a result as aligned text.
func Render(w io.Writer, r *Result) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		if t.Title != "" {
			fmt.Fprintf(w, "\n-- %s --\n", t.Title)
		}
		widths := make([]int, len(t.Cols))
		for i, c := range t.Cols {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		line := func(cells []string) {
			var b strings.Builder
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
			fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		}
		line(t.Cols)
		for _, row := range t.Rows {
			line(row)
		}
	}
	if len(r.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
	}
	if len(r.Metrics) > 0 {
		fmt.Fprintln(w)
		for _, k := range obs.SortedKeys(r.Metrics) {
			fmt.Fprintf(w, "metric: %-40s %10.3f\n", k, r.Metrics[k])
		}
	}
	fmt.Fprintln(w)
}

// fmtRel formats a value relative to a baseline ("1.00x").
func fmtRel(v, base float64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", v/base)
}

// fmtF formats a float compactly.
func fmtF(v float64) string {
	switch {
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// fmtBytes human-prints a byte count.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fG", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0fK", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
