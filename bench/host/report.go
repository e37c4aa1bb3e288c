package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// options are the settings of one benchmark invocation.
type options struct {
	seed     int64
	reps     int     // minimum untraced repetitions per workload
	seconds  float64 // keep repeating until this much time has passed
	traceDir string  // "" = no traced run
	bless    string  // directory to write reference digests into; "" = check
}

const (
	// A traced run adds profiled repetitions until the profile holds at
	// least minTraceSamples samples (100 per CPU second), at most
	// maxTracedReps of them.
	minTraceSamples = 300
	maxTracedReps   = 4
)

// workloadReport is one workload's outcome.
type workloadReport struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	Seed      int64              `json:"seed"`
	Reps      int                `json:"reps"`
	Check     string             `json:"check"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailFrac  float64            `json:"fail_frac"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]stat    `json:"metrics"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// runWorkload runs w's untraced repetitions, then its traced ones when
// asked, checks every cell's digest and derives the metrics.
func runWorkload(w workload, opt options, micro map[string]microResult) (workloadReport, error) {
	r := workloadReport{Name: w.name, Why: w.why, Seed: opt.seed}
	var reps []repResult
	start := time.Now()
	for len(reps) < opt.reps || time.Since(start).Seconds() < opt.seconds {
		fmt.Fprintf(os.Stderr, "[%s: repetition %d]\n", w.name, len(reps)+1)
		reps = append(reps, spawnRep(w, opt.seed, ""))
	}
	r.Reps = len(reps)
	r.Metrics = endToEndStats(reps)

	var traced []repResult
	if opt.traceDir != "" {
		var err error
		if traced, r.Layers, err = runProfiled(w, opt, reps, micro); err != nil {
			return r, err
		}
	}

	var want []digest
	r.Check = "digests equal across repetitions"
	if opt.seed == defaultSeed && opt.bless == "" {
		var err error
		if want, err = loadRef(w, fullScale); err != nil {
			return r, err
		}
		if want != nil {
			r.Check = "digests equal " + refPath(w, fullScale)
		}
	}
	r.Attempted, r.Failed, r.Failures = checkDigests(append(reps, traced...), want)
	r.FailFrac = float64(r.Failed) / float64(r.Attempted)
	if opt.bless != "" && r.Failed == 0 {
		if err := writeRef(opt.bless, w, fullScale, opt.seed, reps[0]); err != nil {
			return r, err
		}
		r.Check += "; wrote " + refPath(w, fullScale)
	}
	return r, nil
}

// runProfiled adds CPU-profiled repetitions of w until the profiles hold
// minTraceSamples samples, writes the host-span Chrome trace of every
// repetition, and derives the per-layer metrics.
func runProfiled(w workload, opt options, reps []repResult, micro map[string]microResult) ([]repResult, map[string]float64, error) {
	var traced []repResult
	var prof attribution
	for len(traced) < maxTracedReps && prof.samples < minTraceSamples {
		fmt.Fprintf(os.Stderr, "[%s: profiled repetition %d]\n", w.name, len(traced)+1)
		rr := spawnRep(w, opt.seed, filepath.Join(opt.traceDir, fmt.Sprintf("%s-%d", w.name, len(traced)+1)))
		traced = append(traced, rr)
		for i, path := range rr.Profiles {
			samples, err := readProfile(path)
			if err != nil {
				if rr.Cells[i].Err != "" {
					continue // the failed cell is counted with the others
				}
				return nil, nil, err
			}
			prof.add(samples)
		}
	}
	all := append(reps[:len(reps):len(reps)], traced...)
	if err := writeHostTrace(filepath.Join(opt.traceDir, w.name+".trace.json"), all); err != nil {
		return nil, nil, err
	}
	return traced, layerMetrics(reps, traced, &prof, micro), nil
}

func endToEndStats(reps []repResult) map[string]stat {
	var ops, setup, rss []float64
	for _, r := range reps {
		ops = append(ops, r.opsPerS())
		setup = append(setup, r.setupS())
		rss = append(rss, r.PeakRSSMB)
	}
	values := map[string][]float64{"sim_ops_per_s": ops, "setup_s": setup, "peak_rss_mb": rss}
	out := map[string]stat{}
	for _, d := range endToEnd {
		out[d.name] = newStat(d.unit, values[d.name])
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics: work counts from an untraced
// repetition (they are deterministic), host time per layer and phase from
// the profiled repetitions (per repetition), and the microbenchmarks.
func layerMetrics(reps, traced []repResult, prof *attribution, micro map[string]microResult) map[string]float64 {
	m := map[string]float64{}
	base := reps[0]
	for _, r := range reps {
		if _, failed, _ := checkDigests([]repResult{r}, nil); failed == 0 {
			base = r
			break
		}
	}
	counts := base.counts()
	for _, n := range countNames {
		m[n] = counts[n]
	}
	var alloc, gcs, untracedRun, tracedRun, tracedSetup []float64
	for _, r := range reps {
		alloc = append(alloc, r.AllocMB)
		gcs = append(gcs, float64(r.GCCount))
		untracedRun = append(untracedRun, r.runS())
	}
	for _, r := range traced {
		tracedRun = append(tracedRun, r.runS())
		tracedSetup = append(tracedSetup, r.setupS())
	}
	m["runtime.alloc_mb"] = median(alloc)
	m["runtime.gc_count"] = median(gcs)

	n := float64(len(traced))
	for _, l := range layers {
		m[l+".host_frac"] = ratio(float64(prof.layerNanos(l)), float64(prof.total))
		m[l+".setup_frac"] = ratio(float64(prof.nanos[l][phaseSetup]), float64(prof.phaseNanos(phaseSetup)))
		m[l+".run_frac"] = ratio(float64(prof.nanos[l][phaseRun]), float64(prof.phaseNanos(phaseRun)))
	}
	m["trace.setup_s"] = median(tracedSetup)
	m["trace.run_s"] = median(tracedRun)
	for _, p := range perUnit {
		var work float64
		for _, c := range p.counts {
			work += counts[c]
		}
		m[p.name] = ratio(float64(prof.layerNanos(p.layer))/n, work)
	}
	for _, mc := range micros {
		m[mc+"_ns"] = micro[mc].NsPerOp
		m[mc+"_allocs"] = micro[mc].AllocsPerOp
	}
	m["trace.samples"] = float64(prof.samples)
	m["trace.overhead_frac"] = ratio(median(tracedRun), median(untracedRun)) - 1
	return m
}

// fmtNum prints a value for people; the result line carries every digit.
func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// printReport prints every metric as "name value unit", end-to-end first.
func printReport(w io.Writer, r workloadReport) {
	fmt.Fprintf(w, "== %s: %d repetitions, seed %d ==\n", r.Name, r.Reps, r.Seed)
	for _, d := range endToEnd {
		s := r.Metrics[d.name]
		fmt.Fprintf(w, "%s %s %s  (q1 %s, q3 %s, n %d)\n", d.name, fmtNum(s.Median), d.unit, fmtNum(s.Q1), fmtNum(s.Q3), s.N)
	}
	fmt.Fprintf(w, "cells: %d attempted, %d failed, fail_frac %s; %s\n", r.Attempted, r.Failed, fmtNum(r.FailFrac), r.Check)
	for i, f := range r.Failures {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(r.Failures)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if r.Layers != nil {
		fmt.Fprintf(w, "-- per layer (profiled run) --\n")
		for _, d := range perLayerDecls() {
			fmt.Fprintf(w, "%s %s %s\n", d.name, fmtNum(r.Layers[d.name]), d.unit)
		}
	}
	fmt.Fprintln(w)
}

// resultLine is the machine-readable last line of a one-workload run.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResultLine reports the end-to-end medians, or with layers the
// per-layer metrics.
func newResultLine(r workloadReport, layers bool) resultLine {
	out := resultLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]resultMetric{}}
	if layers {
		for _, d := range perLayerDecls() {
			out.Metrics[d.name] = resultMetric{Value: r.Layers[d.name], Unit: d.unit}
		}
		return out
	}
	for _, d := range endToEnd {
		out.Metrics[d.name] = resultMetric{Value: r.Metrics[d.name].Median, Unit: d.unit}
	}
	return out
}

// summary is the JSON summary of one invocation; -compare reads two.
type summary struct {
	Schema    string                 `json:"schema"`
	Date      string                 `json:"date"`
	GoVersion string                 `json:"go_version"`
	NumCPU    int                    `json:"nproc"`
	ChildEnv  []string               `json:"child_env"`
	Seed      int64                  `json:"seed"`
	Workloads []workloadReport       `json:"workloads"`
	Micro     map[string]microResult `json:"micro,omitempty"`
}

const summarySchema = "daxvm-hostbench/v1"

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// writeHostTrace writes every repetition's cell and phase spans as a
// Chrome trace (one process row per repetition; open in Perfetto).
func writeHostTrace(path string, reps []repResult) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur,omitempty"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var base int64
	for _, r := range reps {
		for _, c := range r.Cells {
			for _, s := range c.Host {
				if base == 0 || s.Start < base {
					base = s.Start
				}
			}
		}
	}
	events := []event{}
	for i, r := range reps {
		label := fmt.Sprintf("repetition %d", i+1)
		if r.Traced {
			label += " (profiled)"
		}
		events = append(events, event{Name: "process_name", Ph: "M", Pid: i + 1, Args: map[string]string{"name": label}})
		for _, c := range r.Cells {
			for _, s := range c.Host {
				name := s.Name
				if name == "cell" {
					name = c.Name
				}
				events = append(events, event{
					Name: name, Ph: "X", Pid: i + 1, Tid: 1,
					Ts:   float64(s.Start-base) / 1e3,
					Dur:  float64(s.End-s.Start) / 1e3,
					Args: map[string]string{"cell": s.Cell},
				})
			}
		}
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
