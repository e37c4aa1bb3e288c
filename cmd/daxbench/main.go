// Command daxbench regenerates the DaxVM paper's evaluation tables and
// figures on the simulated machine.
//
// Usage:
//
//	daxbench list                 # list experiment ids
//	daxbench all [-quick]         # run everything
//	daxbench <id> [...] [-quick]  # run specific experiments (fig4, table2, ...)
//	daxbench -compare old.json new.json   # perf-regression gate
//	daxbench -validate a.json [b.json...] # artifact schema validation
//
// Observability:
//
//	-trace out.json      write a Chrome trace of the run (open in Perfetto):
//	                     one slice per operation, named by its span class,
//	                     plus timeline counter tracks
//	-metrics-out dir     write a BENCH_<id>.json artifact per experiment
//	-profile-out out.folded  write the cycle profile as folded stacks
//	                         (feed to flamegraph.pl or speedscope)
//	-timeline-out out.csv    write per-interval timeline series as tidy CSV
//	-spans-out out.json  write the tail-exemplar span trees as a Chrome
//	                     trace (flow-linked slices; open in Perfetto)
//	-exemplars N         keep the N slowest span trees per operation class
//	                     (default 3; feeds -spans-out and the artifact's
//	                     exemplars section)
//
// Export flags describe a run, so they only make sense when running
// experiments: combining them with -compare, -validate or `list` exits 2
// with a usage hint, as does -exemplars without a sink that uses it.
//
// Every experiment run also prints a host line (wall seconds and engine
// events/sec) and embeds it in the artifact's `host` block — the only
// artifact field that varies between runs of the same build.
//
// Runs with any export flag also print each experiment segment's
// bottleneck verdict (the saturation reports the artifact embeds).
//
// Compare exits 0 when the new artifact is within tolerance of the old,
// 1 on regression, 2 when the artifacts are not comparable (different
// experiment or config) or unreadable. Host-speed deltas and saturation
// verdict changes print as informational lines and never affect the
// exit code. Validate exits 0 when every named artifact parses and
// passes schema checks, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"daxvm/internal/bench"
	"daxvm/internal/cost"
	"daxvm/internal/obs"
	"daxvm/internal/obs/bottleneck"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
)

// profileTopN bounds the per-experiment cycle table printed on stdout.
const profileTopN = 12

// timelineTracks are the registry counters mirrored as Chrome counter
// tracks alongside the always-present "cycles" track.
var timelineTracks = []string{
	"cpu.faults",
	"mm.lock.read.wait_cycles",
	"mm.lock.wait_cycles",
	"pmem.bytes_read",
	"pmem.bytes_written",
	"pmem.nt_stores",
	"tlb.shootdowns",
}

func main() {
	quick := flag.Bool("quick", false, "shrink working sets for a fast pass")
	verbose := flag.Bool("v", false, "stream per-configuration progress")
	tracePath := flag.String("trace", "", "write Chrome trace-event JSON of the run to this file")
	metricsDir := flag.String("metrics-out", "", "write a BENCH_<id>.json artifact per experiment into this directory")
	profilePath := flag.String("profile-out", "", "write the run's cycle profile as folded stacks to this file")
	timelinePath := flag.String("timeline-out", "", "write per-interval timeline series as CSV to this file")
	spansPath := flag.String("spans-out", "", "write tail-exemplar span trees as Chrome trace-event JSON to this file")
	exemplars := flag.Int("exemplars", 3, "slowest span trees kept per operation class (feeds -spans-out and artifact exemplars)")
	compare := flag.Bool("compare", false, "compare two artifacts: daxbench -compare old.json new.json")
	validate := flag.Bool("validate", false, "validate artifact files: daxbench -validate a.json [b.json...]")
	nodes := flag.Int("nodes", 0, "NUMA node count for topology-aware experiments (0 = experiment default)")
	placement := flag.String("placement", "", "placement policy for topology-aware experiments: local|remote|interleave|bind:<n>")
	// Flags may appear before or after experiment ids; flag.CommandLine
	// exits on parse errors, so the error return is unreachable here.
	args, _ := parseInterleaved(flag.CommandLine, os.Args[1:])

	// Export flags describe an experiment run; reject combinations where
	// no run happens (-compare, -validate, `list`) instead of silently
	// producing empty files.
	exportFlags := exportFlagsSet(*tracePath, *metricsDir, *profilePath, *timelinePath, *spansPath)
	exemplarsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "exemplars" {
			exemplarsSet = true
		}
	})

	firstArg := ""
	if len(args) > 0 {
		firstArg = args[0]
	}
	if msg := exportConflict(*compare, *validate, firstArg, exportFlags, exemplarsSet, *exemplars, *spansPath, *metricsDir); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(2)
	}
	if *compare {
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: daxbench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(args[0], args[1]))
	}
	if *validate {
		if len(args) == 0 {
			fmt.Fprintln(os.Stderr, "usage: daxbench -validate a.json [b.json...]")
			os.Exit(2)
		}
		os.Exit(runValidate(args))
	}
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	if *nodes < 0 {
		fmt.Fprintf(os.Stderr, "-nodes must be >= 1 (got %d)\n", *nodes)
		os.Exit(2)
	}
	if *placement != "" && !bench.NumaSupportedPlacement(*placement) {
		fmt.Fprintf(os.Stderr, "-placement %q not supported; use local, remote, interleave or bind:<n>\n", *placement)
		os.Exit(2)
	}
	opts := bench.Options{Quick: *quick, Nodes: *nodes, Placement: *placement}
	if *verbose {
		opts.Log = os.Stderr
	}
	// The hub, timeline and span collector are always on: sampling and
	// span bookkeeping charge zero simulated cycles, and the host summary
	// needs the engine event counts. The cycle-attribution and
	// critical-path stdout tables stay gated on an output flag so the
	// default output is unchanged.
	opts.Obs = obs.New(0)
	opts.Timeline = timeline.New(opts.Obs.Reg, opts.Obs.Cycles, timeline.Config{
		Tracer:        opts.Obs.Trace,
		TrackCounters: timelineTracks,
	})
	opts.Spans = span.New(*exemplars)

	r := &runner{
		opts:        opts,
		metricsDir:  *metricsDir,
		printCycles: *tracePath != "" || *metricsDir != "" || *profilePath != "" || *spansPath != "",
	}
	switch args[0] {
	case "list":
		for _, e := range bench.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	case "all":
		for _, e := range bench.All() {
			checkTopo(e, opts)
			r.runOne(e)
		}
	default:
		for _, id := range args {
			e, ok := bench.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; try 'daxbench list'\n", id)
				os.Exit(2)
			}
			checkTopo(e, opts)
			r.runOne(e)
		}
	}

	if *tracePath != "" {
		if err := writeTrace(opts.Obs, *tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[trace: %d events -> %s (%d dropped); open in https://ui.perfetto.dev]\n",
			opts.Obs.Trace.Len(), *tracePath, opts.Obs.Trace.Dropped())
	}
	if *profilePath != "" {
		if err := writeProfile(opts.Obs, *profilePath); err != nil {
			fmt.Fprintf(os.Stderr, "profile: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[profile: %d cycles attributed -> %s (folded stacks)]\n",
			opts.Obs.Cycles.Total(), *profilePath)
	}
	if *timelinePath != "" {
		if err := writeTimeline(opts.Timeline, *timelinePath); err != nil {
			fmt.Fprintf(os.Stderr, "timeline: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[timeline: %s (tidy CSV: experiment,interval,start,end,series,value)]\n", *timelinePath)
	}
	if *spansPath != "" {
		if err := writeSpans(opts.Spans, *spansPath); err != nil {
			fmt.Fprintf(os.Stderr, "spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[spans: top %d exemplars/class -> %s; open in https://ui.perfetto.dev]\n",
			*exemplars, *spansPath)
	}
}

// checkTopo rejects topology overrides on experiments that model the
// paper's flat single-socket machine.
func checkTopo(e bench.Experiment, o bench.Options) {
	if (o.Nodes != 0 || o.Placement != "") && !e.Topo {
		fmt.Fprintf(os.Stderr, "experiment %q does not accept -nodes/-placement (only topology-aware experiments such as \"numa\" do)\n", e.ID)
		os.Exit(2)
	}
}

func runCompare(oldPath, newPath string) int {
	oldRaw, err := os.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	newRaw, err := os.ReadFile(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	rep, err := bench.CompareArtifacts(oldRaw, newRaw)
	if err != nil {
		// Invalid or non-comparable artifacts (MismatchError) — not a
		// measured regression, so a distinct exit code.
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 2
	}
	// Informational lines (host speed trend) print regardless of verdict
	// but never flip the exit code.
	for _, line := range rep.Info {
		fmt.Fprintf(os.Stderr, "info %s: %s\n", rep.ID, line)
	}
	if len(rep.Regressions) > 0 {
		fmt.Fprintf(os.Stderr, "REGRESSION %s: %d of %d checks failed\n", rep.ID, len(rep.Regressions), rep.Checked)
		for _, reg := range rep.Regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", reg)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "ok %s: %d checks within tolerance\n", rep.ID, rep.Checked)
	return 0
}

type runner struct {
	opts        bench.Options
	metricsDir  string
	printCycles bool

	// Per-run cumulative state: the cycle account and the engines'
	// event counts accumulate across experiments, so each experiment's
	// share is a delta. Counters and histograms need none: each
	// experiment closes the previous one's machine and zeroes the
	// histograms before it starts.
	prevCycles obs.CycleSnapshot
	prevEvents uint64
}

func (r *runner) runOne(e bench.Experiment) {
	// Host telemetry is measured here, outside the deterministic core:
	// the simulator itself never reads the wall clock (simlint enforces
	// that in internal/), so the artifact stays byte-stable except the
	// clearly-marked host block.
	start := time.Now()
	res := e.Run(r.opts)
	wall := time.Since(start)
	events := r.opts.Obs.EnginesEvents() - r.prevEvents
	r.prevEvents += events
	eps := 0.0
	if s := wall.Seconds(); s > 0 {
		eps = float64(events) / s
	}

	bench.Render(os.Stdout, res)
	fmt.Printf("host: %.2fs wall, %d engine events, %.3g events/sec\n\n", wall.Seconds(), events, eps)
	fmt.Fprintf(os.Stderr, "[%s finished in %v]\n", e.ID, wall.Round(time.Millisecond))

	o := r.opts.Obs
	cycles := o.Cycles.Snapshot()
	snap := o.Reg.Snapshot()
	cycleDelta := cycles.Delta(r.prevCycles)
	r.prevCycles = cycles

	if r.printCycles {
		fmt.Printf("-- cycle attribution (%s, top %d) --\n", e.ID, profileTopN)
		cycleDelta.WriteTable(os.Stdout, profileTopN)
		printLatency(snap, "cpu.walk_latency", "page walk")
		printLatency(snap, "mm.fault_latency", "fault service")
		fmt.Println()
		if seg, ok := r.opts.Spans.ExportSegment(e.ID); ok {
			span.WriteTable(os.Stdout, seg)
			fmt.Println()
		}
		printSaturation(os.Stdout, r.opts, e.ID)
	}

	if r.metricsDir == "" {
		return
	}
	art := bench.NewArtifact(res, r.opts, &snap, &cycleDelta)
	art.Host = &bench.HostTelemetry{WallSeconds: wall.Seconds(), Events: events, EventsPerSec: eps}
	path := filepath.Join(r.metricsDir, "BENCH_"+e.ID+".json")
	if err := writeArtifact(art, path); err != nil {
		fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[metrics: %s]\n", path)
}

// printSaturation prints the bottleneck verdict for the experiment's
// timeline segment and any "<id>/..." sub-segments (sweep experiments
// record one per point) — the same reports the artifact embeds.
func printSaturation(w io.Writer, o bench.Options, id string) {
	printed := false
	for _, ex := range o.Timeline.Export() {
		if ex.Segment != id && !strings.HasPrefix(ex.Segment, id+"/") {
			continue
		}
		var sp *span.SegmentExport
		if seg, ok := o.Spans.ExportSegment(ex.Segment); ok {
			sp = &seg
		}
		rep := bottleneck.Analyze(ex, sp)
		if !printed {
			fmt.Fprintf(w, "-- saturation (%s) --\n", id)
			printed = true
		}
		fmt.Fprintf(w, "  %-20s %s\n", ex.Segment, rep.Verdict)
	}
	if printed {
		fmt.Fprintln(w)
	}
}

// printLatency prints the p50/p99 of one latency histogram.
func printLatency(s obs.Snapshot, name, label string) {
	h, ok := s.Hists[name]
	if !ok || h.Count == 0 {
		return
	}
	fmt.Printf("  %-14s p50 ~%.0f cyc, p99 ~%.0f cyc  (%d samples)\n",
		label, h.Quantile(0.50), h.Quantile(0.99), h.Count)
}

func writeArtifact(a *bench.Artifact, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.WriteArtifact(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTrace(o *obs.Obs, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Trace.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeProfile(o *obs.Obs, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.Cycles.Snapshot().WriteFolded(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTimeline(tl *timeline.Timeline, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := timeline.WriteCSV(f, tl.Export()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSpans(sp *span.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := span.WriteChromeTrace(f, sp.Export(), float64(cost.CyclesPerUsec)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runValidate checks every named artifact against the schema; exit 0
// only when all pass, so `make validate-baselines` can glob the baseline
// directory.
func runValidate(paths []string) int {
	code := 0
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err == nil {
			err = bench.ValidateArtifact(raw)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "invalid %s: %v\n", p, err)
			code = 1
			continue
		}
		fmt.Fprintf(os.Stderr, "ok %s\n", p)
	}
	return code
}

func usage() {
	fmt.Fprintln(os.Stderr, `daxbench — DaxVM (MICRO'22) evaluation reproduction
usage:
  daxbench list
  daxbench all [-quick] [-v] [export flags]
  daxbench <id> [<id>...] [-quick] [-v] [-nodes n] [-placement p] [export flags]
  daxbench -compare old.json new.json
  daxbench -validate a.json [b.json...]
export flags (experiment runs only):
  -trace out.json  -metrics-out dir  -profile-out out.folded
  -timeline-out out.csv  -spans-out out.json  -exemplars N`)
}
