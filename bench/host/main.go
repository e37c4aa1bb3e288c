// Command host measures how fast the simulator runs its model on the host:
// simulated operations per host second, set-up time and peak memory, over
// three closed-loop workloads (webserve, scan, ycsb), with each repetition
// in a fresh process. A profiled run charges host time to the simulator's
// layers, and microbenchmarks price each layer's hot functions. See
// README.md.
//
// Usage, from this directory:
//
//	go run . [-workload all|webserve|scan|ycsb] [-seed 1] [-reps 5] [-seconds 0]
//	         [-trace dir] [-out summary.json]
//	go run . -layers              # layer microbenchmarks only
//	go run . -compare a.json b.json
//	go run . -bless               # rewrite ref/<workload>.json (default seed)
//
// The exit status is 1 when any cell failed (fail_frac > 0) or the run
// could not complete, 2 on bad usage. -compare always exits 0 once both
// summaries parse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed the committed reference digests were made with.
const defaultSeed = 1

func main() {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	workloadF := flag.String("workload", "all", "workload to run: all, "+strings.Join(names, ", "))
	seed := flag.Int64("seed", defaultSeed, "input seed: web page choice, scan offsets, YCSB request streams and the aging recipe")
	reps := flag.Int("reps", 5, "minimum repetitions per workload, each in a fresh process")
	seconds := flag.Float64("seconds", 0, "keep adding repetitions until this many seconds of the workload have passed")
	traceDir := flag.String("trace", "", "also run CPU-profiled repetitions and the layer microbenchmarks; write profiles and a host-span Chrome trace into this directory")
	layersOnly := flag.Bool("layers", false, "run only the layer microbenchmarks")
	outPath := flag.String("out", "", "write the JSON summary to this file")
	compare := flag.Bool("compare", false, "compare two JSON summaries: -compare a.json b.json")
	bless := flag.Bool("bless", false, "write this run's digests to ref/<workload>.json under the current directory (default seed only)")
	child := flag.String("child", "", "internal: run one -cell of this workload, or the microbenchmarks (\"layers\"), in this process")
	cell := flag.String("cell", "", "internal: the cell a -child process runs")
	cpuprofile := flag.String("cpuprofile", "", "internal: CPU profile file for a -child cell")
	flag.Parse()

	switch {
	case *child != "":
		if err := childMain(*child, *cell, *seed, *cpuprofile); err != nil {
			fmt.Fprintln(os.Stderr, "host:", err)
			os.Exit(1)
		}
		return
	case *compare:
		os.Exit(compareMain(flag.Args()))
	}
	if flag.NArg() > 0 || *reps < 1 || (*bless && *seed != defaultSeed) {
		flag.Usage()
		os.Exit(2)
	}
	ws := workloads
	if *workloadF != "all" {
		w, ok := workloadByName(*workloadF)
		if !ok {
			fmt.Fprintf(os.Stderr, "host: unknown workload %q\n", *workloadF)
			os.Exit(2)
		}
		ws = []workload{w}
	}
	opt := options{seed: *seed, reps: *reps, seconds: *seconds, traceDir: *traceDir}
	if *bless {
		opt.bless = "."
	}
	if err := run(ws, opt, *layersOnly, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "host:", err)
		os.Exit(1)
	}
}

// run runs the selected workloads and prints their metrics; for a single
// workload the last line is a JSON result object.
func run(ws []workload, opt options, layersOnly bool, outPath string) error {
	sum := summary{
		Schema:    summarySchema,
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		ChildEnv:  childEnv,
		Seed:      opt.seed,
	}
	if opt.traceDir != "" {
		if err := os.MkdirAll(opt.traceDir, 0o755); err != nil {
			return err
		}
	}
	if layersOnly || opt.traceDir != "" {
		fmt.Fprintln(os.Stderr, "[layer microbenchmarks]")
		if err := spawn(&sum.Micro, "-child", microChild); err != nil {
			return err
		}
	}
	if layersOnly {
		fmt.Println("== layer microbenchmarks ==")
		for _, mc := range micros {
			r := sum.Micro[mc]
			fmt.Printf("%s_ns %s ns\n%s_allocs %s allocs/op\n", mc, fmtNum(r.NsPerOp), mc, fmtNum(r.AllocsPerOp))
		}
		return writeSummary(outPath, sum)
	}
	failed := 0
	for _, w := range ws {
		r, err := runWorkload(w, opt, sum.Micro)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printReport(os.Stdout, r)
		failed += r.Failed
		sum.Workloads = append(sum.Workloads, r)
	}
	if err := writeSummary(outPath, sum); err != nil {
		return err
	}
	if len(ws) == 1 {
		raw, err := json.Marshal(newResultLine(sum.Workloads[0], opt.traceDir != ""))
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
	}
	if failed > 0 {
		return fmt.Errorf("%d cells failed", failed)
	}
	return nil
}

func writeSummary(path string, sum summary) error {
	if path == "" {
		return nil
	}
	return writeJSON(path, sum)
}
