package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// repResult is one repetition of a workload: every cell once, each in a
// fresh process. One process per cell, not per repetition: in a shared
// process each kernel's multi-GiB PMem backing array reuses the previous
// kernel's freed arena, which the Go runtime zeroes eagerly, so later
// cells' set-up time swings with GC timing and peak RSS grows to the
// device size.
type repResult struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Traced   bool         `json:"traced"`
	Cells    []cellResult `json:"cells"`
	// PeakRSSMB is the largest VmHWM among the cells' processes.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// AllocMB and GCCount sum the cells' processes.
	AllocMB float64 `json:"alloc_mb"`
	GCCount uint32  `json:"gc_count"`
	// Profiles lists the CPU profiles of a traced repetition.
	Profiles []string `json:"-"`
}

// cellProc is what one cell's process reports.
type cellProc struct {
	Cell      cellResult `json:"cell"`
	PeakRSSMB float64    `json:"peak_rss_mb"`
	AllocMB   float64    `json:"alloc_mb"`
	GCCount   uint32     `json:"gc_count"`
}

func (r *repResult) add(cp cellProc) {
	r.Cells = append(r.Cells, cp.Cell)
	r.PeakRSSMB = max(r.PeakRSSMB, cp.PeakRSSMB)
	r.AllocMB += cp.AllocMB
	r.GCCount += cp.GCCount
}

func (r repResult) setupS() float64 {
	s := 0.0
	for _, c := range r.Cells {
		s += c.SetupS
	}
	return s
}

func (r repResult) runS() float64 {
	s := 0.0
	for _, c := range r.Cells {
		s += c.RunS
	}
	return s
}

// opsPerS is simulated operations per host second inside the measured
// calls, summed over cells.
func (r repResult) opsPerS() float64 {
	var ops uint64
	for _, c := range r.Cells {
		ops += c.Ops
	}
	return ratio(float64(ops), r.runS())
}

// counts sums the cells' per-layer work counts.
func (r repResult) counts() map[string]float64 {
	m := map[string]float64{}
	for _, c := range r.Cells {
		for k, v := range c.Counts {
			m[k] += float64(v)
		}
	}
	return m
}

// runCellProc runs one cell and reads this process's memory statistics.
func runCellProc(def cellDef, seed int64) cellProc {
	cp := cellProc{Cell: runCell(def, seed)}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cp.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	cp.GCCount = ms.NumGC
	cp.PeakRSSMB = peakRSSMB()
	return cp
}

// runRep runs every cell of w in this process (tests use it at tiny
// scale; measured repetitions go through spawnRep).
func runRep(w workload, sc scale, seed int64) repResult {
	rr := repResult{Workload: w.name, Seed: seed}
	for _, def := range w.cells(sc) {
		rr.add(runCellProc(def, seed))
	}
	return rr
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// childEnv pins the runtime settings every measured process runs with.
var childEnv = []string{"GOMAXPROCS=2", "GOGC=100", "GOMEMLIMIT=off"}

// spawn re-executes this binary with args and decodes the JSON document it
// prints as its last line into v. The child's standard error passes
// through.
func spawn(v any, args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), childEnv...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	if err := json.Unmarshal(out, v); err != nil {
		return fmt.Errorf("child %v: decoding its result: %w", args, err)
	}
	return nil
}

// spawnRep runs one repetition of w, one fresh process per cell, one after
// another. With profPrefix set each cell's process writes a CPU profile to
// profPrefix-<cell number>.cpu.pb.gz. A process that fails to report
// counts its cell as failed.
func spawnRep(w workload, seed int64, profPrefix string) repResult {
	rr := repResult{Workload: w.name, Seed: seed, Traced: profPrefix != ""}
	for i, def := range w.cells(fullScale) {
		args := []string{"-child", w.name, "-cell", def.name, "-seed", strconv.FormatInt(seed, 10)}
		if profPrefix != "" {
			path := fmt.Sprintf("%s-%d.cpu.pb.gz", profPrefix, i+1)
			args = append(args, "-cpuprofile", path)
			rr.Profiles = append(rr.Profiles, path)
		}
		var cp cellProc
		if err := spawn(&cp, args...); err != nil {
			cp = cellProc{Cell: cellResult{Name: def.name, Err: err.Error()}}
		}
		rr.add(cp)
	}
	return rr
}

// childMain is the body of a re-executed child: one cell of a workload, or
// the layer microbenchmarks, printed as one JSON line.
func childMain(name, cell string, seed int64, profPath string) error {
	var result any
	if name == microChild {
		result = runMicros()
	} else {
		def, err := findCell(name, cell)
		if err != nil {
			return err
		}
		if profPath != "" {
			f, err := os.Create(profPath)
			if err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return err
			}
			result = runCellProc(def, seed)
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				return err
			}
		} else {
			result = runCellProc(def, seed)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(result)
}

func findCell(workloadName, cell string) (cellDef, error) {
	w, ok := workloadByName(workloadName)
	if !ok {
		return cellDef{}, fmt.Errorf("unknown workload %q", workloadName)
	}
	for _, def := range w.cells(fullScale) {
		if def.name == cell {
			return def, nil
		}
	}
	return cellDef{}, fmt.Errorf("workload %s has no cell %q", workloadName, cell)
}
