package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"regexp"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ref/tiny/<workload>.json from this run")

// TestTinyWorkloads runs every cell of every workload at tiny scale and
// checks the digests against the committed tiny references: a change that
// moves any simulated number fails here.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := runRep(w, tinyScale, defaultSeed)
			for _, c := range rep.Cells {
				if c.Err != "" {
					t.Fatalf("cell %s: %s", c.Name, c.Err)
				}
				if c.Ops == 0 || c.RunS <= 0 || c.SetupS <= 0 {
					t.Errorf("cell %s: ops %d, run %gs, setup %gs", c.Name, c.Ops, c.RunS, c.SetupS)
				}
			}
			if *update {
				if err := writeRef(".", w, tinyScale, defaultSeed, rep); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := loadRef(w, tinyScale)
			if err != nil || want == nil {
				t.Fatalf("no reference %s (rerun with -update): %v", refPath(w, tinyScale), err)
			}
			if _, failed, failures := checkDigests([]repResult{rep}, want); failed > 0 {
				t.Errorf("%d cells differ from %s:\n%s", failed, refPath(w, tinyScale), strings.Join(failures, "\n"))
			}
		})
	}
}

func TestCheckDigestsFlagsDrift(t *testing.T) {
	d := func(makespan, faults uint64) *digest {
		return &digest{Cell: "c", Makespan: makespan, Verified: true, Counters: map[string]uint64{"mm.minor_faults": faults}}
	}
	rep := func(d *digest) repResult { return repResult{Cells: []cellResult{{Name: "c", Digest: d}}} }

	if _, failed, _ := checkDigests([]repResult{rep(d(10, 5)), rep(d(10, 5))}, nil); failed != 0 {
		t.Errorf("equal repetitions: %d failed", failed)
	}
	_, failed, failures := checkDigests([]repResult{rep(d(10, 5)), rep(d(10, 6))}, nil)
	if failed != 1 || !strings.Contains(failures[0], "counter mm.minor_faults 6, want 5") {
		t.Errorf("drifting counter: %d failed: %v", failed, failures)
	}
	if _, failed, _ := checkDigests([]repResult{rep(d(11, 5))}, []digest{*d(10, 5)}); failed != 1 {
		t.Errorf("makespan off the reference: %d failed", failed)
	}
	errRep := repResult{Cells: []cellResult{{Name: "c", Err: "panic: vfs: no space left on device"}}}
	if attempted, failed, _ := checkDigests([]repResult{errRep}, nil); attempted != 1 || failed != 1 {
		t.Errorf("panicked cell: %d of %d failed", failed, attempted)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		want  string
		stack []string // leaf first
	}{
		{"obs", []string{
			"runtime.memhash", "runtime.mapaccess1_faststr",
			"daxvm/internal/obs.(*CycleAccount).Charge",
			"daxvm/internal/sim.(*seqScheduler).emitCharge",
			"daxvm/internal/sim.(*Thread).ChargeAs",
		}},
		{"sim", []string{
			"runtime.chanrecv", "runtime.chanrecv1",
			"daxvm/internal/sim.(*Engine).dispatchFrom",
			"daxvm/internal/mm.(*MM).Access",
		}},
		{"runtime", []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"runtime", []string{"encoding/json.Marshal", "main.runCell"}},
		{"span", []string{"daxvm/internal/obs/span.(*Collector).Observe"}},
		{"fs", []string{"daxvm/internal/fs/ext4.(*FS).Append.func1"}},
		{"mm", []string{"daxvm/internal/rbtree.(*Tree[go.shape.*uint8]).Floor", "daxvm/internal/mm.(*MM).FindVMA"}},
		{"cpu", []string{"daxvm/internal/mem.VirtAddr.PageDown", "daxvm/internal/cpu.(*Core).Translate"}},
		{"workload", []string{"math/rand.(*Rand).Intn", "daxvm/internal/workload/webserver.Run.func2"}},
		{"obs", []string{"daxvm/internal/obs.(*Registry).Snapshot", "daxvm/internal/obs/timeline.(*Timeline).Sample"}},
		{"timeline", []string{"runtime.mapassign_faststr", "daxvm/internal/obs/timeline.mergeCyc", "daxvm/internal/obs/timeline.(*segment).coalesce"}},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestParseProfile profiles a labeled busy loop and checks the decoder
// finds its samples, stack and phase label.
func TestParseProfile(t *testing.T) {
	path := t.TempDir() + "/cpu.pb.gz"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", phaseRun), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var labeled int64
	for _, s := range samples {
		if s.phase == phaseRun && slices.ContainsFunc(s.stack, func(fn string) bool { return strings.HasSuffix(fn, ".spin") }) {
			labeled += s.count
			if s.nanos <= 0 {
				t.Errorf("sample without CPU time: %+v", s)
			}
		}
	}
	if labeled < 5 {
		t.Errorf("%d labeled samples in spin out of %d distinct stacks", labeled, len(samples))
	}
}

var spinSink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink = spinSink*31 + uint64(i)
		}
	}
}

func TestMedianQuartiles(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(values, n=4).
	cases := []struct {
		values      []float64
		med, q1, q3 float64
	}{
		{[]float64{3, 1, 2, 5, 4}, 3, 1.5, 4.5},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{2, 9}, 5.5, 0.25, 10.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 40, 20, 60},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.values)
		if m := median(c.values); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %g q1 %g q3 %g, want %g %g %g", c.values, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestMetricNames checks the workloads and metrics the benchmark runs and
// prints against the declarations in BENCHMARK.json at the repository root.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(bm.Workloads), len(workloads))
	}
	for i := range min(len(bm.Workloads), len(workloads)) {
		if j, w := bm.Workloads[i], workloads[i]; j.Name != w.name || j.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%s), the benchmark %q (%s)", i, j.Name, j.Why, w.name, w.why)
		}
	}
	if len(bm.EndToEnd) > 16 || len(bm.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics declared; at most 16 and 128", len(bm.EndToEnd), len(bm.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, decls []metricDecl, fromJSON []declared) map[string]bool {
		t.Helper()
		want := map[string]declared{}
		for _, d := range fromJSON {
			want[d.Name] = d
		}
		seen := map[string]bool{}
		for _, d := range decls {
			if !name.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, d.name)
			}
			seen[d.name] = true
			j, ok := want[d.name]
			switch {
			case !ok:
				t.Errorf("%s metric %s is not declared in BENCHMARK.json", kind, d.name)
			case j.Unit != d.unit || j.Better != d.better:
				t.Errorf("%s metric %s: BENCHMARK.json says %s/%s, the benchmark %s/%s", kind, d.name, j.Unit, j.Better, d.unit, d.better)
			case kind == "end-to-end" && (j.Bound == nil || *j.Bound != d.bound):
				t.Errorf("end-to-end metric %s: bound differs from BENCHMARK.json", d.name)
			}
		}
		for n := range want {
			if !seen[n] {
				t.Errorf("BENCHMARK.json declares %s metric %s, which the benchmark never reports", kind, n)
			}
		}
		return seen
	}
	e2e := check("end-to-end", endToEnd, bm.EndToEnd)
	per := check("per-layer", perLayerDecls(), bm.PerLayer)

	// Every "name value unit" line the report prints, and every metric of
	// both result lines, is declared.
	r := workloadReport{Name: "scan", Metrics: endToEndStats([]repResult{{}}), Layers: map[string]float64{}}
	var out bytes.Buffer
	printReport(&out, r)
	line := regexp.MustCompile(`^([A-Za-z0-9][A-Za-z0-9_.-]*) (-?[0-9][0-9.e+-]*) (\S+)`)
	for _, l := range strings.Split(out.String(), "\n") {
		if m := line.FindStringSubmatch(l); m != nil && !e2e[m[1]] && !per[m[1]] {
			t.Errorf("printed metric %s is not declared", m[1])
		}
	}
	for _, layers := range []bool{false, true} {
		for n := range newResultLine(r, layers).Metrics {
			if !e2e[n] && !per[n] {
				t.Errorf("result-line metric %s is not declared", n)
			}
		}
	}
}
