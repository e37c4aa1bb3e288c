package daxvm

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"daxvm/internal/bench"
)

// benchExperiment runs one paper experiment per benchmark iteration and
// republishes its headline metrics through the testing.B metric channel.
// Quick mode keeps -bench=. runs tractable; `go run ./cmd/daxbench <id>`
// regenerates the full-scale tables.
func benchExperiment(b *testing.B, id string, headline func(m map[string]float64) map[string]float64) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	var metrics map[string]float64
	for i := 0; i < b.N; i++ {
		r := e.Run(bench.Options{Quick: true})
		metrics = r.Metrics
	}
	if headline != nil {
		for name, v := range headline(metrics) {
			b.ReportMetric(v, name)
		}
	}
}

// ratio returns a/b, or 0.
func ratio(m map[string]float64, a, b string) float64 {
	if m[b] == 0 {
		return 0
	}
	return m[a] / m[b]
}

// BenchmarkFig4ReadOnce regenerates Fig. 1a/4: read-once access vs file
// size. Headline: DaxVM over read(2) at 32 KiB and large sizes.
func BenchmarkFig4ReadOnce(b *testing.B) {
	benchExperiment(b, "fig4", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"daxvm/read@32K": ratio(m, "32K/daxvm-async", "32K/read"),
			"mmap/read@32K":  ratio(m, "32K/mmap", "32K/read"),
			"daxvm/read@8M":  ratio(m, "8.0M/daxvm-async", "8.0M/read"),
		}
	})
}

// BenchmarkFig1bScalability regenerates Fig. 1b: read-once throughput vs
// thread count. Headline: 16-thread scaling factors.
func BenchmarkFig1bScalability(b *testing.B) {
	benchExperiment(b, "fig1b", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"read-scale16":  ratio(m, "t16/read", "t1/read"),
			"mmap-scale16":  ratio(m, "t16/mmap", "t1/mmap"),
			"daxvm-scale16": ratio(m, "t16/daxvm-async", "t1/daxvm-async"),
		}
	})
}

// BenchmarkFig5Repetitive regenerates Fig. 1c/5: repetitive access over a
// large file. Headline: DaxVM over syscalls and over default mmap (4K).
func BenchmarkFig5Repetitive(b *testing.B) {
	benchExperiment(b, "fig5", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"daxvm/syscall@rand4Kwrite": ratio(m, "rand-write-4K/daxvm-nosync", "rand-write-4K/read"),
			"daxvm/mmap@rand4Kwrite":    ratio(m, "rand-write-4K/daxvm-nosync", "rand-write-4K/mmap"),
		}
	})
}

// BenchmarkTable2PageWalk regenerates Table II: average page-walk cycles
// for DRAM vs PMem file tables.
func BenchmarkTable2PageWalk(b *testing.B) {
	benchExperiment(b, "table2", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"dram-seq":  m["DRAM/seq"],
			"dram-rand": m["DRAM/rand"],
			"pmem-seq":  m["PMem/seq"],
			"pmem-rand": m["PMem/rand"],
		}
	})
}

// BenchmarkFig6Sync regenerates Fig. 6: kernel- vs user-space syncing.
func BenchmarkFig6Sync(b *testing.B) {
	benchExperiment(b, "fig6", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"daxnosync/write@64K": ratio(m, "64K/daxvm-nosync", "64K/write+fsync"),
			"mmapmsync/write@64K": ratio(m, "64K/mmap+msync", "64K/write+fsync"),
		}
	})
}

// BenchmarkFig7Appends regenerates Fig. 7: appends with and without
// asynchronous pre-zeroing, on ext4-DAX and NOVA.
func BenchmarkFig7Appends(b *testing.B) {
	benchExperiment(b, "fig7", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"ext4-prezero-gain@1M": ratio(m, "ext4-dax/1.0M/daxvm+prezero", "ext4-dax/1.0M/mmap"),
			"nova-write/mmap@1M":   ratio(m, "nova/1.0M/write", "nova/1.0M/mmap"),
			"nova-daxfull/write@1M": ratio(m,
				"nova/1.0M/daxvm+prezero+nosync", "nova/1.0M/write"),
		}
	})
}

// BenchmarkFig8aApache regenerates Fig. 8a: web-server scalability.
func BenchmarkFig8aApache(b *testing.B) {
	benchExperiment(b, "fig8a", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"daxvm/mmap@16": ratio(m, "t16/daxvm-async", "t16/mmap"),
			"daxvm/read@16": ratio(m, "t16/daxvm-async", "t16/read"),
			"latr/mmap@16":  ratio(m, "t16/latr", "t16/mmap"),
		}
	})
}

// BenchmarkFig8bPageSize regenerates Fig. 8b: page-size sweep at 16 cores.
func BenchmarkFig8bPageSize(b *testing.B) {
	benchExperiment(b, "fig8b", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"daxvm/read@256K": ratio(m, "256K/daxvm-async", "256K/read"),
		}
	})
}

// BenchmarkFig9aTextSearch regenerates Fig. 9a: text-search scalability.
func BenchmarkFig9aTextSearch(b *testing.B) {
	benchExperiment(b, "fig9a", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"daxvm/read@16": ratio(m, "t16/daxvm-async", "t16/read"),
			"daxvm/mmap@16": ratio(m, "t16/daxvm-async", "t16/mmap"),
		}
	})
}

// BenchmarkFig9bBoot regenerates Fig. 9b: P-Redis boot curves.
func BenchmarkFig9bBoot(b *testing.B) {
	benchExperiment(b, "fig9b", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"populate-boot-ms":   m["populate/boot-ms"],
			"daxvm-boot-ms":      m["daxvm/boot-ms"],
			"lazy-warmup-ratio":  ratio(m, "mmap/first", "mmap/last"),
			"daxvm-instant-frac": ratio(m, "daxvm/first", "daxvm/last"),
		}
	})
}

// BenchmarkFig9cYCSB regenerates Fig. 9c: YCSB over the LSM store on an
// aged ext4-DAX image.
func BenchmarkFig9cYCSB(b *testing.B) {
	benchExperiment(b, "fig9c", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"daxvm-nosync/mmap@load": ratio(m, "load/daxvm-nosync", "load/mmap"),
			"daxvm/mmap@runa":        ratio(m, "run-a/daxvm", "run-a/mmap"),
		}
	})
}

// BenchmarkFig9cNova regenerates the NOVA variant of Fig. 9c.
func BenchmarkFig9cNova(b *testing.B) {
	benchExperiment(b, "fig9c-nova", func(m map[string]float64) map[string]float64 {
		return map[string]float64{
			"daxvm-nosync/mmap@load": ratio(m, "load/daxvm-nosync", "load/mmap"),
		}
	})
}

// BenchmarkStorageOverheads regenerates the §V-B storage-tax numbers.
func BenchmarkStorageOverheads(b *testing.B) {
	benchExperiment(b, "storage", func(m map[string]float64) map[string]float64 {
		return map[string]float64{"pmem-tax-pct": m["pmem-pct"]}
	})
}

// BenchmarkFTCost regenerates the §V-B file-table maintenance overhead.
func BenchmarkFTCost(b *testing.B) {
	benchExperiment(b, "ftcost", func(m map[string]float64) map[string]float64 {
		return map[string]float64{"overhead-pct@32K": m["overhead-pct/32K"]}
	})
}

// BenchmarkAblations regenerates the design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	for _, id := range []string{"ablate-batch", "ablate-threshold", "ablate-migration", "ablate-throttle"} {
		id := id
		b.Run(id, func(b *testing.B) { benchExperiment(b, id, nil) })
	}
}

// TestExperimentRegistryComplete pins the experiment inventory to the
// paper's evaluation section.
func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{
		"fig4", "fig1b", "fig5", "table2", "fig6", "fig7", "ftcost", "storage",
		"fig8a", "fig8b", "fig9a", "fig9b", "fig9c", "fig9c-nova",
		"ablate-batch", "ablate-threshold", "ablate-migration", "ablate-throttle",
	}
	have := map[string]bool{}
	for _, id := range Experiments() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
}

// TestPublicAPIQuickstart exercises the facade end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	sys := NewSystem(Config{Cores: 2, DeviceBytes: 256 << 20, EnableDaxVM: true})
	t.Cleanup(sys.Close)
	p := sys.NewProcess()
	var daxCycles uint64
	sys.Main(p, func(th *Thread, c *Core) {
		fd, err := p.Create(th, "api/check")
		if err != nil {
			t.Errorf("Create: %v", err)
			return
		}
		if err := p.Append(th, fd, make([]byte, 128<<10)); err != nil {
			t.Errorf("Append: %v", err)
			return
		}
		start := th.Now()
		va, err := p.DaxvmMmap(th, c, fd, 0, 128<<10, ReadOnly, MapEphemeral)
		if err != nil {
			t.Errorf("DaxvmMmap: %v", err)
			return
		}
		if err := p.AccessMapped(th, c, va, 128<<10, AccessSum); err != nil {
			t.Errorf("AccessMapped: %v", err)
		}
		if err := p.DaxvmMunmap(th, c, va); err != nil {
			t.Errorf("DaxvmMunmap: %v", err)
		}
		daxCycles = th.Now() - start
		p.Close(th, fd)
	})
	sys.Run()
	if daxCycles == 0 {
		t.Fatal("no cycles recorded")
	}
	var buf bytes.Buffer
	if err := sys.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cls := range []string{"syscall.daxvm_mmap", "access"} {
		if !strings.Contains(buf.String(), `"name":"`+cls+`","cat":"sim","ph":"X"`) {
			t.Errorf("trace has no %s slice", cls)
		}
	}
}

// TestRunExperimentAPI checks the programmatic experiment entry point.
func TestRunExperimentAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m, err := RunExperiment("storage", true, io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m["pmem-pct"] <= 0 {
		t.Fatalf("metrics = %v", m)
	}
	if _, err := RunExperiment("nope", true, io.Discard, nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// residentMB reads this process's resident set size from /proc.
func residentMB(t *testing.T) int {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatal(err)
			}
			return kb / 1024
		}
	}
	t.Skip("no VmRSS line")
	return 0
}

// TestRunExperimentReleasesMachines pins that RunExperiment ends every
// machine it boots: after the call and a GC, resident memory is back near
// its level before the call. fig9b's quick machines write hundreds of MiB
// of device memory, which only Kernel.Close gives back.
func TestRunExperimentReleasesMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	runtime.GC()
	before := residentMB(t)
	if _, err := RunExperiment("fig9b", true, io.Discard, nil); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if grew := residentMB(t) - before; grew > 64 {
		t.Fatalf("resident memory grew %d MiB over RunExperiment (from %d MiB): its last machine is still open", grew, before)
	}
}

// Example output hook so `go test` compiles the examples' import path too.
var _ = fmt.Sprintf
