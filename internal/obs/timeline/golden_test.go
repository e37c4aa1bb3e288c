package timeline

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"daxvm/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// buildGoldenTimeline books a small fixed scenario through the public
// surface: two segments, a counter, a histogram, and attribution under
// two roots, exercising every CSV series shape (cycles, counter,
// hist .count/.p50/.p99, attr.*).
func buildGoldenTimeline() *Timeline {
	reg := obs.NewRegistry()
	var ops uint64
	reg.Counter("test.ops", func() uint64 { return ops })
	h := reg.Histogram("test.lat")
	cyc := obs.NewCycleAccount()
	tl := New(reg, cyc, Config{BaseInterval: 16})

	tl.StartSegment("alpha")
	cyc.Charge(0, "app.work", 7)
	cyc.Charge(0, "setup.mkfs", 3)
	ops = 2
	h.Observe(100)
	h.Observe(400)
	tl.Sample(16)
	cyc.Charge(1, "app.work", 5)
	ops = 3
	tl.FlushRun("run-a", 30)

	tl.StartSegment("beta")
	cyc.Charge(0, "app.other", 11)
	tl.FlushRun("run-b", 16)
	return tl
}

// buildCoalescingTimeline drives every path that merges windows:
// adaptive coalescing of an odd interval count (the last window stays
// unmerged), the zero-width flush fold, empty windows, a second run on
// the same segment axis,
// gauges (one always zero), a counter that never moves, three roots
// charged on four cores and a histogram spread over many buckets.
func buildCoalescingTimeline() *Timeline {
	reg := obs.NewRegistry()
	var ops, idle uint64
	reg.Counter("test.ops", func() uint64 { return ops })
	reg.Counter("test.idle", func() uint64 { return idle })
	h := reg.Histogram("test.lat")
	cyc := obs.NewCycleAccount()
	tl := New(reg, cyc, Config{BaseInterval: 16, MaxIntervals: 4})
	var depth uint64
	tl.Gauge("test.queue", func(uint64) uint64 { return depth })
	tl.Gauge("test.zero", func(uint64) uint64 { return 0 })

	tl.StartSegment("coalesce")
	for run := 0; run < 2; run++ {
		var now uint64
		for i := 0; i < 23+run*9; i++ {
			if i%7 != 6 {
				cyc.Charge(i%4, "app.work", uint64(7+i))
				if i%3 == 0 {
					cyc.Charge(1, "daemon.prezero.zero", 5)
				}
				if i%5 == 0 {
					cyc.Charge(2, "setup.mkfs", 2)
				}
				ops += uint64(i % 3)
				h.Observe(uint64(1) << (i % 13))
			}
			depth = uint64(i % 4)
			now = tl.NextWake(now)
			tl.Sample(now)
		}
		// Booked at the instant of the last sample: folds into the last
		// interval.
		cyc.Charge(0, "app.tail", 3)
		h.Observe(9000)
		tl.FlushRun("run", now)
	}
	return tl
}

// TestExportJSONGolden pins the exported intervals of the coalescing
// scenario byte for byte, so a change to how windows are recorded or
// merged shows up as a diff. Regenerate with
// `go test ./internal/obs/timeline -run ExportJSONGolden -update-golden`.
func TestExportJSONGolden(t *testing.T) {
	got, err := json.MarshalIndent(buildCoalescingTimeline().Export(), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "coalesce.json.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("export diverges from %s:\n%s", golden, got)
	}
}

// TestWriteCSVGolden pins the exact CSV bytes — header, column order,
// row order, number formatting — against a checked-in golden file, so
// any accidental change to the export format (a tool-breaking event for
// downstream plotting scripts) shows up as a diff. Regenerate with
// `go test ./internal/obs/timeline -run Golden -update-golden`.
func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, buildGoldenTimeline().Export()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "write_csv.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		exp := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("CSV diverges from golden at line %d:\n got:  %s\n want: %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("CSV length differs from golden: %d vs %d bytes", buf.Len(), len(want))
	}
}

// TestWriteCSVDeterministic renders the same timeline twice and demands
// byte-identical output: the writer iterates maps only through sorted
// keys, so two exports of one run never differ.
func TestWriteCSVDeterministic(t *testing.T) {
	render := func() []byte {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, buildGoldenTimeline().Export()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if first, second := render(), render(); !bytes.Equal(first, second) {
		t.Fatal("two renders of the same scenario differ")
	}
}
