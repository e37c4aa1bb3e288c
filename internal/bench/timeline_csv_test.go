package bench

import (
	"bytes"
	"strings"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/obs/timeline"
)

// TestTimelineCSVDeterminism covers the -timeline-out export end to end:
// run a real experiment twice in one process, render each run's timeline
// as CSV, and demand byte-identical files plus the documented header and
// row shape. This is the contract plotting scripts depend on — stable
// column layout, stable row order, no run-to-run drift.
func TestTimelineCSVDeterminism(t *testing.T) {
	run := func() []byte {
		e, ok := ByID("ftcost")
		if !ok {
			t.Fatal("ftcost not registered")
		}
		o := obs.New(0)
		tl := timeline.New(o.Reg, o.Cycles, timeline.Config{})
		t.Cleanup(CloseLast)
		e.Run(Options{Quick: true, Obs: o, Timeline: tl})
		var buf bytes.Buffer
		if err := timeline.WriteCSV(&buf, tl.Export()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := run()

	lines := strings.Split(strings.TrimSpace(string(first)), "\n")
	if lines[0] != "experiment,interval,start_cycles,end_cycles,series,value" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("only %d CSV lines from a real run", len(lines))
	}
	for i, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 6 {
			t.Fatalf("row %d has %d fields, want 6: %q", i+1, len(fields), line)
		}
		if fields[0] != "ftcost" {
			t.Fatalf("row %d experiment = %q, want ftcost", i+1, fields[0])
		}
	}

	second := run()
	if !bytes.Equal(first, second) {
		a := strings.Split(string(first), "\n")
		b := strings.Split(string(second), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("CSV diverges at line %d:\n run 1: %s\n run 2: %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("CSV length differs: %d vs %d bytes", len(first), len(second))
	}
}
