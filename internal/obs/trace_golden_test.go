package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTracer builds a deterministic trace whose ring wrapped: capacity 2,
// three events, so exactly one was dropped.
func goldenTracer() *Tracer {
	tr := NewTracer(2)
	tr.Emit(tr.Intern("mmap", ""), 0, 2700, 2700, 16)
	tr.Emit(tr.Intern("tlb_shootdown", "full"), 1, 5400, 0, 3)
	tr.Emit(tr.Intern("journal_commit", ""), 0, 8100, 1350, 2)
	return tr
}

// TestWriteChromeTraceGolden pins the exact exported bytes and round-trips
// them through encoding/json: the trace must parse, and the trace_stats
// metadata event must carry the ring's drop count so truncated traces are
// self-describing.
func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_trace.golden.json")
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
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("export drifted from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	var sawStats bool
	for _, e := range ct.TraceEvents {
		if e.Name != "trace_stats" {
			continue
		}
		sawStats = true
		if e.Ph != "M" {
			t.Fatalf("trace_stats ph = %q", e.Ph)
		}
		if e.Args["dropped"] != float64(1) || e.Args["retained"] != float64(2) {
			t.Fatalf("trace_stats args = %v, want dropped=1 retained=2", e.Args)
		}
	}
	if !sawStats {
		t.Fatal("no trace_stats metadata event")
	}
	// Re-encoding the parsed form must also survive (valid JSON both ways).
	if _, err := json.Marshal(ct); err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
}
