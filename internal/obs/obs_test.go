package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

func TestRegistrySnapshotDelta(t *testing.T) {
	r := NewRegistry()
	var a, b uint64
	r.Counter("x.a", func() uint64 { return a })
	r.Counter("x.b", func() uint64 { return b })

	a, b = 5, 10
	s1 := r.Snapshot()
	if s1.Get("x.a") != 5 || s1.Get("x.b") != 10 {
		t.Fatalf("snapshot: %v", s1.Counters)
	}
	a, b = 8, 10
	s2 := r.Snapshot()
	d := s2.Delta(s1)
	if d.Get("x.a") != 3 || d.Get("x.b") != 0 {
		t.Fatalf("delta: %v", d.Counters)
	}
}

func TestRegistryGaugeClamp(t *testing.T) {
	r := NewRegistry()
	v := uint64(100)
	r.Counter("g", func() uint64 { return v })
	s1 := r.Snapshot()
	v = 40 // gauge shrank
	if d := r.Snapshot().Delta(s1); d.Get("g") != 0 {
		t.Fatalf("gauge delta not clamped: %d", d.Get("g"))
	}
}

// TestRegistryOneReaderPerName pins that a name has one reader at a
// time: registering it again panics until its owner removes it, and a
// removed name may be registered afresh.
func TestRegistryOneReaderPerName(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", func() uint64 { return 1 })
	r.Counter("d", func() uint64 { return 3 })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering a name that has a reader did not panic")
			}
		}()
		r.Counter("c", func() uint64 { return 2 })
	}()
	if got := r.Snapshot().Get("c"); got != 1 {
		t.Fatalf("the rejected reader replaced the first: c = %d", got)
	}
	r.Remove("c", "absent")
	if n := r.Names(); len(n) != 1 || n[0] != "d" {
		t.Fatalf("names after Remove: %v", n)
	}
	r.Counter("c", func() uint64 { return 2 })
	if got := r.Snapshot().Get("c"); got != 2 {
		t.Fatalf("re-registered c = %d, want 2", got)
	}
}

// TestZeroHistograms pins that zeroing empties each histogram in place:
// an observer holding one goes on feeding the one the registry reads.
func TestZeroHistograms(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(5)
	h.Observe(9)
	r.ZeroHistograms()
	if s := r.Snapshot().Hists["lat"]; s.Count != 0 || s.Sum != 0 || len(s.Buckets) != 0 {
		t.Fatalf("after ZeroHistograms: %+v", s)
	}
	h.Observe(7)
	if s := r.Snapshot().Hists["lat"]; s.Count != 1 || s.Sum != 7 {
		t.Fatalf("an observation after zeroing reads %+v", s)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	if h2 := r.Histogram("lat"); h2 != h {
		t.Fatal("histogram not deduplicated")
	}
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot().Hists["lat"]
	if s.Count != 6 || s.Sum != 1010 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	// 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1000 -> 10.
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 3: 1, 10: 1}
	for b, c := range want {
		if s.Buckets[b] != c {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", b, s.Buckets[b], c, s.Buckets)
		}
	}
	if got := BucketUpper(10); got != 1024 {
		t.Fatalf("BucketUpper(10) = %d", got)
	}
	if m := s.Mean(); m < 168 || m > 169 {
		t.Fatalf("mean = %v", m)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Emit(tr.Intern("mmap", ""), 0, 0, 0, 0) // must not panic
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer not inert")
	}
	var h *Histogram
	h.Observe(4)
	if h.Count() != 0 {
		t.Fatal("nil histogram not inert")
	}
	var r *Registry
	r.Counter("x", func() uint64 { return 1 })
	r.Remove("x")
	r.ZeroHistograms()
	if r.Histogram("h") != nil {
		t.Fatal("nil registry returned histogram")
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	pf := tr.Intern("page_fault", "")
	for i := 0; i < 6; i++ {
		tr.Emit(pf, i, uint64(i)*10, 1, 0)
	}
	if tr.Len() != 4 || tr.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	if evs[0].TS != 20 || evs[3].TS != 50 {
		t.Fatalf("ring order wrong: %+v", evs)
	}
}

// chromeTrace mirrors the subset of the trace-event format we emit.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(tr.Intern("mmap", ""), 0, 2700, 2700, 16)
	tr.Emit(tr.Intern("tlb_shootdown", "full"), 1, 5400, 0, 0)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata (thread_name) + 1 trace_stats + 2 events.
	if len(ct.TraceEvents) != 5 {
		t.Fatalf("events: %d", len(ct.TraceEvents))
	}
	byName := map[string]int{}
	for _, e := range ct.TraceEvents {
		byName[e.Name]++
	}
	if byName["thread_name"] != 2 || byName["trace_stats"] != 1 || byName["mmap"] != 1 || byName["tlb_shootdown"] != 1 {
		t.Fatalf("names: %v", byName)
	}
	for _, e := range ct.TraceEvents {
		if e.Name == "trace_stats" {
			if e.Ph != "M" || e.Args["dropped"] != float64(0) || e.Args["retained"] != float64(2) {
				t.Fatalf("trace_stats wrong: %+v", e)
			}
		}
	}
	for _, e := range ct.TraceEvents {
		if e.Name == "mmap" {
			if e.Ph != "X" || e.TS != 1.0 || e.Dur != 1.0 || e.Tid != 0 {
				t.Fatalf("mmap event wrong: %+v", e)
			}
		}
		if e.Name == "tlb_shootdown" {
			if e.Ph != "i" || e.Tid != 1 || e.Args["tag"] != "full" {
				t.Fatalf("shootdown event wrong: %+v", e)
			}
		}
	}
}

// TestNilTracerWriteChromeTrace: like every tracer entry point, export is
// nil-safe — a nil tracer writes a valid trace holding only its
// trace_stats record.
func TestNilTracerWriteChromeTrace(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" +
		`{"name":"trace_stats","ph":"M","pid":0,"tid":0,"args":{"dropped":0,"retained":0}}` +
		"\n]}\n"
	if buf.String() != want {
		t.Fatalf("nil tracer wrote %q, want %q", buf.String(), want)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestChromeWriterError: a failed write surfaces from the export.
func TestChromeWriterError(t *testing.T) {
	tr := NewTracer(4)
	tr.Emit(tr.Intern("mmap", ""), 0, 2700, 2700, 16)
	if err := tr.WriteChromeTrace(failWriter{}); err == nil || err.Error() != "disk full" {
		t.Fatalf("export to a failing writer returned %v, want disk full", err)
	}
}
