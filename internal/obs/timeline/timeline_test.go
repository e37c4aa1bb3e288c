package timeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/sim"
)

// drive books cycles and counter increments at controlled virtual times
// through the Timeline's public surface.
func TestIntervalsReconcileAndCoalesce(t *testing.T) {
	reg := obs.NewRegistry()
	var ops uint64
	reg.Counter("test.ops", func() uint64 { return ops })
	h := reg.Histogram("test.lat")
	cyc := obs.NewCycleAccount()
	tl := New(reg, cyc, Config{BaseInterval: 16, MaxIntervals: 8})

	tl.StartSegment("seg")
	var now uint64
	for i := 0; i < 200; i++ {
		cyc.Charge(0, "app.work", 7)
		cyc.Charge(0, "fault.minor", 3)
		ops++
		h.Observe(uint64(100 + i))
		now = tl.NextWake(now)
		tl.Sample(now)
	}
	tl.FlushRun("run", now+5)

	exs := tl.Export()
	if len(exs) != 1 {
		t.Fatalf("exports = %d, want 1", len(exs))
	}
	ex := exs[0]
	if ex.Segment != "seg" {
		t.Fatalf("segment = %q", ex.Segment)
	}
	if n := len(ex.Intervals); n == 0 || n > 8 {
		t.Fatalf("intervals = %d, want in (0, 8]", n)
	}
	if ex.IntervalCycles <= 16 {
		t.Fatalf("period did not grow under coalescing: %d", ex.IntervalCycles)
	}
	var cycles, opsSum, hcount uint64
	for _, iv := range ex.Intervals {
		cycles += iv.Cycles
		opsSum += iv.Counters["test.ops"]
		hcount += iv.Hists["test.lat"].Count
		if iv.Attr["app"] == 0 || iv.Attr["app"]+iv.Attr["fault"] != iv.Cycles {
			t.Fatalf("interval attribution does not sum to its cycles: %+v", iv)
		}
	}
	if cycles != cyc.Total() {
		t.Fatalf("interval cycles sum %d != account total %d", cycles, cyc.Total())
	}
	if opsSum != ops {
		t.Fatalf("counter delta sum %d != %d", opsSum, ops)
	}
	if hcount != h.Count() {
		t.Fatalf("hist count sum %d != %d", hcount, h.Count())
	}
	if len(ex.Runs) != 1 || ex.Runs[0].Label != "run" {
		t.Fatalf("runs = %+v", ex.Runs)
	}
}

// The sampler daemon must leave simulated results untouched and reconcile
// against the engine it rides on.
func TestEngineSamplerReconciles(t *testing.T) {
	run := func(withTimeline bool) (uint64, []Export) {
		reg := obs.NewRegistry()
		cyc := obs.NewCycleAccount()
		e := sim.New()
		(&obs.Obs{Cycles: cyc}).Attach(e)
		var tl *Timeline
		if withTimeline {
			tl = New(reg, cyc, Config{BaseInterval: 64, MaxIntervals: 16})
			tl.StartSegment("eng")
			e.GoSampler("timeline", 0, tl.NextWake, tl.Sample)
		}
		e.Go("worker", 0, 0, func(th *sim.Thread) {
			th.PushAttr(sim.NewLabel("app"))
			for i := 0; i < 500; i++ {
				th.Charge(13)
				th.Yield()
			}
		})
		end := e.Run()
		tl.FlushRun("run", end)
		return e.TotalCharged(), tl.Export()
	}

	base, _ := run(false)
	charged, exs := run(true)
	if charged != base {
		t.Fatalf("sampler perturbed charged cycles: %d != %d", charged, base)
	}
	var cycles uint64
	for _, ex := range exs {
		for _, iv := range ex.Intervals {
			cycles += iv.Cycles
		}
	}
	if cycles != charged {
		t.Fatalf("timeline cycles %d != engine charged %d", cycles, charged)
	}
}

// TestBufferedSinkMatchesDirect pins that an engine's buffered charge
// stream, delivered to the account at every handoff, leaves the timeline
// identical to booking each charge at once: the sampler runs on its own
// thread, so the engine delivers the worker's charges before every sample.
func TestBufferedSinkMatchesDirect(t *testing.T) {
	run := func(buffered bool) []Export {
		cyc := obs.NewCycleAccount()
		e := sim.New()
		if buffered {
			(&obs.Obs{Cycles: cyc}).Attach(e)
		}
		tl := New(obs.NewRegistry(), cyc, Config{BaseInterval: 64, MaxIntervals: 16})
		tl.StartSegment("eng")
		e.GoSampler("timeline", 0, tl.NextWake, tl.Sample)
		e.Go("worker", 0, 0, func(th *sim.Thread) {
			for i := 0; i < 300; i++ {
				root := []string{"app", "setup", "daemon"}[i%3]
				th.PushAttr(sim.NewLabel(root))
				th.Charge(uint64(5 + i%11))
				if !buffered {
					cyc.Charge(th.Core, root, uint64(5+i%11))
				}
				th.PopAttr()
				if i%4 == 0 {
					th.Yield()
				}
			}
		})
		tl.FlushRun("run", e.Run())
		return tl.Export()
	}
	if direct, buffered := run(false), run(true); !reflect.DeepEqual(direct, buffered) {
		t.Fatalf("buffered sink changed the timeline:\n direct   %+v\n buffered %+v", direct, buffered)
	}
}

func TestSegmentsIndependent(t *testing.T) {
	reg := obs.NewRegistry()
	cyc := obs.NewCycleAccount()
	tl := New(reg, cyc, Config{BaseInterval: 32})

	tl.StartSegment("a")
	cyc.Charge(0, "app.x", 100)
	tl.FlushRun("run", 40)

	tl.StartSegment("b")
	cyc.Charge(0, "app.x", 9)
	tl.FlushRun("run", 10)

	exs := tl.Export()
	if len(exs) != 2 {
		t.Fatalf("exports = %d, want 2", len(exs))
	}
	b := exs[1]
	if b.Segment != "b" {
		t.Fatalf("segment = %q", b.Segment)
	}
	// Segment b must see only its own activity, on its own time origin.
	var cycles uint64
	for _, iv := range b.Intervals {
		cycles += iv.Cycles
		if iv.End > 10 {
			t.Fatalf("segment b interval beyond its run: %+v", iv)
		}
	}
	if cycles != 9 {
		t.Fatalf("segment b cycles = %d, want 9", cycles)
	}
}

func TestWriteCSV(t *testing.T) {
	reg := obs.NewRegistry()
	var ops uint64
	reg.Counter("test.ops", func() uint64 { return ops })
	cyc := obs.NewCycleAccount()
	tl := New(reg, cyc, Config{BaseInterval: 32})
	tl.StartSegment("csv")
	cyc.Charge(0, "app.x", 5)
	ops = 2
	tl.FlushRun("run", 20)

	var sb strings.Builder
	if err := WriteCSV(&sb, tl.Export()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "experiment,interval,start_cycles,end_cycles,series,value" {
		t.Fatalf("header = %q", lines[0])
	}
	want := []string{
		"csv,0,0,20,cycles,5",
		"csv,0,0,20,test.ops,2",
		"csv,0,0,20,attr.app,5",
	}
	for i, w := range want {
		if lines[1+i] != w {
			t.Fatalf("line %d = %q, want %q", 1+i, lines[1+i], w)
		}
	}
}

func TestCounterTracks(t *testing.T) {
	reg := obs.NewRegistry()
	var ops uint64
	reg.Counter("test.ops", func() uint64 { return ops })
	cyc := obs.NewCycleAccount()
	tr := obs.NewTracer(64)
	tl := New(reg, cyc, Config{BaseInterval: 32, Tracer: tr, TrackCounters: []string{"test.ops"}})
	tl.StartSegment("tr")
	cyc.Charge(0, "app.x", 5)
	ops = 3
	tl.Sample(32)

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Type != obs.EvCounter || evs[0].Tag != "cycles" || evs[0].Arg != 5 {
		t.Fatalf("cycles track event = %+v", evs[0])
	}
	if evs[1].Tag != "test.ops" || evs[1].Arg != 3 {
		t.Fatalf("ops track event = %+v", evs[1])
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"ph":"C"`) {
		t.Fatalf("chrome trace missing counter phase:\n%s", sb.String())
	}
}

// A sampler wake reads the cycle account by root, so what it allocates
// does not grow with the number of attribution leaves or the cores they
// are charged on.
func TestSampleAllocsIndependentOfLeaves(t *testing.T) {
	allocs := func(leaves int) float64 {
		reg := obs.NewRegistry()
		cyc := obs.NewCycleAccount()
		for i := 0; i < leaves; i++ {
			for c := 0; c < 16; c++ {
				cyc.Charge(c, fmt.Sprintf("app.leaf%d", i), 1)
			}
		}
		tl := New(reg, cyc, Config{BaseInterval: 16, MaxIntervals: 1 << 20})
		tl.StartSegment("s")
		var now uint64
		return testing.AllocsPerRun(100, func() {
			cyc.Charge(0, "app.leaf0", 1)
			now += 16
			tl.Sample(now)
		})
	}
	if few, many := allocs(1), allocs(256); many != few {
		t.Fatalf("allocs per sample: %v over 1 leaf, %v over 256 leaves on 16 cores", few, many)
	}
}

// Intervals Export has returned stay as they were while the segment goes
// on coalescing and folding flush tails into its last window.
func TestExportedIntervalsStable(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("test.lat")
	cyc := obs.NewCycleAccount()
	tl := New(reg, cyc, Config{BaseInterval: 16, MaxIntervals: 4})
	tl.Gauge("test.queue", func(uint64) uint64 { return 2 })
	tl.StartSegment("s")
	var now uint64
	step := func(n int) {
		for i := 0; i < n; i++ {
			cyc.Charge(0, "app.x", 3)
			h.Observe(uint64(10 * (i + 1)))
			now = tl.NextWake(now)
			tl.Sample(now)
		}
	}
	step(2)
	first := tl.Export()
	before, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	cyc.Charge(0, "app.tail", 1)
	tl.FlushRun("run", now)
	step(9)
	after, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("exported intervals changed:\nbefore %s\nafter  %s", before, after)
	}
	if now := tl.Export(); len(now[0].Intervals) == 0 || now[0].IntervalCycles == first[0].IntervalCycles {
		t.Fatalf("segment did not coalesce: %+v", now[0])
	}
}

// TestGaugeOwnershipAndRebaseline pins the hand-over between two owners
// of the same names on one timeline: a gauge name has one reader at a
// time, removed gauges are no longer sampled, and after the first owner
// removes its counter and the timeline rebaselines, the second owner's
// counter of the same name counts from zero rather than from the first
// owner's final value.
func TestGaugeOwnershipAndRebaseline(t *testing.T) {
	reg := obs.NewRegistry()
	cyc := obs.NewCycleAccount()
	tl := New(reg, cyc, Config{BaseInterval: 16})
	tl.StartSegment("s")
	first := uint64(100)
	reg.Counter("test.ops", func() uint64 { return first })
	tl.Gauge("test.queue", func(uint64) uint64 { return 1 })
	tl.Gauge("test.other", func(uint64) uint64 { return 4 })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering a gauge name that has a reader did not panic")
			}
		}()
		tl.Gauge("test.queue", func(uint64) uint64 { return 2 })
	}()
	cyc.Charge(0, "app.x", 1)
	tl.FlushRun("first", 16)

	reg.Remove("test.ops")
	tl.RemoveGauges("test.queue", "test.other")
	tl.Rebaseline()
	second := uint64(0)
	reg.Counter("test.ops", func() uint64 { return second })
	tl.Gauge("test.queue", func(uint64) uint64 { return 3 })
	second = 7
	cyc.Charge(0, "app.x", 1)
	tl.Sample(8)
	tl.FlushRun("second", 16)

	ivs := tl.Export()[0].Intervals
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2: %+v", len(ivs), ivs)
	}
	if got := ivs[0].Counters["test.ops"]; got != 100 {
		t.Errorf("first owner's interval books test.ops %d, want 100", got)
	}
	if got := ivs[1].Counters["test.ops"]; got != 7 {
		t.Errorf("second owner's interval books test.ops %d, want 7 (counted from zero)", got)
	}
	if g := ivs[1].Gauges; len(g) != 1 || g["test.queue"].Max != 3 {
		t.Errorf("second owner's gauges = %+v, want only its test.queue = 3", g)
	}
}
