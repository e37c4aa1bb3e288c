// Package timeline is the virtual-time interval sampler: a daemon thread
// (sim.Engine.GoSampler) wakes every period cycles and records the window
// delta of every registered counter, each latency histogram, and the
// cycles booked under each attribution root since the previous sample,
// stored as the Interval the export carries. Sampling reads
// snapshots only — it charges zero cycles and mutates no simulated state —
// so a run with a timeline attached produces bit-identical metrics to one
// without.
//
// Time axis. Each engine run has a local clock starting at zero; an
// experiment segment may span several sequential runs (aging, setup
// corpora, the measured run). The timeline concatenates them: FlushRun
// closes the tail interval of the finished run, records a RunMark, and
// advances the segment offset so the next run's local times continue the
// same monotone axis.
//
// Interval width adapts: sampling starts at BaseInterval cycles, and
// whenever the interval count would exceed MaxIntervals, adjacent pairs
// merge and the period doubles — long runs settle between MaxIntervals/2
// and MaxIntervals intervals without knowing the run length up front. The
// schedule is a pure function of virtual time, so it is deterministic.
package timeline

import (
	"slices"
	"sort"

	"daxvm/internal/obs"
)

// DefaultBaseInterval is the initial sampling period in virtual cycles.
const DefaultBaseInterval = 65536

// DefaultMaxIntervals caps retained intervals per segment; crossing it
// merges adjacent pairs and doubles the period.
const DefaultMaxIntervals = 200

// Config tunes a Timeline.
type Config struct {
	// BaseInterval is the initial sampling period in virtual cycles
	// (default DefaultBaseInterval).
	BaseInterval uint64
	// MaxIntervals bounds intervals per segment (default
	// DefaultMaxIntervals); coalescing keeps the count in
	// [MaxIntervals/2, MaxIntervals].
	MaxIntervals int
	// Tracer, when set, receives an obs.EvCounter event per sample per
	// tracked series, rendering as Perfetto counter tracks on the same
	// timebase as the event slices.
	Tracer *obs.Tracer
	// TrackCounters names the registry counters to mirror as trace
	// counter tracks (the total cycle delta is always emitted as
	// "cycles").
	TrackCounters []string
}

// Timeline accumulates interval samples, one segment per experiment.
// All methods are nil-safe.
type Timeline struct {
	reg *obs.Registry
	cyc *obs.CycleAccount
	cfg Config

	done      []Export // finished segments, in StartSegment order
	cur       *segment
	gauges    []gaugeEntry // sorted by name
	gaugeVals []uint64     // per-sample scratch, len(gauges); avoids per-sample allocation

	// The counter tracks' names in cfg.Tracer: "cycles", then one per
	// cfg.TrackCounters entry.
	cyclesTrack   obs.NameID
	counterTracks []obs.NameID
}

// gaugeEntry is one registered saturation gauge. The Perfetto track name
// is interned at registration so sampling never builds or hashes strings.
type gaugeEntry struct {
	name  string
	track obs.NameID // "gauge." + name in cfg.Tracer
	fn    func(now uint64) uint64
}

// segment is one experiment's in-progress timeline. It is built in its
// export form: each closed window is stored as the Interval the artifact
// carries, and its IntervalCycles is the current sampling period.
type segment struct {
	Export
	offset       uint64 // absolute segment time of the current run's local zero
	lastBoundary uint64 // absolute time of the last sample
	prevReg      obs.Snapshot
	prevRoots    map[string]uint64 // obs.CycleAccount.RootCycles at the last sample
}

// New creates a timeline sampling reg and cyc. Zero-value Config fields
// take the package defaults.
func New(reg *obs.Registry, cyc *obs.CycleAccount, cfg Config) *Timeline {
	if cfg.BaseInterval == 0 {
		cfg.BaseInterval = DefaultBaseInterval
	}
	if cfg.MaxIntervals == 0 {
		cfg.MaxIntervals = DefaultMaxIntervals
	}
	tl := &Timeline{reg: reg, cyc: cyc, cfg: cfg}
	tl.cyclesTrack = cfg.Tracer.Intern(obs.EvCounter, "cycles")
	for _, name := range cfg.TrackCounters {
		tl.counterTracks = append(tl.counterTracks, cfg.Tracer.Intern(obs.EvCounter, name))
	}
	return tl
}

// Gauge registers a named saturation gauge: fn is read at every sampler
// wake with the engine-local virtual time and must be a pure snapshot —
// no cycle charges, no simulated-state mutation, no allocation (gauge
// readers are simlint hotalloc roots). A name has one reader at a time,
// as in Registry.Counter: registering a name that has one panics, and a
// kernel sharing the timeline removes its gauges when it ends. Gauges
// are sampled in name order for deterministic trace emission.
func (tl *Timeline) Gauge(name string, fn func(now uint64) uint64) {
	if tl == nil {
		return
	}
	i := sort.Search(len(tl.gauges), func(i int) bool { return tl.gauges[i].name >= name })
	if i < len(tl.gauges) && tl.gauges[i].name == name {
		panic("timeline: gauge " + name + " is already registered")
	}
	tl.gauges = slices.Insert(tl.gauges, i, gaugeEntry{name: name, track: tl.cfg.Tracer.Intern(obs.EvCounter, "gauge."+name), fn: fn})
	tl.gaugeVals = make([]uint64, len(tl.gauges))
}

// RemoveGauges drops the named gauges; names without one are ignored.
func (tl *Timeline) RemoveGauges(names ...string) {
	if tl == nil {
		return
	}
	tl.gauges = slices.DeleteFunc(tl.gauges, func(g gaugeEntry) bool { return slices.Contains(names, g.name) })
	tl.gaugeVals = tl.gaugeVals[:len(tl.gauges)]
}

// Rebaseline takes the current segment's delta baseline afresh from the
// registry. A kernel that ends removes its counters first, so the next
// kernel's counters of the same names count from zero instead of from
// the ended kernel's final values.
func (tl *Timeline) Rebaseline() {
	if tl == nil || tl.cur == nil {
		return
	}
	tl.cur.prevReg = tl.reg.Snapshot()
}

// StartSegment finishes the current segment (if it recorded anything) and
// begins a new one labelled id, re-baselining the delta snapshots so the
// segment is identical whether the experiment runs alone or after others.
func (tl *Timeline) StartSegment(id string) {
	if tl == nil {
		return
	}
	tl.finish()
	tl.cur = tl.newSegment(id)
}

func (tl *Timeline) newSegment(id string) *segment {
	// Intervals starts non-nil so a segment with runs but no activity
	// exports "intervals": [], not null.
	return &segment{
		Export:    Export{Segment: id, IntervalCycles: tl.cfg.BaseInterval, Intervals: []Interval{}},
		prevReg:   tl.reg.Snapshot(),
		prevRoots: tl.cyc.RootCycles(),
	}
}

func (tl *Timeline) finish() {
	s := tl.cur
	tl.cur = nil
	if s == nil || (len(s.Intervals) == 0 && len(s.Runs) == 0) {
		return
	}
	tl.done = append(tl.done, s.Export)
}

// ensure lazily opens an unnamed segment so a kernel booted without
// an explicit StartSegment still records.
func (tl *Timeline) ensure() *segment {
	if tl.cur == nil {
		tl.cur = tl.newSegment("")
	}
	return tl.cur
}

// NextWake returns the engine-local virtual time of the next sample given
// the sampler's current local clock (sim.Engine.GoSampler's schedule
// callback).
func (tl *Timeline) NextWake(now uint64) uint64 {
	if tl == nil {
		return now + DefaultBaseInterval
	}
	s := tl.ensure()
	next := s.lastBoundary + s.IntervalCycles
	if abs := s.offset + now; next <= abs {
		next = abs + s.IntervalCycles
	}
	return next - s.offset
}

// Sample records one interval ending at the sampler's current local time
// (sim.Engine.GoSampler's sample callback).
func (tl *Timeline) Sample(now uint64) {
	if tl == nil {
		return
	}
	s := tl.ensure()
	tl.record(s, s.offset+now, now, true)
}

// FlushRun closes the tail interval of a finished engine run whose local
// clock reached localEnd, marks the run's span, and advances the segment
// offset so the next run continues the same axis. The kernel calls this
// after every engine run (aging, setup, measured), which is what makes the
// summed interval cycle deltas reconcile exactly against the engines'
// TotalCharged. Gauges are NOT read here: the engine has drained, so
// queue-depth readings at flush time would dilute the means with
// structural zeros.
func (tl *Timeline) FlushRun(label string, localEnd uint64) {
	if tl == nil {
		return
	}
	s := tl.ensure()
	abs := s.offset + localEnd
	tl.record(s, abs, localEnd, false)
	if abs > s.offset {
		s.Runs = append(s.Runs, RunMark{Label: label, Start: s.offset, End: abs})
	}
	s.offset = abs
	s.lastBoundary = abs
}

// record closes the interval [s.lastBoundary, abs): it diffs the
// registry and the per-root cycle totals against the previous sample,
// emits counter-track trace events at the engine-local timestamp, and
// appends the window in export form, zero entries pruned. Empty windows
// advance the boundary without appending; a zero-width flush tail (work
// booked at the exact sample time after the sampler ran) folds into the
// previous interval so no cycles are lost. When sample is true (a sampler
// wake, not a run flush) every registered gauge is read at the
// engine-local instant; readings in empty windows are dropped with the
// window, so per-interval means only average instants where work ran.
func (tl *Timeline) record(s *segment, abs, local uint64, sample bool) {
	reg := tl.reg.Snapshot()
	roots := tl.cyc.RootCycles()
	d := reg.Delta(s.prevReg)
	iv := Interval{Start: s.lastBoundary, End: abs}
	for root, v := range roots {
		if p := s.prevRoots[root]; v > p {
			iv.Attr = put(iv.Attr, root, v-p)
			iv.Cycles += v - p
		}
	}
	s.prevReg, s.prevRoots = reg, roots
	for name, v := range d.Counters {
		if v != 0 {
			iv.Counters = put(iv.Counters, name, v)
		}
	}
	for name, h := range d.Hists {
		if h.Count != 0 {
			iv.Hists = put(iv.Hists, name, histPoint(h))
		}
	}
	sampledGauges := sample && len(tl.gauges) > 0
	if sampledGauges {
		iv.GaugeSamples = 1
		for i, g := range tl.gauges {
			v := g.fn(local)
			tl.gaugeVals[i] = v
			if v != 0 {
				iv.Gauges = put(iv.Gauges, g.name, GaugePoint{Sum: v, Max: v})
			}
		}
	}
	tl.emitTracks(local, iv.Cycles, d.Counters, sampledGauges)
	if iv.Cycles == 0 && len(iv.Counters) == 0 && len(iv.Hists) == 0 {
		s.lastBoundary = abs
		return
	}
	if n := len(s.Intervals); abs == s.lastBoundary && n > 0 {
		s.Intervals[n-1] = s.Intervals[n-1].merge(iv)
		return
	}
	s.Intervals = append(s.Intervals, iv)
	s.lastBoundary = abs
	if len(s.Intervals) > tl.cfg.MaxIntervals {
		s.coalesce()
	}
}

// emitTracks mirrors the window's headline deltas into the trace ring as
// counter events. Series order is the fixed config order (then gauge name
// order), never a map range. Gauge tracks carry instantaneous readings,
// not window deltas, and interleave with the event slices on the same
// engine-local timebase.
func (tl *Timeline) emitTracks(local, cycles uint64, counters map[string]uint64, sampledGauges bool) {
	tr := tl.cfg.Tracer
	if tr == nil {
		return
	}
	tr.Emit(tl.cyclesTrack, 0, local, 0, cycles)
	for i, name := range tl.cfg.TrackCounters {
		if v, ok := counters[name]; ok {
			tr.Emit(tl.counterTracks[i], 0, local, 0, v)
		}
	}
	if sampledGauges {
		for i := range tl.gauges {
			tr.Emit(tl.gauges[i].track, 0, local, 0, tl.gaugeVals[i])
		}
	}
}

// coalesce merges adjacent interval pairs and doubles the period.
func (s *segment) coalesce() {
	merged := make([]Interval, 0, (len(s.Intervals)+1)/2)
	for i := 0; i+1 < len(s.Intervals); i += 2 {
		merged = append(merged, s.Intervals[i].merge(s.Intervals[i+1]))
	}
	if len(s.Intervals)%2 == 1 {
		merged = append(merged, s.Intervals[len(s.Intervals)-1])
	}
	s.Intervals = merged
	s.IntervalCycles *= 2
}

// merge returns the window covering a then b: deltas and gauge sums add,
// gauge maxima take the larger, and histogram quantiles are re-read from
// the summed bucket windows. It builds new maps and leaves a and b as they
// were, so an interval Export has already handed out never changes.
func (a Interval) merge(b Interval) Interval {
	return Interval{
		Start:    a.Start,
		End:      b.End,
		Cycles:   a.Cycles + b.Cycles,
		Counters: mergeMaps(a.Counters, b.Counters, sum),
		Hists: mergeMaps(a.Hists, b.Hists, func(x, y HistPoint) HistPoint {
			return histPoint(x.window.Add(y.window))
		}),
		Attr: mergeMaps(a.Attr, b.Attr, sum),
		Gauges: mergeMaps(a.Gauges, b.Gauges, func(x, y GaugePoint) GaugePoint {
			return GaugePoint{Sum: x.Sum + y.Sum, Max: max(x.Max, y.Max)}
		}),
		GaugeSamples: a.GaugeSamples + b.GaugeSamples,
	}
}

func sum(x, y uint64) uint64 { return x + y }

// mergeMaps joins two windows' maps, combining a key present in both
// with add. Two empty maps join to nil, which the export omits.
func mergeMaps[V any](a, b map[string]V, add func(x, y V) V) map[string]V {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := make(map[string]V, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if x, ok := out[k]; ok {
			v = add(x, v)
		}
		out[k] = v
	}
	return out
}

// put sets m[k] = v, making m on first use so a window without entries
// keeps a nil map.
func put[V any](m map[string]V, k string, v V) map[string]V {
	if m == nil {
		m = make(map[string]V)
	}
	m[k] = v
	return m
}
