package timeline

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"daxvm/internal/obs"
)

// Export is one segment's timeline in artifact form: window deltas only,
// maps pruned of zero entries so committed baselines stay small.
// encoding/json sorts map keys, so marshalling an Export is byte-stable.
type Export struct {
	Segment string `json:"segment,omitempty"`
	// IntervalCycles is the final sampling period after adaptive
	// coalescing.
	IntervalCycles uint64     `json:"interval_cycles"`
	Intervals      []Interval `json:"intervals"`
	Runs           []RunMark  `json:"runs,omitempty"`
}

// Interval is one sampled window: [Start, End) in concatenated segment
// cycles, with the window's cycle total, non-zero counter deltas,
// histogram summaries and top-level attribution split.
type Interval struct {
	Start    uint64               `json:"start_cycles"`
	End      uint64               `json:"end_cycles"`
	Cycles   uint64               `json:"cycles"`
	Counters map[string]uint64    `json:"counters,omitempty"`
	Hists    map[string]HistPoint `json:"hist,omitempty"`
	Attr     map[string]uint64    `json:"attr,omitempty"`
	// Gauges holds per-interval saturation-gauge accumulations (all-zero
	// readings pruned); GaugeSamples is how many sampler wakes landed in
	// the interval, the shared denominator for every gauge's mean.
	Gauges       map[string]GaugePoint `json:"gauges,omitempty"`
	GaugeSamples uint64                `json:"gauge_samples,omitempty"`
}

// HistPoint summarizes one histogram's window delta.
type HistPoint struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	// window is the bucket delta the point summarizes, kept so coalescing
	// can sum two windows and re-read the quantiles.
	window obs.HistSnapshot
}

func histPoint(w obs.HistSnapshot) HistPoint {
	return HistPoint{Count: w.Count, P50: w.Quantile(0.50), P99: w.Quantile(0.99), window: w}
}

// GaugePoint accumulates one gauge's instantaneous readings over an
// interval's GaugeSamples wakes: Sum/GaugeSamples is the mean, Max the
// worst instant observed.
type GaugePoint struct {
	Sum uint64 `json:"sum"`
	Max uint64 `json:"max"`
}

// RunMark records one engine run's span on the segment axis.
type RunMark struct {
	Label string `json:"label"`
	Start uint64 `json:"start_cycles"`
	End   uint64 `json:"end_cycles"`
}

// Export returns every finished segment plus the in-progress one. It does
// not end the current segment, so it may be called repeatedly; intervals
// it has returned never change afterwards.
func (tl *Timeline) Export() []Export {
	if tl == nil {
		return nil
	}
	out := append([]Export(nil), tl.done...)
	if s := tl.cur; s != nil && (len(s.Intervals) > 0 || len(s.Runs) > 0) {
		ex := s.Export
		ex.Intervals = append(make([]Interval, 0, len(ex.Intervals)), ex.Intervals...)
		ex.Runs = append([]RunMark(nil), ex.Runs...)
		out = append(out, ex)
	}
	return out
}

// WriteCSV writes the exports in tidy (long) form —
// experiment,interval,start_cycles,end_cycles,series,value — one row per
// series per interval, series sorted, ready for plotting
// throughput-vs-p99 curves per experiment.
func WriteCSV(w io.Writer, exports []Export) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "experiment,interval,start_cycles,end_cycles,series,value")
	for _, ex := range exports {
		for i, iv := range ex.Intervals {
			row := func(series, value string) {
				fmt.Fprintf(bw, "%s,%d,%d,%d,%s,%s\n", ex.Segment, i, iv.Start, iv.End, series, value)
			}
			row("cycles", strconv.FormatUint(iv.Cycles, 10))
			for _, name := range obs.SortedKeys(iv.Counters) {
				row(name, strconv.FormatUint(iv.Counters[name], 10))
			}
			for _, name := range obs.SortedKeys(iv.Hists) {
				h := iv.Hists[name]
				row(name+".count", strconv.FormatUint(h.Count, 10))
				row(name+".p50", strconv.FormatFloat(h.P50, 'g', -1, 64))
				row(name+".p99", strconv.FormatFloat(h.P99, 'g', -1, 64))
			}
			for _, name := range obs.SortedKeys(iv.Attr) {
				row("attr."+name, strconv.FormatUint(iv.Attr[name], 10))
			}
			if iv.GaugeSamples > 0 {
				row("gauge_samples", strconv.FormatUint(iv.GaugeSamples, 10))
			}
			for _, name := range obs.SortedKeys(iv.Gauges) {
				g := iv.Gauges[name]
				row("gauge."+name+".sum", strconv.FormatUint(g.Sum, 10))
				row("gauge."+name+".max", strconv.FormatUint(g.Max, 10))
			}
		}
	}
	return bw.Flush()
}
