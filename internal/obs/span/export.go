package span

import (
	"fmt"
	"io"
	"sort"

	"daxvm/internal/obs"
)

// Span is one exported span-tree node. Children always ran on the same
// thread as the parent (spans nest on the open-span stack), so a tree
// reads as one operation's timeline. Self counts cycles charged while
// this exact span was innermost; TreeSelf adds all descendants.
// Charged wait kinds are a subset of self-time, uncharged ones
// (mmap_sem, journal_flush) a subset of Dur − TreeSelf.
type Span struct {
	Class    string            `json:"class"`
	Core     int               `json:"core"`
	Start    uint64            `json:"start_cycles"`
	Dur      uint64            `json:"dur_cycles"`
	Self     uint64            `json:"self_cycles"`
	TreeSelf uint64            `json:"tree_self_cycles"`
	Waits    map[string]uint64 `json:"waits,omitempty"`
	Children []Span            `json:"children,omitempty"`
}

// Decomp is a latency decomposition of one exemplar operation:
// TotalCycles = SelfCycles (charged work) + BlockedCycles (uncharged
// park/queue gaps). Waits name the known reasons inside either half.
type Decomp struct {
	TotalCycles   uint64            `json:"total_cycles"`
	SelfCycles    uint64            `json:"self_cycles"`
	BlockedCycles uint64            `json:"blocked_cycles"`
	Waits         map[string]uint64 `json:"waits,omitempty"`
}

// ClassExport is the critical-path summary of one op class in a
// segment: counts, cycle totals, latency quantiles from the log2
// histogram, the tree-aggregated wait decomposition, and the p99
// exemplar's exact decomposition.
type ClassExport struct {
	Class       string            `json:"class"`
	Count       uint64            `json:"count"`
	TotalCycles uint64            `json:"total_cycles"`
	SelfCycles  uint64            `json:"self_cycles"`
	AvgCycles   float64           `json:"avg_cycles"`
	P50Cycles   float64           `json:"p50_cycles"`
	P99Cycles   float64           `json:"p99_cycles"`
	Waits       map[string]uint64 `json:"waits,omitempty"`
	P99         *Decomp           `json:"p99_exemplar,omitempty"`
}

// SegmentExport is everything the span layer learned during one
// segment: per-class critical-path rows (sorted by class name), the
// top-K exemplar trees per class (slowest first), and the segment's
// once-counted wait-kind totals. Unlike the per-class Waits (which
// multi-count by span nesting depth), WaitTotals book every classified
// charge and every uncharged Wait gap exactly once, so they reconcile
// against the resource models' stall counters and anchor the bottleneck
// analyzer's cross-check.
type SegmentExport struct {
	Segment    string            `json:"segment"`
	Classes    []ClassExport     `json:"classes"`
	Exemplars  map[string][]Span `json:"exemplars,omitempty"`
	WaitTotals map[string]uint64 `json:"wait_totals,omitempty"`
}

// snapshot deep-copies a finished node tree into the export form.
func snapshot(n *node) Span {
	s := Span{
		Class:    n.class.String(),
		Core:     n.core,
		Start:    n.start,
		Dur:      n.dur,
		Self:     n.self,
		TreeSelf: n.treeSelf(),
		Waits:    waitMap(n.waits),
	}
	if len(n.children) > 0 {
		//lint:ignore hotalloc exemplar snapshot: deep copy only when a span enters the top-K
		s.Children = make([]Span, len(n.children))
		for i, ch := range n.children {
			s.Children[i] = snapshot(ch)
		}
	}
	return s
}

// waitMap converts the fixed wait array to its sparse serialized form
// (nil when all zero, so empty maps never reach the artifact).
func waitMap(w [numWaitKinds]uint64) map[string]uint64 {
	var m map[string]uint64
	for k, v := range w {
		if v == 0 {
			continue
		}
		if m == nil {
			//lint:ignore hotalloc exemplar snapshot: only when a span enters the top-K
			m = make(map[string]uint64, numWaitKinds)
		}
		m[WaitKind(k).String()] = v
	}
	return m
}

// Export returns every finished segment plus the current one if it saw
// spans or waits, in run order.
func (c *Collector) Export() []SegmentExport {
	if c == nil {
		return nil
	}
	c.fold()
	var out []SegmentExport
	for _, s := range c.done {
		out = append(out, exportSegment(s))
	}
	if !c.cur.empty() {
		out = append(out, exportSegment(c.cur))
	}
	return out
}

// ExportSegment returns the latest segment with the given id, which is
// what an artifact for that experiment embeds (a later run of the same
// segment wins, matching how artifacts resolve repeated runs).
func (c *Collector) ExportSegment(id string) (SegmentExport, bool) {
	var found SegmentExport
	ok := false
	for _, ex := range c.Export() {
		if ex.Segment == id {
			found, ok = ex, true
		}
	}
	return found, ok
}

func exportSegment(s *segment) SegmentExport {
	out := SegmentExport{Segment: s.id, WaitTotals: waitMap(s.waits)}
	for _, st := range s.byName() {
		name := st.class.String()
		snap := st.hist.Snapshot()
		ce := ClassExport{
			Class:       name,
			Count:       st.count,
			TotalCycles: st.totalDur,
			SelfCycles:  st.totalSelf,
			AvgCycles:   float64(st.totalDur) / float64(st.count),
			P50Cycles:   snap.Quantile(0.50),
			P99Cycles:   snap.Quantile(0.99),
			Waits:       waitMap(st.waits),
		}
		if len(st.top) > 0 {
			// The p99 exemplar is the retained op closest above the
			// histogram's p99 estimate (the reservoir is ascending), or
			// the slowest retained op if the estimate overshoots.
			pick := st.top[len(st.top)-1]
			for _, ex := range st.top {
				if float64(ex.dur) >= ce.P99Cycles {
					pick = ex
					break
				}
			}
			ce.P99 = &Decomp{
				TotalCycles:   pick.dur,
				SelfCycles:    pick.treeSelf,
				BlockedCycles: pick.dur - pick.treeSelf,
				Waits:         waitMap(pick.waits),
			}
			exs := make([]exemplar, len(st.top))
			copy(exs, st.top)
			sort.Slice(exs, func(i, j int) bool {
				if exs[i].dur != exs[j].dur {
					return exs[i].dur > exs[j].dur
				}
				return exs[i].seq < exs[j].seq
			})
			trees := make([]Span, len(exs))
			for i, ex := range exs {
				trees[i] = ex.tree
			}
			if out.Exemplars == nil {
				out.Exemplars = map[string][]Span{}
			}
			out.Exemplars[name] = trees
		}
		out.Classes = append(out.Classes, ce)
	}
	return out
}

// WriteTable renders one segment's critical-path breakdown as the
// human-readable table daxbench prints: per op class, latency stats
// and the share of class time explained by each wait kind.
func WriteTable(w io.Writer, ex SegmentExport) {
	if len(ex.Classes) == 0 {
		return
	}
	fmt.Fprintf(w, "-- critical path (%s) --\n", ex.Segment)
	fmt.Fprintf(w, "%-22s %10s %12s %12s %7s  %s\n",
		"op class", "count", "avg cyc", "p99 cyc", "self%", "waits (% of class time)")
	for _, ce := range ex.Classes {
		selfPct := 0.0
		if ce.TotalCycles > 0 {
			selfPct = 100 * float64(ce.SelfCycles) / float64(ce.TotalCycles)
		}
		fmt.Fprintf(w, "%-22s %10d %12.0f %12.0f %7.1f  %s\n",
			ce.Class, ce.Count, ce.AvgCycles, ce.P99Cycles, selfPct, waitSummary(ce))
	}
}

// waitSummary formats a class's wait kinds as "name pct" pairs, largest
// first, name-ascending on ties.
func waitSummary(ce ClassExport) string {
	if len(ce.Waits) == 0 || ce.TotalCycles == 0 {
		return "-"
	}
	names := obs.SortedKeys(ce.Waits)
	sort.SliceStable(names, func(i, j int) bool {
		return ce.Waits[names[i]] > ce.Waits[names[j]]
	})
	s := ""
	for i, name := range names {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %.1f%%", name, 100*float64(ce.Waits[name])/float64(ce.TotalCycles))
	}
	return s
}
