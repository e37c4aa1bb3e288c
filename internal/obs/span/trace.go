package span

import (
	"fmt"
	"io"
	"strconv"

	"daxvm/internal/obs"
)

// WriteChromeTrace exports the exemplar span trees of every segment as
// Chrome trace-event JSON, viewable in Perfetto next to the simulator's
// event trace: same timebase (virtual cycles over cyclesPerUsec), same
// track convention (pid 0, tid = simulated core). Each exemplar renders
// as nested "X" slices, and each multi-span exemplar additionally
// carries one flow (s/t/f chain) so Perfetto highlights the whole
// causal tree when any slice is selected. Output is deterministic:
// segments in run order, classes sorted, exemplars slowest-first.
func WriteChromeTrace(w io.Writer, segs []SegmentExport, cyclesPerUsec float64) error {
	// Name the core tracks that carry exemplar slices.
	cores := map[int]bool{}
	for _, seg := range segs {
		for _, trees := range seg.Exemplars {
			for _, t := range trees {
				collectCores(&t, cores)
			}
		}
	}
	cw := obs.NewChromeWriter(w, cyclesPerUsec, cores)
	flowID := 0
	for _, seg := range segs {
		for _, class := range obs.SortedKeys(seg.Exemplars) {
			for rank, tree := range seg.Exemplars[class] {
				flowID++
				writeTree(cw, &tree, seg.Segment, rank, flowID)
			}
		}
	}
	return cw.Close()
}

func collectCores(s *Span, cores map[int]bool) {
	cores[s.Core] = true
	for i := range s.Children {
		collectCores(&s.Children[i], cores)
	}
}

// writeTree emits one exemplar: its slices in pre-order plus, when the
// tree has more than one span, a flow chain binding them together.
func writeTree(cw *obs.ChromeWriter, root *Span, segment string, rank, flowID int) {
	var nodes []*Span
	var walk func(*Span)
	walk = func(s *Span) {
		nodes = append(nodes, s)
		for i := range s.Children {
			walk(&s.Children[i])
		}
	}
	walk(root)
	for _, s := range nodes {
		args := fmt.Sprintf(`{"segment":%s,"rank":%d,"self_cycles":%d,"tree_self_cycles":%d%s}`,
			strconv.Quote(segment), rank, s.Self, s.TreeSelf, waitArgs(s.Waits))
		cw.Event(fmt.Sprintf(`{"name":%s,"cat":"exemplar","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":%s}`,
			strconv.Quote(s.Class), cw.Usec(s.Start), cw.Usec(s.Dur), s.Core, args))
	}
	if len(nodes) < 2 {
		return
	}
	for i, s := range nodes {
		ph := "t"
		switch i {
		case 0:
			ph = "s"
		case len(nodes) - 1:
			ph = "f"
		}
		bp := ""
		if ph == "f" {
			bp = `,"bp":"e"`
		}
		cw.Event(fmt.Sprintf(`{"name":%s,"cat":"exemplar_flow","ph":%q,"id":%d,"ts":%s,"pid":0,"tid":%d%s}`,
			strconv.Quote(root.Class), ph, flowID, cw.Usec(s.Start), s.Core, bp))
	}
}

// waitArgs renders a span's wait decomposition as deterministic JSON
// (sorted keys), or nothing when empty.
func waitArgs(waits map[string]uint64) string {
	if len(waits) == 0 {
		return ""
	}
	s := `,"waits":{`
	for i, k := range obs.SortedKeys(waits) {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s:%d", strconv.Quote(k), waits[k])
	}
	return s + "}"
}
