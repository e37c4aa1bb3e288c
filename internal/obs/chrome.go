package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// ChromeWriter writes one Chrome trace-event JSON document (the
// {"traceEvents": [...]} object form, viewable in Perfetto or
// chrome://tracing). The event ring and the span exemplars both write
// through it. The bufio.Writer keeps the first write error, which Close
// returns.
type ChromeWriter struct {
	bw            *bufio.Writer
	cyclesPerUsec float64
	sep           string // written before the next event
}

// NewChromeWriter starts a document on w whose timestamps convert virtual
// cycles at cyclesPerUsec (2700, the simulator's 2.7 GHz clock, when not
// positive), and names the track of each core in cores ("core N").
func NewChromeWriter(w io.Writer, cyclesPerUsec float64, cores map[int]bool) *ChromeWriter {
	if cyclesPerUsec <= 0 {
		cyclesPerUsec = 2700
	}
	cw := &ChromeWriter{bw: bufio.NewWriter(w), cyclesPerUsec: cyclesPerUsec}
	cw.bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	for _, c := range SortedKeys(cores) {
		cw.Event(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"core %d"}}`, c, c))
	}
	return cw
}

// Event appends one trace event, a JSON object.
func (cw *ChromeWriter) Event(s string) {
	cw.bw.WriteString(cw.sep + s)
	cw.sep = ",\n"
}

// Usec formats a virtual-cycle time or duration as trace microseconds.
func (cw *ChromeWriter) Usec(cycles uint64) string {
	return strconv.FormatFloat(float64(cycles)/cw.cyclesPerUsec, 'f', 3, 64)
}

// Close ends the document and flushes it, returning the first error.
func (cw *ChromeWriter) Close() error {
	cw.bw.WriteString("\n]}\n")
	return cw.bw.Flush()
}
