// Package dm exercises the detmap analyzer.
package dm

import (
	"fmt"
	"io"
	"strings"

	"daxvm/tools/simlint/teststub/obs"
)

func printUnsorted(w io.Writer, m map[string]int) {
	for k, v := range m { // want `map iteration order is random but the body writes output \(Fprintf\)`
		fmt.Fprintf(w, "%s %d\n", k, v)
	}
}

func builderUnsorted(m map[string]uint64) string {
	var b strings.Builder
	for k := range m { // want `map iteration order is random but the body writes output \(WriteString\)`
		b.WriteString(k)
	}
	return b.String()
}

func traceUnsorted(tr *obs.Tracer, m map[string]uint64) {
	for tag, v := range m { // want `map iteration order is random but the body writes output \(Emit\)`
		tr.Emit(tr.Intern("export", tag), 0, 0, 0, v)
	}
}

func printSorted(w io.Writer, m map[string]int) {
	for _, k := range obs.SortedKeys(m) {
		fmt.Fprintf(w, "%s %d\n", k, m[k])
	}
}

func aggregateOnly(m map[string]uint64) uint64 {
	var sum uint64
	for _, v := range m {
		sum += v
	}
	return sum
}

// csvUnsorted mirrors the timeline CSV exporter's row-helper shape: the
// Fprintf hides inside a local closure, but calling it from a raw map
// range still leaks random order into the output.
func csvUnsorted(w io.Writer, m map[string]uint64) {
	row := func(series string, v uint64) {
		fmt.Fprintf(w, "%s,%d\n", series, v)
	}
	for k, v := range m { // want `map iteration order is random but the body writes output \(row\)`
		row(k, v)
	}
}

func csvSorted(w io.Writer, m map[string]uint64) {
	row := func(series string, v uint64) {
		fmt.Fprintf(w, "%s,%d\n", series, v)
	}
	for _, k := range obs.SortedKeys(m) {
		row(k, m[k])
	}
}

func suppressedSingleton(w io.Writer, m map[string]int) {
	//lint:ignore detmap map has exactly one key by construction
	for k, v := range m {
		fmt.Fprintf(w, "%s %d\n", k, v)
	}
}
