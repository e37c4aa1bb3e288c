// Package labelvar is mint's negative: labels minted into package-level
// variables cost the hot path nothing, so nothing is reported.
package labelvar

import "daxvm/tools/simlint/teststub/sim"

var walk = sim.NewLabel("walk")

// Fault is the fixture's per-event entry point.
//
// hotalloc:root
func Fault(t *sim.Thread) {
	t.ChargeAs(walk, 10)
}
