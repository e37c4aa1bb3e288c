// Package mint checks that a sim.NewLabel call reached from a hot-path
// root is reported: minting locks a process-wide table on every call.
package mint

import "daxvm/tools/simlint/teststub/sim"

// Fault is the fixture's per-event entry point.
//
// hotalloc:root
func Fault(t *sim.Thread) {
	charge(t, 10)
}

func charge(t *sim.Thread, c uint64) {
	t.ChargeAs(sim.NewLabel("walk"), c) // want `hot-path allocation \(label\): sim\.NewLabel mints a label; mint it once into a package-level var; trace: mint\.Fault -> mint\.charge`
}
