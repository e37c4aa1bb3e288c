// Package attrbalance verifies that every sim.Thread.PushAttr has a
// matching PopAttr on all paths out of the function: a dominating
// `defer t.PopAttr()` or an explicit pop before each return, and checks
// Enter/Leave, which push and pop a frame too, the same way. A call to
// a push-only or pop-only helper (the kernel's sysEnter/sysExit) counts
// as the pushes or pops it performs. An unbalanced frame does not
// crash — it silently misattributes every later cycle of the thread,
// corrupting the cycle-accounting invariant the perf gate reconciles.
//
// The pairing engine (accepted idioms, branch/loop net-balance rules)
// lives in the shared balance package; spanbalance applies the same
// engine to span.Collector.Begin/End.
package attrbalance

import (
	"daxvm/tools/simlint/analyzers/balance"
)

// Analyzer is the attribution-frame balance check.
var Analyzer = balance.New(balance.Config{
	Name: "attrbalance",
	Doc:  "require every sim PushAttr to be closed by PopAttr on all return paths",
	Pairs: []balance.Pair{
		{Pkg: "sim", Open: "PushAttr", Close: "PopAttr"},
		{Pkg: "sim", Open: "Enter", Close: "Leave"},
	},
	Noun: "attribution frame",
})
