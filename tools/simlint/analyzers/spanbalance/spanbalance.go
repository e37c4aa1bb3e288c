// Package spanbalance verifies that every span.Collector.Begin (or Open,
// its label form) has a matching End on all paths out of the function:
// a dominating `defer span.Of(t).End(t)` or an explicit End before each
// return, and checks sim.Thread.Enter/Leave, which begin and end a span
// too, the same way. A call to a Begin-only or End-only helper (the
// kernel's sysEnter/sysExit) counts as the Begins or Ends it performs.
// An unbalanced span is worse than a lost measurement — End pops the
// thread's span stack, so a leaked Begin re-parents every later span on
// the thread and breaks the self-time reconciliation the span layer
// promises (and panics at the next unmatched End).
//
// The pairing engine (accepted idioms, branch/loop net-balance rules)
// is shared with attrbalance via the balance package. Note that the
// analyzer counts only DIRECT calls in defers: `defer sp.End(t)` is
// seen, `defer func() { sp.End(t) }()` is not.
package spanbalance

import (
	"daxvm/tools/simlint/analyzers/balance"
)

// Analyzer is the span Begin/End balance check.
var Analyzer = balance.New(balance.Config{
	Name: "spanbalance",
	Doc:  "require every span Begin to be closed by End on all return paths",
	Pairs: []balance.Pair{
		{Pkg: "span", Open: "Begin", AltOpen: "Open", Close: "End"},
		{Pkg: "sim", Open: "Enter", Close: "Leave"},
	},
	Noun: "span",
})
