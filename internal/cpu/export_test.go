package cpu

import "daxvm/internal/pt"

// TouchPTELine exposes the walker's PTE-line cache to the external tests:
// it records a touch of node's cache line line and reports whether the
// line was warm.
func (c *Core) TouchPTELine(node *pt.Node, line int) bool { return c.touchPTELine(node, line) }
