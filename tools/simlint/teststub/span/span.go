// Package span is a no-op mirror of daxvm/internal/obs/span's surface
// for analyzer fixtures. The spanbalance analyzer matches Begin/End
// calls by (package name, method name), so fixtures import this stub
// instead of dragging the real collector into testdata builds.
package span

import (
	"daxvm/tools/simlint/teststub/sim"
)

// WaitKind mirrors the typed wait-reason enum.
type WaitKind int

// WaitMmapSem mirrors one wait kind; fixtures only need a value to pass.
const WaitMmapSem WaitKind = 0

// Collector mirrors the span collector's instrumentation surface.
type Collector struct{}

// Of mirrors the lookup of the collector a thread's engine carries.
func Of(t *sim.Thread) *Collector { _ = t; return &Collector{} }

func (c *Collector) Begin(t *sim.Thread, class string)         { _, _ = t, class }
func (c *Collector) Open(t *sim.Thread, class sim.Label)       { _, _ = t, class }
func (c *Collector) End(t *sim.Thread)                         { _ = t }
func (c *Collector) Wait(t *sim.Thread, k WaitKind, cy uint64) { _, _, _ = t, k, cy }
func (c *Collector) StartSegment(id string)                    { _ = id }
