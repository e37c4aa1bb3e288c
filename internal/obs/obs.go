// Package obs is the unified observability layer of the simulated machine:
// a metrics registry where every subsystem publishes its counters under a
// dotted namespace (tlb.shootdowns, mm.lock.wait_cycles, ext4.journal.commits,
// core.prezero.batches, ...), log2-bucket histograms for latency
// distributions (page walks, fault service), and a bounded virtual-time
// event tracer exportable as Chrome trace-event JSON (one track per
// simulated core, viewable in Perfetto).
//
// The package is dependency-free by design, so every layer of the
// simulator can import it without cycles. The tracer's writers (the span
// collector, one slice per closed operation, and the timeline sampler)
// pass virtual timestamps and core ids explicitly. All entry points are
// nil-receiver safe, so an unwired subsystem pays one branch.
package obs

import "sync"

// DefaultTraceCap bounds the event ring when the caller does not choose:
// large enough to hold the tail of any experiment, small enough that an
// always-on tracer is free.
const DefaultTraceCap = 1 << 16

// Obs bundles the registry, tracer and cycle account one machine (or one
// experiment run, when shared across machines) collects into.
type Obs struct {
	Reg    *Registry
	Trace  *Tracer
	Cycles *CycleAccount

	mu           sync.Mutex
	engineTotals []func() uint64
	engineEvents []func() uint64
}

// New creates an observability hub with a trace ring of traceCap events
// (0 selects DefaultTraceCap).
func New(traceCap int) *Obs {
	if traceCap == 0 {
		traceCap = DefaultTraceCap
	}
	return &Obs{Reg: NewRegistry(), Trace: NewTracer(traceCap), Cycles: NewCycleAccount()}
}

// AddEngineTotal registers a reader for one engine's total charged cycles.
// Every engine whose charges feed Cycles must register here (the kernel
// does this when wiring), so EnginesTotal is the reconciliation target for
// CycleAccount.Total. Kept as func values to stay dependency-free.
func (o *Obs) AddEngineTotal(fn func() uint64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.engineTotals = append(o.engineTotals, fn)
	o.mu.Unlock()
}

// EnginesTotal sums the total charged cycles of every registered engine.
func (o *Obs) EnginesTotal() uint64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var s uint64
	for _, fn := range o.engineTotals {
		s += fn()
	}
	return s
}

// AddEngineEvents registers a reader for one engine's event count (see
// sim.Engine.Events). The sum across engines is the deterministic
// numerator of the host-side events/sec speed metric.
func (o *Obs) AddEngineEvents(fn func() uint64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.engineEvents = append(o.engineEvents, fn)
	o.mu.Unlock()
}

// EnginesEvents sums the event counts of every registered engine.
func (o *Obs) EnginesEvents() uint64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var s uint64
	for _, fn := range o.engineEvents {
		s += fn()
	}
	return s
}
