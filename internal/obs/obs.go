// Package obs is the unified observability layer of the simulated machine:
// a metrics registry where every subsystem publishes its counters under a
// dotted namespace (tlb.shootdowns, mm.lock.wait_cycles, ext4.journal.commits,
// core.prezero.batches, ...), log2-bucket histograms for latency
// distributions (page walks, fault service), and a bounded virtual-time
// event tracer exportable as Chrome trace-event JSON (one track per
// simulated core, viewable in Perfetto).
//
// The tracer's ring holds 32-byte records with no pointers, 2 MiB at
// DefaultTraceCap, which the garbage collector never scans. Each event
// name is stored once, in a table the tracer owns: a writer interns its
// names once (Tracer.Intern) and emits by id, and Events and the Chrome
// export rebuild whole Event values.
//
// The package imports only the sim engine, whose threads' charge tables
// the cycle account reads (Obs.Attach), so every layer above the engine
// can import it without cycles. The tracer's writers (the span collector, one slice
// per closed operation, and the timeline sampler) pass virtual timestamps
// and core ids explicitly. All entry points are nil-receiver safe, so an
// unwired subsystem pays one branch.
//
// Every observability object here and in the span and timeline packages
// has a single owner: it is touched only by the thread the driver is
// running, or by Run's caller after Run returns. Simulated threads are
// coroutines that sim.Engine.Run resumes one at a time, so nothing locks.
package obs

import "daxvm/internal/sim"

// DefaultTraceCap bounds the event ring when the caller does not choose:
// large enough to hold the tail of any experiment, small enough (2 MiB
// of 32-byte records) that an always-on tracer is cheap.
const DefaultTraceCap = 1 << 16

// Obs bundles the registry, tracer and cycle account one machine (or one
// experiment run, when shared across machines) collects into.
type Obs struct {
	Reg    *Registry
	Trace  *Tracer
	Cycles *CycleAccount

	engines []*sim.Engine
}

// New creates an observability hub with a trace ring of traceCap events
// (0 selects DefaultTraceCap).
func New(traceCap int) *Obs {
	if traceCap == 0 {
		traceCap = DefaultTraceCap
	}
	return &Obs{Reg: NewRegistry(), Trace: NewTracer(traceCap), Cycles: NewCycleAccount()}
}

// Attach wires engine e into the hub: Cycles reads its charge tables,
// and its charged cycles and events join EnginesTotal and EnginesEvents.
// Every engine whose charges feed Cycles is attached here (the kernel
// does this for each engine it runs), so EnginesTotal is the
// reconciliation target for CycleAccount.Total.
func (o *Obs) Attach(e *sim.Engine) {
	if o == nil {
		return
	}
	o.Cycles.Attach(e)
	o.engines = append(o.engines, e)
}

// EnginesTotal sums the total charged cycles of every attached engine.
func (o *Obs) EnginesTotal() uint64 {
	if o == nil {
		return 0
	}
	var s uint64
	for _, e := range o.engines {
		s += e.TotalCharged()
	}
	return s
}

// EnginesEvents sums the event counts (see sim.Engine.Events) of every
// attached engine: the deterministic numerator of the host-side
// events/sec speed metric.
func (o *Obs) EnginesEvents() uint64 {
	if o == nil {
		return 0
	}
	var s uint64
	for _, e := range o.engines {
		s += e.Events()
	}
	return s
}
