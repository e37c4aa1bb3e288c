// Package span is the causal layer of the observability stack: every
// top-level simulated operation (page fault, syscall, data-path access,
// journal commit, NOVA log append, TLB shootdown) opens a span in
// virtual time, nested operations become child spans, and blocking
// reasons are recorded as typed wait kinds. Where the cycle profiler
// (obs.CycleAccount) answers "where did all cycles go in aggregate",
// spans answer "what did *this* operation spend its latency on" — the
// per-op provenance that aggregate counters cannot give for tail
// phenomena like the paper's mmap_sem collapse.
//
// Reconciliation contract (the same zero-unattributed discipline as the
// cycle profiler): the collector reads the running tallies of attached
// engines (Attach), so
//
//	BookedCycles + OutsideCycles + RemoteCycles == Σ Engine.TotalCharged
//
// holds exactly. Booked cycles are charges made by a thread while it
// has a span open (they become span self-time); outside cycles are
// charges with no open span (daemons, setup bootstrap); remote cycles
// are AddRemote bookings (IPI handler work), which advance the target
// thread's clock without being work the target's current operation
// initiated, so they belong to no span. Consequently, for a span class
// opened with its attribution frame by sim.Thread.Enter (e.g.
// "fault.minor"), the class's summed tree self-time equals the cycles
// the profiler attributed under that frame.
//
// Wait kinds decompose a span two ways, and the two overlap by design:
//   - charged waits (pmem_bw, remote_numa, ipi) are a subset of
//     self-time, classified from the charge's attribution label;
//   - blocked waits (mmap_sem, journal_flush via lock hooks) are
//     uncharged park gaps, a subset of Dur − TreeSelf.
//
// Spans are the simulator's only per-operation record: with a tracer
// attached (SetTracer), End writes each closed span to it as one
// Chrome-trace slice, so the Perfetto timeline and the critical-path
// tables come from the same Open/End pair and cannot disagree.
//
// Span classes are sim.Labels: the collector keeps each segment's class
// stats in a slice indexed by label id and reads a class's name only when
// the class first appears in a segment and when it exports.
//
// Everything here is deterministic: spans live in virtual time, the
// exemplar reservoir breaks ties by arrival order, and exports sort by
// class name, not by label id — two runs of the same binary serialize
// byte-identically, whatever order their labels were minted in.
package span

import (
	"sort"
	"strings"

	"daxvm/internal/obs"
	"daxvm/internal/sim"
)

// WaitKind is a typed blocking reason recorded on a span.
type WaitKind uint8

const (
	// WaitMmapSem is uncharged time parked on a contended mmap_sem
	// (reader or writer side), fed by the RWSem contention hook.
	WaitMmapSem WaitKind = iota
	// WaitPMemBW is charged stall time against a PMem device's
	// bandwidth model ("bw_stall" charge labels).
	WaitPMemBW
	// WaitRemoteNUMA is the charged surcharge for crossing sockets on
	// the data path ("remote_read"/"remote_write"/"data_remote").
	WaitRemoteNUMA
	// WaitIPI is charged TLB-shootdown broadcast time on the initiator
	// ("ipi_send"/"ipi_wait").
	WaitIPI
	// WaitJournal is journal-flush time: uncharged waits on the journal
	// mutex plus, on a parent span, the full duration of any child
	// journal-commit span (the commit is one opaque flush from the
	// enclosing operation's point of view).
	WaitJournal

	numWaitKinds = 5
)

// ClassJournalCommit is the span class of an ext4 journal commit; the
// collector folds child spans of this class into the parent's
// WaitJournal rather than propagating their internal waits.
const ClassJournalCommit = "journal.commit"

// JournalCommit is ClassJournalCommit's label.
var JournalCommit = sim.NewLabel(ClassJournalCommit)

var waitNames = [numWaitKinds]string{"mmap_sem", "pmem_bw", "remote_numa", "ipi", "journal_flush"}

// String returns the stable serialized name of the wait kind.
func (k WaitKind) String() string {
	if int(k) < len(waitNames) {
		return waitNames[k]
	}
	return "unknown"
}

// node is one live span. Nodes are pooled: a finished root tree is
// recycled unless an exemplar snapshot kept a deep copy.
type node struct {
	class      sim.Label
	core       int
	seq        uint64 // global arrival order, the deterministic tiebreak
	start      uint64 // virtual cycles at Open
	dur        uint64 // set at End
	self       uint64 // cycles this thread charged while innermost here
	childSelf  uint64 // Σ finished children's tree self
	waits      [numWaitKinds]uint64
	childWaits [numWaitKinds]uint64
	children   []*node
}

func (n *node) treeSelf() uint64 { return n.self + n.childSelf }

func (n *node) treeWaits() [numWaitKinds]uint64 {
	w := n.waits
	for k := range w {
		w[k] += n.childWaits[k]
	}
	return w
}

// tstate is the per-thread open-span stack; sim.Thread.SpanSlot holds
// its index in the collector's threads, plus one. Spans nest strictly
// (the instrumented layers bracket with Enter/defer Leave or Open/defer
// End), so a stack is the whole story.
type tstate struct {
	t        *sim.Thread // the thread the state belongs to
	stack    []*node
	attached bool      // the thread's engine is attached: Open and End book its tally
	last     sim.Tally // the thread's tally at its last Open or End
}

// classStats aggregates finished spans of one class within a segment.
type classStats struct {
	count     uint64
	totalDur  uint64
	totalSelf uint64 // Σ tree self
	waits     [numWaitKinds]uint64
	hist      obs.Histogram
	top       []exemplar // ascending by (dur, seq), len ≤ collector K
	trace     obs.NameID // the class's name in the collector's tracer
	class     sim.Label
}

// exemplar is a retained slow-op record: the full span tree plus the
// roll-ups the critical-path table needs.
type exemplar struct {
	dur      uint64
	seq      uint64
	treeSelf uint64
	waits    [numWaitKinds]uint64
	tree     Span
}

// segment groups spans the way the timeline groups intervals: one
// segment per experiment run, so artifacts can slice per experiment.
// waits are the segment's once-counted wait-kind totals: every charged
// classified cycle and every uncharged Wait gap lands here exactly once,
// whether or not a span is open. Per-class wait stats multi-count by
// nesting depth (finish propagates tree waits to parents), so these
// totals — not the class sums — are what reconcile against the resource
// models' own stall counters and what the bottleneck analyzer
// cross-checks saturation scores against. classes is indexed by class
// label; an entry with count 0 is a class the segment has not seen. It
// grows only when a class is first seen, and End, which adds a class,
// holds its entry's address only until it has counted the span.
type segment struct {
	id      string
	classes []classStats
	waits   [numWaitKinds]uint64
}

// empty reports whether the segment saw neither spans nor wait cycles.
func (s *segment) empty() bool {
	if len(s.classes) > 0 {
		return false
	}
	for _, v := range s.waits {
		if v != 0 {
			return false
		}
	}
	return true
}

// byName returns the segment's class stats sorted by class name.
func (s *segment) byName() []*classStats {
	var out []*classStats
	for i := range s.classes {
		if s.classes[i].count > 0 {
			out = append(out, &s.classes[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class.String() < out[j].class.String() })
	return out
}

// class returns the current segment's stats for a span class, made on
// first use, when the class's name is interned in the tracer.
func (c *Collector) class(l sim.Label) *classStats {
	if cs := c.cur.classes; int(l) < len(cs) && cs[l].count > 0 {
		return &cs[l]
	}
	return c.newClass(l)
}

func (c *Collector) newClass(l sim.Label) *classStats {
	s := c.cur
	if n := int(l) + 1; n > len(s.classes) {
		//lint:ignore hotalloc once per new span class in a segment; the table grows to the largest class label
		s.classes = append(s.classes, make([]classStats, n-len(s.classes))...)
	}
	st := &s.classes[l]
	st.class, st.trace = l, c.tr.Intern(l.String(), "")
	return st
}

// chargedKinds are the wait kinds charges are classified into. Each
// one's path class is its own value; class 0, WaitMmapSem's value (a kind
// never charged), is for charges no kind names.
var chargedKinds = [...]WaitKind{WaitPMemBW, WaitRemoteNUMA, WaitIPI}

// attachedEngine is an engine whose tallies the collector reads, with its
// totals as last folded in.
type attachedEngine struct {
	e       *sim.Engine
	tally   sim.Tally
	charged uint64
}

// Collector owns the per-thread span stacks and the per-segment
// aggregates. All entry points are nil-receiver safe so unwired
// subsystems pay one branch, mirroring the tracer and profiler.
type Collector struct {
	k   int    // exemplars kept per class
	seq uint64 // Open arrival counter

	booked  uint64 // local charges landed in an open span
	local   uint64 // local charges folded in or observed, span or not
	charged uint64 // local plus AddRemote bookings (never in a span)

	engines []*attachedEngine
	threads []*tstate // by sim.Thread.SpanSlot − 1

	cur  *segment
	done []*segment

	free []*node

	tr *obs.Tracer // receives one slice per closed span; nil = none
}

// New creates a collector keeping at most k exemplar span trees per op
// class per segment (k <= 0 disables exemplars; stats are still kept).
func New(k int) *Collector {
	return &Collector{k: k, cur: &segment{}}
}

// SetTracer attaches the Perfetto ring that End writes every closed span
// to (nil detaches). The slice is named by the span class, sits on the
// span's core track, spans its virtual-time window, and carries the
// span's tree self-cycles as its arg.
func (c *Collector) SetTracer(tr *obs.Tracer) {
	if c == nil {
		return
	}
	c.tr = tr
	for _, st := range c.cur.byName() {
		st.trace = tr.Intern(st.class.String(), "")
	}
}

// Of returns the collector t's engine carries (Attach), or nil: how an
// instrumented layer reaches the collector without holding one.
func Of(t *sim.Thread) *Collector {
	c, _ := t.Engine().Spans().(*Collector)
	return c
}

// state returns t's span state, made on first use.
func (c *Collector) state(t *sim.Thread) *tstate {
	if ts := c.lookup(t); ts != nil {
		return ts
	}
	return c.newState(t)
}

// lookup returns t's span state, or nil if the collector has none.
func (c *Collector) lookup(t *sim.Thread) *tstate {
	if i := t.SpanSlot - 1; i >= 0 && i < len(c.threads) {
		if ts := c.threads[i]; ts.t == t {
			return ts
		}
	}
	return nil
}

func (c *Collector) newState(t *sim.Thread) *tstate {
	if t.SpanSlot != 0 {
		panic("span: the thread already carries another collector's spans")
	}
	//lint:ignore hotalloc once per thread; later calls read the thread's slot
	c.threads = append(c.threads, &tstate{t: t, attached: Of(t) == c})
	t.SpanSlot = len(c.threads)
	return c.threads[len(c.threads)-1]
}

func (c *Collector) newNode() *node {
	if n := len(c.free); n > 0 {
		nd := c.free[n-1]
		c.free = c.free[:n-1]
		return nd
	}
	//lint:ignore hotalloc pool miss: steady state recycles finished trees through the free list
	return &node{}
}

// recycle returns a finished root tree to the free list. Exemplar
// snapshots deep-copied out of the tree are unaffected.
func (c *Collector) recycle(n *node) {
	for _, ch := range n.children {
		c.recycle(ch)
	}
	kids := n.children[:0]
	*n = node{}
	n.children = kids
	//lint:ignore hotalloc free list: bounded by the peak live tree size
	c.free = append(c.free, n)
}

// Begin opens a span of the class named class on t: Open with the
// class's label, minted on the call. Instrumented layers mint their
// labels once and call Open.
func (c *Collector) Begin(t *sim.Thread, class string) {
	if c == nil {
		return
	}
	c.Open(t, sim.NewLabel(class))
}

// Open opens a span of the given class on t at its current virtual
// time. Classes mirror the attribution labels of the operation they
// wrap ("fault.minor", "syscall.append", ...); sim.Thread.Enter opens
// the frame and a span of its label in one call.
func (c *Collector) Open(t *sim.Thread, class sim.Label) {
	if c == nil {
		return
	}
	ts := c.sync(t)
	c.seq++
	n := c.newNode()
	n.class = class
	n.core = t.Core
	n.seq = c.seq
	n.start = t.Now()
	//lint:ignore hotalloc span stack: reaches its steady nesting depth after warm-up
	ts.stack = append(ts.stack, n)
}

// End closes t's innermost open span and emits it to the attached
// tracer. Panics on an unmatched End — an instrumentation bug, like
// PopAttr without PushAttr.
func (c *Collector) End(t *sim.Thread) {
	if c == nil {
		return
	}
	ts := c.sync(t)
	if len(ts.stack) == 0 {
		panic("span: End without matching Begin")
	}
	n := ts.stack[len(ts.stack)-1]
	ts.stack = ts.stack[:len(ts.stack)-1]
	n.dur = t.Now() - n.start
	st := c.class(n.class)
	c.tr.Emit(st.trace, n.core, n.start, n.dur, n.treeSelf())
	c.finish(n, ts, st)
}

// OpenSpans reports how many spans t has open.
func (c *Collector) OpenSpans(t *sim.Thread) int {
	if c == nil {
		return 0
	}
	if ts := c.lookup(t); ts != nil {
		return len(ts.stack)
	}
	return 0
}

// finish folds a closed span into its class's stats st and either
// attaches it to its parent or recycles the finished root tree.
func (c *Collector) finish(n *node, ts *tstate, st *classStats) {
	st.count++
	st.totalDur += n.dur
	tSelf := n.treeSelf()
	st.totalSelf += tSelf
	tw := n.treeWaits()
	for k := range tw {
		st.waits[k] += tw[k]
	}
	st.hist.Observe(n.dur)
	c.consider(st, n, tSelf, tw)
	if len(ts.stack) > 0 {
		p := ts.stack[len(ts.stack)-1]
		p.childSelf += tSelf
		if n.class == JournalCommit {
			// From the enclosing op's point of view the commit is one
			// opaque flush: book its whole duration as journal wait and
			// drop its internal decomposition (avoids double counting
			// the commit's own bw stalls against the parent).
			p.childWaits[WaitJournal] += n.dur
		} else {
			for k := range tw {
				p.childWaits[k] += tw[k]
			}
		}
		//lint:ignore hotalloc children slices are recycled with their nodes; growth amortizes away
		p.children = append(p.children, n)
		return
	}
	c.recycle(n)
}

// consider offers a finished span to the class's top-K reservoir.
// Replacement requires strictly greater duration, so among equal-length
// ops the earliest seen survive; combined with the virtual-time seq
// tiebreak this makes the kept set and its order run-invariant.
func (c *Collector) consider(st *classStats, n *node, tSelf uint64, tw [numWaitKinds]uint64) {
	if c.k <= 0 {
		return
	}
	if len(st.top) == c.k && n.dur <= st.top[0].dur {
		return
	}
	ex := exemplar{dur: n.dur, seq: n.seq, treeSelf: tSelf, waits: tw, tree: snapshot(n)}
	if len(st.top) == c.k {
		copy(st.top, st.top[1:])
		st.top = st.top[:c.k-1]
	}
	// Insert keeping ascending (dur, seq) order; K is small.
	i := len(st.top)
	for i > 0 && (st.top[i-1].dur > ex.dur || (st.top[i-1].dur == ex.dur && st.top[i-1].seq > ex.seq)) {
		i--
	}
	//lint:ignore hotalloc top-K reservoir: the append never grows past K
	st.top = append(st.top, exemplar{})
	copy(st.top[i+1:], st.top[i:])
	st.top[i] = ex
}

// sync books the cycles t charged since its last Open or End into its
// innermost open span, with their charged waits; with no span open they
// stay outside. Only Open and End move the stack, so every cycle lands
// in the span that was innermost when it was charged. Callers run on
// t's engine's running thread or once that engine has stopped.
func (c *Collector) sync(t *sim.Thread) *tstate {
	ts := c.state(t)
	if !ts.attached {
		return ts
	}
	now := t.Tally()
	if n := len(ts.stack); n > 0 {
		sp := ts.stack[n-1]
		d := now.Local - ts.last.Local
		sp.self += d
		c.booked += d
		for _, k := range chargedKinds {
			sp.waits[k] += now.Classes[k] - ts.last.Classes[k]
		}
	}
	ts.last = now
	return ts
}

// Observe books one charge on path into t's innermost open span,
// classifying bandwidth/NUMA/IPI labels into wait kinds, and counts it
// toward the totals that reconcile against Engine.TotalCharged: the
// entry point for a charge no attached engine tallies.
func (c *Collector) Observe(t *sim.Thread, path string, cycles uint64, remote bool) {
	if c == nil {
		return
	}
	c.charged += cycles
	if remote {
		return
	}
	c.local += cycles
	k := classify(path)
	if k != 0 {
		// Segment totals count every classified charge exactly once,
		// span or no span (a daemon's bw stall is still channel wait).
		c.cur.waits[k] += cycles
	}
	ts := c.state(t)
	if len(ts.stack) == 0 {
		return
	}
	n := ts.stack[len(ts.stack)-1]
	n.self += cycles
	c.booked += cycles
	if k != 0 {
		n.waits[k] += cycles
	}
}

// Attach makes the collector the one e carries (for Enter, Leave and Of)
// and makes it read e's tallies, with e's path classes set to the wait
// kinds their leaf labels name. Attach before e runs.
func (c *Collector) Attach(e *sim.Engine) {
	if c == nil {
		return
	}
	e.SetSpans(c, classify)
	c.engines = append(c.engines, &attachedEngine{e: e, tally: e.Tally(), charged: e.TotalCharged()})
}

// fold adds what the attached engines charged since the last fold to the
// totals and to the current segment's wait totals. Call it before
// reading either.
func (c *Collector) fold() {
	for _, a := range c.engines {
		now, charged := a.e.Tally(), a.e.TotalCharged()
		c.local += now.Local - a.tally.Local
		c.charged += charged - a.charged
		for _, k := range chargedKinds {
			c.cur.waits[k] += now.Classes[k] - a.tally.Classes[k]
		}
		a.tally, a.charged = now, charged
	}
}

// classify maps a charge path's leaf label to its class, the value of
// the charged wait kind it names, or 0 for none; Attach registers it as
// the engine's classifier. The labels
// are the attribution contract of the instrumented layers: pmem books
// bandwidth stalls as "bw_stall" and cross-socket surcharges as
// "remote_read"/"remote_write", the kernel data path books remote
// accesses as "data_remote", and cpu books shootdown broadcast cost as
// "ipi_send"/"ipi_wait".
func classify(path string) uint8 {
	leaf := path
	if i := strings.LastIndexByte(path, '.'); i >= 0 {
		leaf = path[i+1:]
	}
	switch leaf {
	case "bw_stall":
		return uint8(WaitPMemBW)
	case "remote_read", "remote_write", "data_remote":
		return uint8(WaitRemoteNUMA)
	case "ipi_send", "ipi_wait":
		return uint8(WaitIPI)
	}
	return 0
}

// Wait books an uncharged blocked gap (cycles long) of the given kind
// onto the segment's wait totals and t's innermost open span; with no
// span open only the segment counts it — a daemon parked on a lock is
// not an operation. Wired from lock contention hooks with the pure park
// gap (ContentionFn's blocked argument).
func (c *Collector) Wait(t *sim.Thread, k WaitKind, cycles uint64) {
	if c == nil || cycles == 0 {
		return
	}
	ts := c.state(t)
	c.cur.waits[k] += cycles
	if len(ts.stack) == 0 {
		return
	}
	ts.stack[len(ts.stack)-1].waits[k] += cycles
}

// StartSegment finalizes the current segment (if it saw any spans) and
// starts a new one named id, mirroring timeline.StartSegment. Call it
// between engine runs: the waits the attached engines charged so far
// fold into the segment it finalizes.
func (c *Collector) StartSegment(id string) {
	if c == nil {
		return
	}
	c.fold()
	if !c.cur.empty() {
		c.done = append(c.done, c.cur)
	}
	c.cur = &segment{id: id}
}

// BookedCycles reports charges booked as span self-time.
func (c *Collector) BookedCycles() uint64 {
	if c == nil {
		return 0
	}
	return c.booked
}

// OutsideCycles reports charges observed with no open span.
func (c *Collector) OutsideCycles() uint64 {
	if c == nil {
		return 0
	}
	c.fold()
	return c.local - c.booked
}

// RemoteCycles reports AddRemote bookings, which belong to no span.
func (c *Collector) RemoteCycles() uint64 {
	if c == nil {
		return 0
	}
	c.fold()
	return c.charged - c.local
}

// ObservedCycles is the reconciliation total: it must equal the summed
// TotalCharged of every attached engine, plus what Observe booked.
func (c *Collector) ObservedCycles() uint64 {
	if c == nil {
		return 0
	}
	c.fold()
	return c.charged
}
