// Package sim is a deterministic discrete-event simulation engine for
// virtual-time multicore execution.
//
// Every simulated hardware thread is a coroutine, and exactly one runs at
// a time: Run is the driver loop that resumes the runnable thread with the
// smallest virtual clock, and a thread runs until it picks the next one
// and yields back to the driver. Pure-local work just advances the local
// clock (Charge); only operations that touch shared state (locks, IPIs,
// wakeups) are synchronization points. Because the scheduler always
// resumes the minimum-clock runnable thread, shared-state events are
// processed in virtual-time order, which makes lock-contention behaviour —
// the central quantity in the DaxVM paper's scalability experiments —
// emerge from the model rather than from a formula, while remaining fully
// deterministic.
//
// Runnable threads wait in one ready heap ordered by (wakeAt, seq); seq is
// a unique push stamp, so dispatch order is total. Every charge is one
// add into a table the charged thread keeps, a Row of cycles and count
// per attribution path id (Rows), and the thread's local charges also add
// to a running tally by path class (SetSpans). Readers read the
// tables, so a handoff does no bookkeeping for them. Enter and Leave
// open and close an operation's frame and span. Usable
// lookahead between cores is zero (shared PMem token buckets,
// zero-latency SpinLock handoff), so model execution cannot be spread
// across host cores (DESIGN.md §4b).
//
// Self-yield fast path: a thread that yields or sleeps while it would
// still be the minimum (the heap is empty, or its wake time is strictly
// below the heap top's) keeps running without a push or a pop. It stamps
// seq and counts the event as the push would, so dispatch order and
// Events are what the heap round trip gives. On a tie the queued thread
// wins, as it would against the larger seq a push stamps. In a
// one-thread workload nearly every Yield takes this path.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Engine owns the virtual-time scheduler.
type Engine struct {
	ready    threadHeap
	seq      uint64
	live     int // non-daemon threads still running
	threads  []*Thread
	cur      *Thread // the thread the driver resumes next
	stopping bool
	maxClock uint64
	panicVal any

	// charged accumulates every cycle booked through Charge/ChargeAs/
	// AddRemote on any thread. Idle and lock-wait time (wakeAt clamping in
	// dispatch) is excluded: it is scheduling, not work.
	charged uint64
	// events counts scheduling pushes plus charges — a deterministic
	// proxy for "how much the engine did", used as the numerator of the
	// host-side events/sec speed metric. It never feeds back into
	// simulated behaviour.
	events   uint64
	classify func(path string) uint8
	spans    Spans

	// paths interns attribution paths: id i names paths[i], and each
	// distinct path has exactly one id. Id 0 is Unattributed. kids[i]
	// lists the (label, id) children of path i and roots the top-level
	// ones, so resolving a frame or leaf label scans a short list of
	// Label ids, an int compare per entry. ids maps a path to its id and
	// is consulted only when a list misses, once per new (parent, label)
	// pair, which is also the only place a label's name is read. class[i]
	// is path i's class. Safe without a lock: exactly one thread of an
	// engine runs at a time.
	paths []string
	class []uint8
	kids  [][]child
	roots []child
	ids   map[string]int
}

// stopToken is panicked into parked threads at shutdown.
type stopToken struct{}

// New creates an empty engine.
func New() *Engine {
	return &Engine{
		paths: []string{Unattributed},
		class: make([]uint8, 1),
		kids:  make([][]child, 1),
		ids:   map[string]int{Unattributed: unattributedID},
	}
}

// child is one interned (label, id) edge of the attribution-path tree.
type child struct {
	label Label
	id    int
}

// Thread is one simulated hardware thread.
type Thread struct {
	e      *Engine
	Name   string
	Core   int
	clock  uint64
	wakeAt uint64
	seq    uint64
	index  int // heap index, -1 when not queued
	state  threadState
	daemon bool
	fn     func(*Thread)

	// next runs the thread's coroutine until it yields back to the driver
	// or returns; stop unwinds it at shutdown. yield, called on the
	// thread, hands control back to the driver and reports false once the
	// engine is stopping. All three are nil until the first dispatch.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// attr is the attribution-frame stack: each element is the engine's
	// path id of one open frame ("app.syscall.write", ...). Charges book
	// against the innermost frame.
	attr  []int
	rows  []Row // by path id: what was charged onto the thread
	tally Tally // the thread's local charges

	// SpanSlot is where the engine's span collector keeps its state for
	// the thread: an index into the collector's own per-thread table, 0
	// until the collector first sees the thread. sim never reads it.
	SpanSlot int

	// blockedOn is a human-readable tag for deadlock dumps.
	blockedOn string
}

// Unattributed is the path charges book against outside any frame.
const Unattributed = "unattributed"

// unattributedID is Unattributed's path id in every engine.
const unattributedID = 0

// noParent is the parent id of a top-level path.
const noParent = -1

type threadState uint8

const (
	stateReady threadState = iota
	stateRunning
	stateBlocked
	stateExited
)

// Go registers a new simulated thread pinned to the given core, ready to
// run at virtual time start. It may be called before Run or from within a
// running thread (in which case start is clamped to the caller's clock by
// the caller passing t.Now()).
func (e *Engine) Go(name string, core int, start uint64, fn func(*Thread)) *Thread {
	t := &Thread{
		e:      e,
		Name:   name,
		Core:   core,
		clock:  start,
		wakeAt: start,
		index:  -1,
		fn:     fn,
	}
	e.threads = append(e.threads, t)
	e.live++
	e.push(t)
	return t
}

// GoDaemon registers a background thread that does not keep the simulation
// alive: when the last non-daemon thread exits, daemons are torn down.
func (e *Engine) GoDaemon(name string, core int, start uint64, fn func(*Thread)) *Thread {
	t := e.Go(name, core, start, fn)
	t.daemon = true
	e.live--
	return t
}

// GoSampler registers a daemon that calls fn at the virtual times chosen
// by next (given the current clock, return the next sample time; returns
// <= now are clamped one cycle forward so the daemon always makes
// progress). The sampler charges no cycles and must not touch simulated
// shared state, so its presence leaves every other thread's timeline
// bit-identical; it is torn down with the other daemons at shutdown.
func (e *Engine) GoSampler(name string, core int, next func(now uint64) uint64, fn func(now uint64)) *Thread {
	return e.GoDaemon(name, core, 0, func(t *Thread) {
		for {
			at := next(t.Now())
			if at <= t.Now() {
				at = t.Now() + 1
			}
			t.SleepUntil(at)
			fn(t.Now())
		}
	})
}

// Run executes the simulation until every non-daemon thread has exited.
// It returns the largest virtual clock reached by any thread. Run is the
// driver: it resumes the thread the last handoff picked until no
// non-daemon thread is live, then unwinds the parked ones. A panic in a
// thread is re-panicked here; a runtime.Goexit in a thread (t.Fatalf)
// ends Run's goroutine the same way, after the teardown.
func (e *Engine) Run() uint64 {
	if e.live == 0 {
		return 0
	}
	first := e.ready.pop()
	if first == nil {
		panic("sim: no runnable thread")
	}
	first.state = stateRunning
	e.cur = first
	defer e.shutdown() // a Goexit propagated from a thread skips the call below
	for e.live > 0 && e.panicVal == nil {
		e.cur.resumeOrStart()
	}
	e.shutdown()
	if e.panicVal != nil {
		panic(e.panicVal)
	}
	return e.maxClock
}

// main is the coroutine body wrapping a thread function.
func (t *Thread) main() {
	// Drop the engine's reference to the body: an engine outlives its
	// run (hubs keep its counters), and a finished thread must not pin
	// what its body captured — a whole kernel and its device.
	fn := t.fn
	t.fn = nil
	defer func() {
		// nil is a normal return or a runtime.Goexit, which the coroutine
		// passes on to Run's goroutine.
		r := recover()
		if _, ok := r.(stopToken); ok || r == nil {
			return
		}
		// Propagate the failure to Run, which stops the simulation.
		t.e.panicVal = r
		t.state = stateExited
	}()
	fn(t)
	t.exit()
}

func (t *Thread) exit() {
	e := t.e
	t.state = stateExited
	if t.clock > e.maxClock {
		e.maxClock = t.clock
	}
	if !t.daemon {
		e.live--
	}
	if e.live > 0 {
		e.dispatchFrom(t, false)
	}
}

// shutdown unwinds every parked thread, in registration order, before
// Run returns: stop makes a parked thread's yield report false, and
// dispatchFrom panics a stopToken its main recovers, so no goroutine
// outlives the run.
func (e *Engine) shutdown() {
	if e.stopping {
		return
	}
	e.stopping = true
	for _, t := range e.threads {
		if t.stop == nil {
			t.fn = nil // never dispatched: nothing else drops it
			continue
		}
		t.stop()
	}
}

// Now returns the thread's virtual clock in cycles.
func (t *Thread) Now() uint64 { return t.clock }

// Engine returns the engine the thread runs on.
func (t *Thread) Engine() *Engine { return t.e }

// Row is what was charged onto one thread on one path: the cycles and
// the number of charges, zero-cycle ones included.
type Row struct {
	Cycles uint64
	Count  uint64
}

// Rows returns the thread's charge table: row id is what Charge, ChargeAs
// and AddRemote booked onto the thread under the path whose id is id
// (Engine.Path). Ids are dense and per engine: 0 is Unattributed and
// each newly seen path takes the next id; ids past the table's end were
// never charged to the thread. The table is the thread's own, so do not
// modify it. Read it on its engine's running thread or once the engine
// has stopped.
func (t *Thread) Rows() []Row { return t.rows }

// Path returns the attribution path whose id is id.
func (e *Engine) Path(id int) string { return e.paths[id] }

// Stopped reports whether the engine has stopped: Run has ended its
// driver loop, and no thread charges anything more.
func (e *Engine) Stopped() bool { return e.stopping }

// NumClasses bounds the path classes a classifier returns; class 0 is
// for paths no class names.
const NumClasses = 4

// Tally is a running total of local charges (Charge, ChargeAs and their
// batch forms, never AddRemote); Classes splits them by path class. What was charged between
// two readings is their difference.
type Tally struct {
	Local   uint64
	Classes [NumClasses]uint64
}

// Spans is the span collector an engine carries (SetSpans): Open begins
// a span of the given class on t, End closes t's innermost one.
type Spans interface {
	Open(t *Thread, class Label)
	End(t *Thread)
}

// SetSpans registers the engine's span collector s (nil for none) and
// classify, which gives every path its class in [0, NumClasses), once:
// now for the paths interned so far, on interning for later ones. Set
// them before the engine runs.
func (e *Engine) SetSpans(s Spans, classify func(path string) uint8) {
	e.spans, e.classify = s, classify
	for id, p := range e.paths {
		e.class[id] = classify(p)
	}
}

// Spans returns the span collector SetSpans registered, or nil.
func (e *Engine) Spans() Spans { return e.spans }

// Tally returns the thread's running tally. Read it on its engine's
// running thread or once the engine has stopped.
func (t *Thread) Tally() Tally { return t.tally }

// Tally returns the sum of the tallies of the engine's threads: what
// TotalCharged counts, less AddRemote bookings.
func (e *Engine) Tally() (sum Tally) {
	for _, t := range e.threads {
		sum.Local += t.tally.Local
		for k, v := range t.tally.Classes {
			sum.Classes[k] += v
		}
	}
	return sum
}

// TotalCharged reports the cycles booked through Charge/ChargeAs/AddRemote
// across all threads so far. Because dispatch clamps idle threads forward
// without charging, this is exactly the engine's total simulated work —
// the quantity a cycle profile must reconcile against.
func (e *Engine) TotalCharged() uint64 { return e.charged }

// ReadyDepth reports how many threads sit in the run queue right now —
// the engine-level saturation gauge. A stopping engine reports 0: during
// shutdown, exited threads can linger in the heap and would otherwise
// read as phantom runnable work. Pure read for gauge sampling.
func (e *Engine) ReadyDepth() int {
	if e.stopping {
		return 0
	}
	return e.ready.len()
}

// Events reports the deterministic engine-event count (scheduling pushes
// plus charges) accumulated so far. Dividing it by host wall-clock seconds
// yields the simulator's events/sec speed — the denominator is host time,
// but this numerator is reproducible bit-for-bit.
func (e *Engine) Events() uint64 { return e.events }

// join returns the id of parent.label (of label alone under noParent).
func (e *Engine) join(parent int, label Label) int {
	list := e.roots
	if parent != noParent {
		list = e.kids[parent]
	}
	for _, c := range list {
		if c.label == label {
			return c.id
		}
	}
	return e.intern(parent, label)
}

// intern is join's miss path, run once per new (parent, label) pair: it
// builds the dotted path, gives it an id unless another pair already
// spelled it, and links the pair into parent's child list.
func (e *Engine) intern(parent int, label Label) int {
	p := label.String()
	if parent != noParent {
		//lint:ignore hotalloc interning miss: concat runs once per unique (parent, label) pair
		p = e.paths[parent] + "." + p
	}
	id, ok := e.ids[p]
	if !ok {
		id = len(e.paths)
		//lint:ignore hotalloc interning miss: the id table grows once per unique path
		e.paths = append(e.paths, p)
		//lint:ignore hotalloc interning miss: the id table grows once per unique path
		e.kids = append(e.kids, nil)
		e.ids[p] = id
		//lint:ignore hotalloc interning miss: the id table grows once per unique path
		e.class = append(e.class, 0)
		if e.classify != nil {
			e.class[id] = e.classify(p)
		}
	}
	c := child{label, id}
	if parent == noParent {
		//lint:ignore hotalloc interning miss: a child list grows once per unique (parent, label) pair
		e.roots = append(e.roots, c)
	} else {
		//lint:ignore hotalloc interning miss: a child list grows once per unique (parent, label) pair
		e.kids[parent] = append(e.kids[parent], c)
	}
	return id
}

// attrID returns the innermost frame's path id (noParent outside any
// frame, where a label becomes a root).
func (t *Thread) attrID() int {
	if n := len(t.attr); n > 0 {
		return t.attr[n-1]
	}
	return noParent
}

// PushAttr opens an attribution frame: label nests under the current path
// ("fault.wp" inside "app.access" books as "app.access.fault.wp"); with no
// open frame the label becomes a root.
func (t *Thread) PushAttr(label Label) {
	//lint:ignore hotalloc attribution stack: reaches its steady nesting depth after warm-up
	t.attr = append(t.attr, t.e.join(t.attrID(), label))
}

// PopAttr closes the innermost attribution frame.
func (t *Thread) PopAttr() { t.attr = t.attr[:len(t.attr)-1] }

// Enter opens an operation: it pushes the attribution frame label and
// opens a span of class label on the engine's span collector, if any.
func (t *Thread) Enter(label Label) {
	t.PushAttr(label)
	if s := t.e.spans; s != nil {
		s.Open(t, label)
	}
}

// Leave closes the operation Enter opened: the span, then the frame.
func (t *Thread) Leave() {
	if s := t.e.spans; s != nil {
		s.End(t)
	}
	t.PopAttr()
}

// AttrPath returns the innermost frame's full dotted path.
func (t *Thread) AttrPath() string {
	if n := len(t.attr); n > 0 {
		return t.e.paths[t.attr[n-1]]
	}
	return Unattributed
}

// Charge advances the thread's clock by c cycles of local work, booked
// against the current attribution frame.
func (t *Thread) Charge(c uint64) { t.ChargeN(c, 1) }

// ChargeAs books c under a one-shot child of the current frame — the cheap
// way to label leaf costs (walk kinds, nt-stores) without stack churn.
func (t *Thread) ChargeAs(label Label, c uint64) { t.ChargeAsN(label, c, 1) }

// ChargeN books n charges of c cycles each against the current frame:
// exactly what n Charge(c) calls book, in one add.
func (t *Thread) ChargeN(c, n uint64) {
	if n == 0 {
		return
	}
	id := unattributedID
	if k := len(t.attr); k > 0 {
		id = t.attr[k-1]
	}
	t.e.book(t, id, c, n)
}

// ChargeAsN books n charges of c cycles each under label: exactly what n
// ChargeAs(label, c) calls book. With n == 0 it books nothing and interns
// no path.
func (t *Thread) ChargeAsN(label Label, c, n uint64) {
	if n == 0 {
		return
	}
	t.e.book(t, t.e.join(t.attrID(), label), c, n)
}

// AddRemote is used by remote-charge mechanisms (IPIs): the running thread
// books c onto this (target) thread's timeline and table, attributed to
// the root path named path on the target's core rather than to the
// caller's frame. It counts in no tally.
func (t *Thread) AddRemote(path Label, c uint64) {
	t.clock += c
	t.add(t.e.join(noParent, path), c, 1)
	t.e.charged += c
	t.e.events++
}

// book charges t n charges of c cycles of local work on path id: its
// clock, its tally and its table.
func (e *Engine) book(t *Thread, id int, c, n uint64) {
	c *= n
	t.clock += c
	t.tally.Local += c
	t.tally.Classes[e.class[id]] += c
	t.add(id, c, n)
	e.charged += c
	e.events += n
}

// add books n charges totalling c cycles into row id of t's table, first
// growing the table to every path the engine has interned if it is short.
func (t *Thread) add(id int, c, n uint64) {
	if id >= len(t.rows) {
		//lint:ignore hotalloc amortized: a table grows only when its engine has interned a new path
		t.rows = append(t.rows, make([]Row, len(t.e.paths)-len(t.rows))...)
	}
	r := &t.rows[id]
	r.Cycles += c
	r.Count += n
}

// Yield is a synchronization point: the thread re-enters the ready queue at
// its current clock and resumes once it is the minimum-clock runnable
// thread. Shared state must only be examined/mutated right after a Yield
// (or while holding a sim lock) to preserve virtual-time ordering.
func (t *Thread) Yield() { t.requeue(t.clock) }

// SleepUntil parks the thread until virtual time tm.
func (t *Thread) SleepUntil(tm uint64) {
	if tm < t.clock {
		tm = t.clock
	}
	t.requeue(tm)
}

// requeue makes the running thread runnable at virtual time at (no
// earlier than its clock) and hands the token to the minimum runnable
// thread. A push would stamp the thread with the largest seq, so it is
// that minimum exactly when the ready heap is empty or at is strictly
// below the heap top's wake time; on a tie the queued thread wins. Then
// the thread keeps the token without a push or a pop: it stamps its seq
// and counts the event as the push would, and advances its clock to at.
func (t *Thread) requeue(at uint64) {
	e := t.e
	t.wakeAt = at
	if top := e.ready.peek(); top == nil || at < top.wakeAt {
		e.seq++
		e.events++
		t.seq = e.seq
		t.clock = at
		return
	}
	e.push(t)
	e.dispatchFrom(t, true)
}

// Sleep parks the thread for d cycles.
func (t *Thread) Sleep(d uint64) { t.SleepUntil(t.clock + d) }

// Block parks the thread off the ready queue. Another thread must Wake it.
// tag describes what it is waiting for (deadlock dumps).
func (t *Thread) Block(tag string) {
	t.blockedOn = tag
	t.state = stateBlocked
	t.e.dispatchFrom(t, true)
	t.blockedOn = ""
}

// Wake makes a blocked thread runnable no earlier than virtual time at.
// Must be called by the running thread.
func (e *Engine) Wake(t *Thread, at uint64) {
	if t.state != stateBlocked {
		//lint:ignore hotalloc fatal path: the concat only runs when panicking
		panic("sim: Wake of non-blocked thread " + t.Name)
	}
	if at < t.clock {
		at = t.clock
	}
	t.wakeAt = at
	e.push(t)
}

// dispatchFrom hands the token to the next runnable thread, which is
// never t: requeue keeps the token itself when t would be the minimum.
// If wait is true the calling thread parks until re-dispatched;
// otherwise the caller is exiting.
func (e *Engine) dispatchFrom(t *Thread, wait bool) {
	next := e.ready.pop()
	if next == nil {
		// A parked caller, or an exiting one with live threads left
		// (exit never dispatches from the last), has nothing to wake.
		//lint:ignore hotalloc fatal path: the concat only runs when panicking
		panic("sim: deadlock\n" + e.dump())
	}
	next.state = stateRunning
	if next.clock < next.wakeAt {
		next.clock = next.wakeAt
	}
	e.cur = next
	if wait && !t.yield(struct{}{}) {
		panic(stopToken{})
	}
}

// resumeOrStart runs the thread until it hands off, making its coroutine
// the first time it is dispatched.
func (t *Thread) resumeOrStart() {
	if t.state == stateExited {
		panic("sim: resuming exited thread")
	}
	if t.next == nil {
		t.start()
	}
	t.next()
}

// dump formats the scheduler state for deadlock diagnostics: per thread,
// its state and its innermost attribution path (what it was doing when it
// parked).
func (e *Engine) dump() string {
	var b strings.Builder
	ts := append([]*Thread(nil), e.threads...)
	sort.Slice(ts, func(i, j int) bool { return ts[i].seq < ts[j].seq })
	for _, t := range ts {
		st := "?"
		switch t.state {
		case stateReady:
			st = "ready"
		case stateRunning:
			st = "running"
		case stateBlocked:
			st = "blocked on " + t.blockedOn
		case stateExited:
			st = "exited"
		}
		fmt.Fprintf(&b, "  %-24s core=%-3d clock=%-12d attr=%-28s %s\n", t.Name, t.Core, t.clock, t.AttrPath(), st)
	}
	return b.String()
}

// MaxClock reports the largest clock observed (valid after Run).
func (e *Engine) MaxClock() uint64 { return e.maxClock }

// Threads returns a copy of the registered-thread list (for core->thread
// lookups). Copying keeps the scheduler's own slice unaliased: a caller
// appending to or reordering the returned slice cannot corrupt dispatch
// state. The *Thread values themselves are shared, as intended.
func (e *Engine) Threads() []*Thread {
	out := make([]*Thread, len(e.threads))
	copy(out, e.threads)
	return out
}

func (e *Engine) push(t *Thread) {
	e.seq++
	e.events++
	t.seq = e.seq
	t.state = stateReady
	e.ready.push(t)
}

// threadHeap is a concrete-typed binary min-heap of threads ordered by
// (wakeAt, seq). It is concrete-typed because container/heap's Push/Pop
// box every *Thread through `any` on the hottest scheduler path. seq values are
// unique (the engine stamps them from a single counter), so the order is
// total and any correct binary heap pops the identical sequence —
// swapping the implementation cannot change dispatch order.
type threadHeap struct {
	ts []*Thread
}

func (h *threadHeap) len() int { return len(h.ts) }

// peek returns the minimum thread without removing it, or nil.
func (h *threadHeap) peek() *Thread {
	if len(h.ts) == 0 {
		return nil
	}
	return h.ts[0]
}

func (h *threadHeap) less(i, j int) bool {
	a, b := h.ts[i], h.ts[j]
	if a.wakeAt != b.wakeAt {
		return a.wakeAt < b.wakeAt
	}
	return a.seq < b.seq
}

func (h *threadHeap) swap(i, j int) {
	h.ts[i], h.ts[j] = h.ts[j], h.ts[i]
	h.ts[i].index = i
	h.ts[j].index = j
}

func (h *threadHeap) push(t *Thread) {
	t.index = len(h.ts)
	//lint:ignore hotalloc ready-heap backing array: amortized, reaches steady capacity after warm-up
	h.ts = append(h.ts, t)
	h.up(t.index)
}

func (h *threadHeap) pop() *Thread {
	n := len(h.ts)
	if n == 0 {
		return nil
	}
	t := h.ts[0]
	h.swap(0, n-1)
	h.ts[n-1] = nil
	h.ts = h.ts[:n-1]
	if n > 1 {
		h.down(0)
	}
	t.index = -1
	return t
}

func (h *threadHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *threadHeap) down(i int) {
	n := len(h.ts)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}
