// Package spans exercises the spanbalance analyzer.
package spans

import (
	"daxvm/tools/simlint/teststub/sim"
	"daxvm/tools/simlint/teststub/span"
)

func leakOnReturn(t *sim.Thread, sp *span.Collector) {
	sp.Begin(t, "fault.minor") // want `Begin frame is still open when the function returns`
	t.Charge(10)
}

func leakOnEarlyReturn(t *sim.Thread, sp *span.Collector, err error) error {
	sp.Begin(t, "syscall.read")
	if err != nil {
		return err // want `return leaves 1 span\(s\) open`
	}
	sp.End(t)
	return nil
}

func balancedLinear(t *sim.Thread, sp *span.Collector) {
	sp.Begin(t, "fault.minor")
	t.Charge(10)
	sp.End(t)
}

func balancedDefer(t *sim.Thread, sp *span.Collector, err error) error {
	sp.Begin(t, "syscall.read")
	defer sp.End(t)
	if err != nil {
		return err
	}
	return nil
}

func endWithoutBegin(t *sim.Thread, sp *span.Collector) {
	sp.End(t) // want `End without an open Begin frame`
}

func oneSidedBranch(t *sim.Thread, sp *span.Collector, b bool) {
	if b { // want `span opened or closed on only one side of a branch`
		sp.Begin(t, "maybe")
	}
	t.Charge(1)
}

// conditionalSpan mirrors the gated-instrumentation idiom: the span
// opens only under a condition, with its End deferred in the same
// branch, so every path out is balanced.
func conditionalSpan(t *sim.Thread, sp *span.Collector, on bool) {
	if on {
		sp.Begin(t, "access")
		defer sp.End(t)
	}
	t.ChargeAs(lRead, 100)
}

func unbalancedLoop(t *sim.Thread, sp *span.Collector, n int) {
	for i := 0; i < n; i++ { // want `loop iteration changes the span balance`
		sp.Begin(t, "iter")
	}
}

func balancedLoop(t *sim.Thread, sp *span.Collector, n int) {
	for i := 0; i < n; i++ {
		sp.Begin(t, "iter")
		t.Charge(1)
		sp.End(t)
	}
}

// proc mirrors the kernel's syscall helpers, which are methods: opEnter
// only begins a span and opExit only ends one, so their calls count as
// the Begin and End at the call site.
type proc struct{ sp *span.Collector }

func (p *proc) opEnter(t *sim.Thread, cls string) {
	p.sp.Begin(t, cls)
	t.Charge(1000)
}

func (p *proc) opExit(t *sim.Thread) {
	t.Charge(700)
	p.sp.End(t)
}

func (p *proc) syscallDeferred(t *sim.Thread) {
	p.opEnter(t, "syscall.pread")
	defer p.opExit(t)
	t.Charge(1)
}

func (p *proc) syscallLeak(t *sim.Thread, err error) error {
	p.opEnter(t, "syscall.pwrite")
	if err != nil {
		return err // want `return leaves 1 span\(s\) open`
	}
	p.opExit(t)
	return nil
}

// threadRoot mirrors Engine.Go(..., func(t){...}): a root span may stay
// open for the thread's whole life.
func threadRoot(e *sim.Engine, sp *span.Collector) {
	e.Go("app", 0, 0, func(t *sim.Thread) {
		sp.Begin(t, "app")
		t.Charge(1)
	})
}

// daemonLoop mirrors monitor daemons: a root span followed by an
// infinite loop never returns, so the trailing open span is fine.
func daemonLoop(t *sim.Thread, sp *span.Collector) {
	sp.Begin(t, "daemon.monitor")
	for {
		t.Sleep(100)
		t.ChargeAs(lSample, 10)
	}
}

// waitsAreNotOpens: Wait and StartSegment calls must not confuse the
// balance tracking.
func waitsAreNotOpens(t *sim.Thread, sp *span.Collector) {
	sp.StartSegment("seg")
	sp.Begin(t, "op")
	sp.Wait(t, span.WaitMmapSem, 30)
	sp.End(t)
}

// enterLeak: Enter opens a span that nothing ends.
func enterLeak(t *sim.Thread) {
	t.Enter(lFaultMinor) // want `Enter frame is still open when the function returns`
	t.Charge(10)
}

func enterEarlyReturn(t *sim.Thread, err error) error {
	t.Enter(lSyscallRead)
	if err != nil {
		return err // want `return leaves 1 span\(s\) open \(Enter without Leave`
	}
	t.Leave()
	return nil
}

// enterDeferLeave is the accepted idiom: the deferred Leave ends the
// span on every path out.
func enterDeferLeave(t *sim.Thread, err error) error {
	t.Enter(lAccess)
	defer t.Leave()
	if err != nil {
		return err
	}
	t.Charge(1)
	return nil
}

// leaveAfterPush: PushAttr opens no span, so the Leave ends none.
func leaveAfterPush(t *sim.Thread) {
	t.PushAttr(lX)
	t.Leave() // want `Leave without an open Enter frame`
}

// spanOnly is the span-only idiom of the layers: the collector comes
// from the thread, Open takes a package-level label, and the End is a
// direct deferred call.
func spanOnly(t *sim.Thread, err error) error {
	span.Of(t).Open(t, lNovaLogAppend)
	defer span.Of(t).End(t)
	if err != nil {
		return err
	}
	return nil
}

func spanOnlyEarlyReturn(t *sim.Thread, err error) error {
	span.Of(t).Open(t, lZombieFlush)
	if err != nil {
		return err // want `return leaves 1 span\(s\) open \(Begin without End`
	}
	span.Of(t).End(t)
	return nil
}

// spanOnlyWrappedEnd: an End inside a deferred closure is not a direct
// defer. The analyzer reports the Begin as leaked, and the closure, which
// it checks as a function of its own, as ending a span it never began.
func spanOnlyWrappedEnd(t *sim.Thread) {
	span.Of(t).Open(t, lDaemonPrezero)   // want `Begin frame is still open when the function returns`
	defer func() { span.Of(t).End(t) }() // want `End without an open Begin frame`
}

// spanOnlyLoop mirrors the pre-zero daemon: one span per iteration.
func spanOnlyLoop(t *sim.Thread) {
	for {
		t.Sleep(100)
		span.Of(t).Open(t, lDaemonPrezero)
		t.Charge(1)
		span.Of(t).End(t)
	}
}

func suppressedLeak(t *sim.Thread, sp *span.Collector) {
	//lint:ignore spanbalance span intentionally spans the thread's life
	sp.Begin(t, "root")
	t.Charge(1)
}

// Labels the fixture charges and opens, minted once at package level.
var (
	lRead          = sim.NewLabel("read")
	lSample        = sim.NewLabel("sample")
	lFaultMinor    = sim.NewLabel("fault.minor")
	lSyscallRead   = sim.NewLabel("syscall.read")
	lAccess        = sim.NewLabel("access")
	lX             = sim.NewLabel("x")
	lNovaLogAppend = sim.NewLabel("nova.log_append")
	lZombieFlush   = sim.NewLabel("zombie_flush")
	lDaemonPrezero = sim.NewLabel("daemon.prezero")
)
