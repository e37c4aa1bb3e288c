// Package attr exercises the attrbalance analyzer.
package attr

import (
	"daxvm/tools/simlint/teststub/sim"
)

func leakOnReturn(t *sim.Thread) {
	t.PushAttr(lFault) // want `PushAttr frame is still open when the function returns`
	t.Charge(10)
}

func leakOnEarlyReturn(t *sim.Thread, err error) error {
	t.PushAttr(lSyscall)
	if err != nil {
		return err // want `return leaves 1 attribution frame\(s\) open`
	}
	t.PopAttr()
	return nil
}

func balancedLinear(t *sim.Thread) {
	t.PushAttr(lFault)
	t.Charge(10)
	t.PopAttr()
}

func balancedDefer(t *sim.Thread, err error) error {
	t.PushAttr(lSyscall)
	defer t.PopAttr()
	if err != nil {
		return err
	}
	return nil
}

func popWithoutPush(t *sim.Thread) {
	t.PopAttr() // want `PopAttr without an open PushAttr frame`
}

func oneSidedBranch(t *sim.Thread, b bool) {
	if b { // want `attribution frame opened or closed on only one side of a branch`
		t.PushAttr(lMaybe) // opened on one side only
	}
	t.Charge(1)
}

// conditionalAttr is the per-node device idiom: the frame opens only on
// multi-node machines, and its pop is deferred in the same branch, so
// every path out of the function is balanced.
func conditionalAttr(t *sim.Thread, multi bool) {
	if multi {
		t.PushAttr(lPmemNode1)
		defer t.PopAttr()
	}
	t.ChargeAs(lRead, 100)
}

// conditionalPushOnly still leaks: the deferred pop is missing.
func conditionalPushOnly(t *sim.Thread, multi bool) {
	if multi { // want `attribution frame opened or closed on only one side of a branch`
		t.PushAttr(lPmemNode1)
	}
	t.ChargeAs(lRead, 100)
}

func unbalancedLoop(t *sim.Thread, n int) {
	for i := 0; i < n; i++ { // want `loop iteration changes the attribution frame balance`
		t.PushAttr(lIter)
	}
}

func balancedLoop(t *sim.Thread, n int) {
	for i := 0; i < n; i++ {
		t.PushAttr(lIter)
		t.Charge(1)
		t.PopAttr()
	}
}

// sysEnter and sysExit mirror the kernel's helper pair: one only opens,
// the other only closes, so a call to either counts as that open or
// close at its call site. The callers are checked, the helpers are not.
func sysEnter(t *sim.Thread, cls sim.Label) {
	t.PushAttr(cls)
	t.Charge(1000)
}

func sysExit(t *sim.Thread) {
	t.Charge(700)
	t.PopAttr()
}

func syscallDeferred(t *sim.Thread, err error) error {
	sysEnter(t, lSyscallOpen)
	defer sysExit(t)
	if err != nil {
		return err
	}
	return nil
}

func syscallExplicit(t *sim.Thread) {
	sysEnter(t, lSyscallRead)
	t.Charge(1)
	sysExit(t)
}

func syscallLeak(t *sim.Thread) {
	sysEnter(t, lSyscallClose) // want `PushAttr frame is still open when the function returns`
	t.Charge(1)
}

func syscallExitWithoutEnter(t *sim.Thread) {
	sysExit(t) // want `PopAttr without an open PushAttr frame`
}

func deferredEnter(t *sim.Thread) {
	defer sysEnter(t, lSyscallLate) // want `PushAttr in a defer opens a attribution frame after the function body ran`
}

// earlyOut may return before it pushes, so it is no helper: its body is
// checked like any other function's.
func earlyOut(t *sim.Thread, skip bool) {
	if skip {
		return
	}
	t.PushAttr(lX) // want `PushAttr frame is still open when the function returns`
}

// threadRoot mirrors Engine.Go(..., func(t){...}): the root frame stays
// open for the thread's whole life.
func threadRoot(e *sim.Engine) {
	e.Go("app", 0, 0, func(t *sim.Thread) {
		t.PushAttr(lApp)
		t.Charge(1)
	})
}

// daemonLoop mirrors monitor/prezero daemons: a root frame followed by
// an infinite loop.
func daemonLoop(t *sim.Thread) {
	t.PushAttr(lDaemonMonitor)
	for {
		t.Sleep(100)
		t.ChargeAs(lSample, 10)
	}
}

// enterLeak: Enter pushes a frame that nothing pops.
func enterLeak(t *sim.Thread) {
	t.Enter(lFaultMinor) // want `Enter frame is still open when the function returns`
	t.Charge(10)
}

func enterEarlyReturn(t *sim.Thread, err error) error {
	t.Enter(lSyscallRead)
	if err != nil {
		return err // want `return leaves 1 attribution frame\(s\) open \(Enter without Leave`
	}
	t.Leave()
	return nil
}

// enterDeferLeave is the accepted idiom: the deferred Leave pops the
// frame on every path out.
func enterDeferLeave(t *sim.Thread, err error) error {
	t.Enter(lAccess)
	defer t.Leave()
	if err != nil {
		return err
	}
	t.Charge(1)
	return nil
}

// leaveAfterPush mixes the pairs: each pair is checked on its own
// balance, so the push leaks and the Leave closes nothing.
func leaveAfterPush(t *sim.Thread) {
	t.PushAttr(lX) // want `PushAttr frame is still open when the function returns`
	t.Leave()      // want `Leave without an open Enter frame`
}

func leaveWithoutEnter(t *sim.Thread) {
	t.Leave() // want `Leave without an open Enter frame`
}

func suppressedLeak(t *sim.Thread) {
	//lint:ignore attrbalance frame intentionally spans the thread's life
	t.PushAttr(lRoot)
	t.Charge(1)
}

// Labels the fixture charges and opens, minted once at package level.
var (
	lFault         = sim.NewLabel("fault")
	lSyscall       = sim.NewLabel("syscall")
	lMaybe         = sim.NewLabel("maybe")
	lPmemNode1     = sim.NewLabel("pmem.node1")
	lRead          = sim.NewLabel("read")
	lIter          = sim.NewLabel("iter")
	lX             = sim.NewLabel("x")
	lApp           = sim.NewLabel("app")
	lDaemonMonitor = sim.NewLabel("daemon.monitor")
	lSample        = sim.NewLabel("sample")
	lFaultMinor    = sim.NewLabel("fault.minor")
	lSyscallRead   = sim.NewLabel("syscall.read")
	lAccess        = sim.NewLabel("access")
	lRoot          = sim.NewLabel("root")
	lSyscallOpen   = sim.NewLabel("syscall.open")
	lSyscallClose  = sim.NewLabel("syscall.close")
	lSyscallLate   = sim.NewLabel("syscall.late")
)
