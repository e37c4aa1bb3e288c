// Package attr exercises the attrbalance analyzer.
package attr

import (
	"daxvm/tools/simlint/teststub/sim"
)

func leakOnReturn(t *sim.Thread) {
	t.PushAttr("fault") // want `PushAttr frame is still open when the function returns`
	t.Charge(10)
}

func leakOnEarlyReturn(t *sim.Thread, err error) error {
	t.PushAttr("syscall")
	if err != nil {
		return err // want `return leaves 1 attribution frame\(s\) open`
	}
	t.PopAttr()
	return nil
}

func balancedLinear(t *sim.Thread) {
	t.PushAttr("fault")
	t.Charge(10)
	t.PopAttr()
}

func balancedDefer(t *sim.Thread, err error) error {
	t.PushAttr("syscall")
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
		t.PushAttr("maybe") // opened on one side only
	}
	t.Charge(1)
}

// conditionalAttr is the per-node device idiom: the frame opens only on
// multi-node machines, and its pop is deferred in the same branch, so
// every path out of the function is balanced.
func conditionalAttr(t *sim.Thread, multi bool) {
	if multi {
		t.PushAttr("pmem.node1")
		defer t.PopAttr()
	}
	t.ChargeAs("read", 100)
}

// conditionalPushOnly still leaks: the deferred pop is missing.
func conditionalPushOnly(t *sim.Thread, multi bool) {
	if multi { // want `attribution frame opened or closed on only one side of a branch`
		t.PushAttr("pmem.node1")
	}
	t.ChargeAs("read", 100)
}

func unbalancedLoop(t *sim.Thread, n int) {
	for i := 0; i < n; i++ { // want `loop iteration changes the attribution frame balance`
		t.PushAttr("iter")
	}
}

func balancedLoop(t *sim.Thread, n int) {
	for i := 0; i < n; i++ {
		t.PushAttr("iter")
		t.Charge(1)
		t.PopAttr()
	}
}

// sysEnter and sysExit mirror the kernel's helper pair: one only opens,
// the other only closes, so a call to either counts as that open or
// close at its call site. The callers are checked, the helpers are not.
func sysEnter(t *sim.Thread, cls string) {
	t.PushAttr(cls)
	t.Charge(1000)
}

func sysExit(t *sim.Thread) {
	t.Charge(700)
	t.PopAttr()
}

func syscallDeferred(t *sim.Thread, err error) error {
	sysEnter(t, "syscall.open")
	defer sysExit(t)
	if err != nil {
		return err
	}
	return nil
}

func syscallExplicit(t *sim.Thread) {
	sysEnter(t, "syscall.read")
	t.Charge(1)
	sysExit(t)
}

func syscallLeak(t *sim.Thread) {
	sysEnter(t, "syscall.close") // want `PushAttr frame is still open when the function returns`
	t.Charge(1)
}

func syscallExitWithoutEnter(t *sim.Thread) {
	sysExit(t) // want `PopAttr without an open PushAttr frame`
}

func deferredEnter(t *sim.Thread) {
	defer sysEnter(t, "syscall.late") // want `PushAttr in a defer opens a attribution frame after the function body ran`
}

// earlyOut may return before it pushes, so it is no helper: its body is
// checked like any other function's.
func earlyOut(t *sim.Thread, skip bool) {
	if skip {
		return
	}
	t.PushAttr("x") // want `PushAttr frame is still open when the function returns`
}

// threadRoot mirrors Engine.Go(..., func(t){...}): the root frame stays
// open for the thread's whole life.
func threadRoot(e *sim.Engine) {
	e.Go("app", 0, 0, func(t *sim.Thread) {
		t.PushAttr("app")
		t.Charge(1)
	})
}

// daemonLoop mirrors monitor/prezero daemons: a root frame followed by
// an infinite loop.
func daemonLoop(t *sim.Thread) {
	t.PushAttr("daemon.monitor")
	for {
		t.Sleep(100)
		t.ChargeAs("sample", 10)
	}
}

// enterLeak: Enter pushes a frame that nothing pops.
func enterLeak(t *sim.Thread) {
	t.Enter("fault.minor") // want `Enter frame is still open when the function returns`
	t.Charge(10)
}

func enterEarlyReturn(t *sim.Thread, err error) error {
	t.Enter("syscall.read")
	if err != nil {
		return err // want `return leaves 1 attribution frame\(s\) open \(Enter without Leave`
	}
	t.Leave()
	return nil
}

// enterDeferLeave is the accepted idiom: the deferred Leave pops the
// frame on every path out.
func enterDeferLeave(t *sim.Thread, err error) error {
	t.Enter("access")
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
	t.PushAttr("x") // want `PushAttr frame is still open when the function returns`
	t.Leave()       // want `Leave without an open Enter frame`
}

func leaveWithoutEnter(t *sim.Thread) {
	t.Leave() // want `Leave without an open Enter frame`
}

func suppressedLeak(t *sim.Thread) {
	//lint:ignore attrbalance frame intentionally spans the thread's life
	t.PushAttr("root")
	t.Charge(1)
}
