// Package determinism forbids wall-clock time, the unseeded global
// math/rand source, raw goroutines, scheduler-nondeterministic selects,
// and map iteration that charges cycles, emits trace events or hands a
// simulated thread to a call. The simulator's perf gate compares
// artifacts byte-for-byte; any of these constructs can silently perturb
// the numbers between runs. It also
// forbids importing sync and sync/atomic: simulated threads are
// coroutines the engine's driver resumes one at a time, so simulator
// state has a single owner and a host lock only hides a broken rule.
// The loader hands it non-test files only, so tests may still use sync.
package determinism

import (
	"go/ast"
	"go/types"
	"strconv"

	"daxvm/tools/simlint/ana"
)

// Analyzer is the determinism check.
var Analyzer = &ana.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, unseeded math/rand, raw go statements, " +
		"multi-case selects, map iteration that charges cycles, emits trace events or passes a *sim.Thread to a call, " +
		"and sync or sync/atomic imports",
	Run: run,
}

// seededRandOK lists the math/rand package-level functions that do not
// touch the global source: constructing explicitly seeded generators is
// the sanctioned way to get randomness.
var seededRandOK = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// wallClock lists time-package functions that read or wait on the host
// clock. (Formatting and duration arithmetic are fine.)
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

// charges lists the sim.Thread methods that book cycles.
var charges = map[string]bool{"Charge": true, "ChargeAs": true, "ChargeN": true, "ChargeAsN": true, "AddRemote": true}

// hostSync lists the packages whose host-side synchronisation has nothing
// to guard in the simulator.
var hostSync = map[string]bool{"sync": true, "sync/atomic": true}

func run(pass *ana.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); hostSync[path] {
				pass.Reportf(imp.Pos(), "import of %s in simulator code: threads are coroutines the driver resumes one at a time, so there is nothing to lock; keep the state single-owner", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "raw go statement bypasses the virtual-time scheduler; use Engine.Go/GoDaemon (or suppress with //lint:ignore determinism <why>)")
			case *ast.SelectStmt:
				if commCases(n) > 1 {
					pass.Reportf(n.Pos(), "select over multiple channels resolves in runtime-scheduler order, not virtual time")
				}
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func commCases(s *ast.SelectStmt) int {
	n := 0
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			n++
		}
	}
	return n
}

func checkCall(pass *ana.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	isPkgLevel := fn.Type().(*types.Signature).Recv() == nil
	switch {
	case pkg == "time" && isPkgLevel && wallClock[name]:
		pass.Reportf(call.Pos(), "wall-clock time.%s in simulator code; all time must be virtual (sim.Thread cycles)", name)
	case (pkg == "math/rand" || pkg == "math/rand/v2") && isPkgLevel && !seededRandOK[name]:
		pass.Reportf(call.Pos(), "global math/rand.%s draws from a shared process-wide source; use rand.New(rand.NewSource(seed))", name)
	}
}

// checkMapRange flags `for ... := range m` over a map whose body books
// cycles, emits trace events or passes a *sim.Thread to any call: all
// are order-sensitive, and Go map iteration order is deliberately
// randomized. A call that takes the thread may charge, yield or block
// behind it, even through a func value (a callback registry), where no
// direct charge call is in sight.
func checkMapRange(pass *ana.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var pkg, name string
		if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil {
			pkg, name = fn.Pkg().Name(), fn.Name()
		}
		switch {
		case pkg == "sim" && charges[name]:
			pass.Reportf(rng.Pos(), "map iteration order is randomized but the body charges cycles (%s); iterate a sorted key slice (obs.SortedKeys)", name)
			return false
		case pkg == "obs" && name == "Emit":
			pass.Reportf(rng.Pos(), "map iteration order is randomized but the body emits trace events; iterate a sorted key slice (obs.SortedKeys)")
			return false
		case passesThread(pass, call):
			pass.Reportf(rng.Pos(), "map iteration order is randomized but the body passes a *sim.Thread to a call; iterate a sorted key slice (obs.SortedKeys) or an ordered slice")
			return false
		}
		return true
	})
}

// passesThread reports whether one of call's arguments is a *sim.Thread.
func passesThread(pass *ana.Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		ptr, ok := pass.TypesInfo.TypeOf(arg).(*types.Pointer)
		if !ok {
			continue
		}
		if named, ok := ptr.Elem().(*types.Named); ok {
			obj := named.Obj()
			if obj.Name() == "Thread" && obj.Pkg() != nil && obj.Pkg().Name() == "sim" {
				return true
			}
		}
	}
	return false
}

// calleeFunc resolves a call's target to a *types.Func (methods and
// package-level functions; nil for builtins, conversions, func values).
func calleeFunc(pass *ana.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
