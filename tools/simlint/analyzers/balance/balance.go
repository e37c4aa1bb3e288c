// Package balance is the shared engine behind the open/close pairing
// analyzers: attrbalance (sim.Thread.PushAttr/PopAttr) and spanbalance
// (span.Collector.Begin/End). Both invariants have the same shape —
// every open must be matched by a close on all paths out of the
// function — and the same accepted idioms: a dominating `defer close`,
// or an explicit close before each return. sim.Thread.Enter/Leave
// opens and closes both a frame and a span, so both analyzers check it
// as a second pair, on its own balance.
//
// An unexported function whose body is only straight-line opens (or
// only straight-line closes), with no return or defer, is a helper when
// the package calls it and uses it no other way: the kernel's
// sysEnter/sysExit pair. A call to it counts at the call site as the
// opens or closes it performs, deferred or not, so its callers are
// checked and its own body is not. An uncalled function of that shape
// is checked as usual, so a plain leak is still reported.
//
// Two shapes legitimately leave the pair open and are accepted without
// suppression: a function literal passed directly to Engine.Go /
// Engine.GoDaemon / Proc.Spawn (thread-root opens live until the thread
// exits), and a function whose final statement is an infinite
// `for { ... }` (daemon loops never return). Branches are checked on
// NET balance (opens minus deferred closes), so the conditional idiom
// `if x { open(); defer close() }` passes.
package balance

import (
	"go/ast"
	"go/token"
	"go/types"

	"daxvm/tools/simlint/ana"
)

// Config parameterizes one pairing analyzer.
type Config struct {
	Name string // analyzer name
	Doc  string
	// Pairs are checked one at a time, each on its own balance.
	Pairs []Pair
	// Noun names the tracked thing in diagnostics ("attribution frame",
	// "span").
	Noun string
}

// Pair is one open/close pair.
type Pair struct {
	// Pkg is the package (by name) that implements the pair; it is
	// skipped entirely — the implementation maintains the stack, it does
	// not use it.
	Pkg string
	// Open and Close are the method names forming the pair; calls match
	// when the method is defined in a package named Pkg.
	Open, Close string
	// AltOpen, if set, names a second method that opens the pair and
	// counts as Open (span.Collector.Open, Begin's label form).
	AltOpen string
}

// New builds a pairing analyzer from the config.
func New(cfg Config) *ana.Analyzer {
	return &ana.Analyzer{
		Name: cfg.Name,
		Doc:  cfg.Doc,
		Run: func(pass *ana.Pass) error {
			for _, p := range cfg.Pairs {
				run(pass, p, cfg.Noun)
			}
			return nil
		},
	}
}

// threadSpawners are the methods whose func-literal argument runs as a
// thread body and may therefore open a root pair it never closes.
var threadSpawners = map[string]bool{"Go": true, "GoDaemon": true, "Spawn": true}

func run(pass *ana.Pass, cfg Pair, noun string) {
	if pass.Pkg.Name() == cfg.Pkg {
		return
	}
	v := &visitor{pass: pass, cfg: cfg, noun: noun, helpers: map[*types.Func]int{}}
	v.findHelpers()
	for _, f := range pass.Files {
		v.classifyLits(f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil && v.helpers[v.funcOf(fd)] == 0 {
				v.checkFunc(fd.Body, false)
			}
		}
	}
}

type visitor struct {
	pass *ana.Pass
	cfg  Pair
	noun string
	// rootLit marks func literals passed directly to a thread spawner.
	rootLit map[*ast.FuncLit]bool
	// helpers maps each open or close helper of the package to the net
	// pairs a call to it opens (positive) or closes (negative).
	helpers map[*types.Func]int
}

func (v *visitor) classifyLits(f *ast.File) {
	v.rootLit = map[*ast.FuncLit]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && threadSpawners[sel.Sel.Name] {
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						v.rootLit[lit] = true
					}
				}
			}
		}
		return true
	})
}

func (v *visitor) funcOf(fd *ast.FuncDecl) *types.Func {
	fn, _ := v.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	return fn
}

// findHelpers records the package's helpers (see helperEffect). A
// candidate stays one only if the package calls it and every use of it
// is the callee of a call statement or a defer, the only calls counted.
func (v *visitor) findHelpers() {
	stmtCallee := map[*ast.Ident]bool{}
	for _, f := range v.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if net := v.helperEffect(n); net != 0 {
					v.helpers[v.funcOf(n)] = net
				}
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					stmtCallee[calleeIdent(call)] = true
				}
			case *ast.DeferStmt:
				stmtCallee[calleeIdent(n.Call)] = true
			}
			return true
		})
	}
	called, otherUse := map[*types.Func]bool{}, map[*types.Func]bool{}
	for id, obj := range v.pass.TypesInfo.Uses {
		if fn, ok := obj.(*types.Func); ok && v.helpers[fn] != 0 {
			called[fn] = called[fn] || stmtCallee[id]
			otherUse[fn] = otherUse[fn] || !stmtCallee[id]
		}
	}
	for fn := range v.helpers {
		if !called[fn] || otherUse[fn] {
			delete(v.helpers, fn)
		}
	}
}

// helperEffect returns the net pairs fd opens (positive) or closes
// (negative) when it has a helper's shape: unexported, every pair call a
// top-level statement and all of one kind, no return or defer, and not a
// daemon body ending in `for { ... }`. Each call then performs all of
// its pair calls. It returns 0 for any other function.
func (v *visitor) helperEffect(fd *ast.FuncDecl) int {
	if fd.Body == nil || fd.Name.IsExported() || ana.EndsWithForever(fd.Body.List) {
		return 0
	}
	top := 0
	for _, s := range fd.Body.List {
		if es, ok := s.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok && v.pairDelta(call) != 0 {
				top++
			}
		}
	}
	net, calls, exits := 0, 0, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt, *ast.DeferStmt:
			exits = true
		case *ast.CallExpr:
			if d := v.pairDelta(n); d != 0 {
				calls++
				net += d
			}
		}
		return true
	})
	if exits || calls != top || (net != calls && net != -calls) {
		return 0
	}
	return net
}

// calleeIdent returns the name a call invokes (f or x.f), or nil.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// pairDelta is +1 for a direct Open call, -1 for a direct Close call
// and 0 for any other call.
func (v *visitor) pairDelta(call *ast.CallExpr) int {
	switch {
	case v.isPairCall(call, v.cfg.Open), v.cfg.AltOpen != "" && v.isPairCall(call, v.cfg.AltOpen):
		return 1
	case v.isPairCall(call, v.cfg.Close):
		return -1
	}
	return 0
}

// effect returns the net pairs call opens (positive) or closes
// (negative): a direct Open or Close, or a helper call.
func (v *visitor) effect(call *ast.CallExpr) int {
	if d := v.pairDelta(call); d != 0 {
		return d
	}
	fn, _ := v.pass.TypesInfo.Uses[calleeIdent(call)].(*types.Func)
	return v.helpers[fn]
}

// state tracks the open balance along one control-flow prefix.
type state struct {
	open     int
	deferred int
	openPos  []token.Pos
}

func (s *state) clone() state {
	c := *s
	c.openPos = append([]token.Pos(nil), s.openPos...)
	return c
}

// checkFunc analyzes one function body. allowRoot accepts a trailing
// open pair (thread-root bodies).
func (v *visitor) checkFunc(body *ast.BlockStmt, allowRoot bool) {
	st := &state{}
	v.checkStmts(body.List, st)
	// Also analyze nested literals this body owns.
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		v.checkFunc(lit.Body, v.rootLit[lit])
		return false // literals analyze their own nested literals
	})
	if allowRoot || ana.Terminates(body.List) || ana.EndsWithForever(body.List) {
		return
	}
	if open := st.open - st.deferred; open > 0 {
		pos := body.Pos()
		if n := len(st.openPos); n > 0 {
			pos = st.openPos[n-1]
		}
		v.pass.Reportf(pos, "%s frame is still open when the function returns; add a defer %s or pop on every path", v.cfg.Open, v.cfg.Close)
	} else if open < 0 {
		v.pass.Reportf(body.Pos(), "deferred %s without a matching %s", v.cfg.Close, v.cfg.Open)
	}
}

func (v *visitor) checkStmts(stmts []ast.Stmt, st *state) {
	for _, s := range stmts {
		v.checkStmt(s, st)
	}
}

func (v *visitor) checkStmt(s ast.Stmt, st *state) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			break
		}
		n := v.effect(call)
		for ; n > 0; n-- {
			st.open++
			st.openPos = append(st.openPos, call.Pos())
		}
		for ; n < 0; n++ {
			if st.open == 0 {
				v.pass.Reportf(call.Pos(), "%s without an open %s frame on this path", v.cfg.Close, v.cfg.Open)
				break
			}
			st.open--
			st.openPos = st.openPos[:len(st.openPos)-1]
		}
	case *ast.DeferStmt:
		if n := v.effect(s.Call); n < 0 {
			st.deferred -= n
		} else if n > 0 {
			v.pass.Reportf(s.Pos(), "%s in a defer opens a %s after the function body ran", v.cfg.Open, v.noun)
		}
	case *ast.ReturnStmt:
		if open := st.open - st.deferred; open > 0 {
			v.pass.Reportf(s.Pos(), "return leaves %d %s(s) open (%s without %s on this path)", open, v.noun, v.cfg.Open, v.cfg.Close)
		}
	case *ast.IfStmt:
		v.branch(s.Body.List, st, s.Body.Pos())
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			v.branch(e.List, st, e.Pos())
		case *ast.IfStmt:
			v.branch([]ast.Stmt{e}, st, e.Pos())
		}
	case *ast.ForStmt:
		v.loop(s.Body.List, st, s.Pos())
	case *ast.RangeStmt:
		v.loop(s.Body.List, st, s.Pos())
	case *ast.BlockStmt:
		v.checkStmts(s.List, st)
	case *ast.SwitchStmt:
		v.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		v.caseClauses(s.Body, st)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				v.branch(cc.Body, st, cc.Pos())
			}
		}
	case *ast.LabeledStmt:
		v.checkStmt(s.Stmt, st)
	}
}

func (v *visitor) caseClauses(body *ast.BlockStmt, st *state) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			v.branch(cc.Body, st, cc.Pos())
		}
	}
}

// branch analyzes a conditional block: a terminating branch may do what
// it likes (its returns were checked); a fall-through branch must leave
// the balance unchanged.
func (v *visitor) branch(stmts []ast.Stmt, st *state, pos token.Pos) {
	saved := st.clone()
	v.checkStmts(stmts, st)
	if ana.Terminates(stmts) {
		*st = saved
		return
	}
	// Compare the NET balance (open minus deferred): a branch that both
	// opens and defers its close — the conditional idiom
	// `if x { open(); defer close() }` — closes on every path out of the
	// function and is sound.
	if st.open-st.deferred != saved.open-saved.deferred {
		v.pass.Reportf(pos, "%s opened or closed on only one side of a branch", v.noun)
		*st = saved
	}
}

// loop analyzes a loop body: each iteration must preserve the balance.
func (v *visitor) loop(stmts []ast.Stmt, st *state, pos token.Pos) {
	saved := st.clone()
	v.checkStmts(stmts, st)
	if !ana.Terminates(stmts) && st.open != saved.open {
		v.pass.Reportf(pos, "loop iteration changes the %s balance", v.noun)
	}
	*st = saved
}

// isPairCall reports whether call invokes Pkg's name method.
func (v *visitor) isPairCall(call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, _ := v.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == v.cfg.Pkg
}
