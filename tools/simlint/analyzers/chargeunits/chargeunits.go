// Package chargeunits enforces the simulator's typed-units naming
// convention (documented in internal/cost): identifiers carry their unit
// in a name suffix — Cycles/Cost/Latency are cycle-valued, NS/Nanos are
// nanoseconds, Bytes and Pages are counts, Per<X> names are rates. The
// analyzer flags additive arithmetic and comparisons that mix
// cycle-valued expressions with ns/byte/page-valued ones (conversions go
// through multiplication by a rate, or cost.Cycles), non-cycle arguments
// to the charging APIs (Thread.Charge/ChargeAs/ChargeN/ChargeAsN/
// AddRemote/Sleep), time-valued counts to the batch charges, and
// non-nanosecond arguments to cost.Cycles.
//
// Constants declared in package cost are cycle-valued by default — the
// package doc pins that convention — unless their suffix says otherwise.
package chargeunits

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"daxvm/tools/simlint/ana"
)

// Analyzer is the cycle/ns/bytes unit-mixing check.
var Analyzer = &ana.Analyzer{
	Name: "chargeunits",
	Doc:  "flag arithmetic mixing cycle-valued and ns/byte/page-valued expressions",
	Run:  run,
}

type unit int

const (
	unknown unit = iota
	cycles
	nanos
	bytes
	pages
)

func (u unit) String() string {
	switch u {
	case cycles:
		return "cycles"
	case nanos:
		return "nanoseconds"
	case bytes:
		return "bytes"
	case pages:
		return "pages"
	}
	return "unknown"
}

// rateSuffixes mark per-something conversion factors; their products
// change units, so they are deliberately untyped here.
var rateSuffixes = []string{
	"PerPage", "PerExtent", "PerBlock", "PerLine", "PerCmp",
	"PerTarget", "PerCycle", "PerSecond", "PerUsec", "Pct",
}

var unitSuffixes = []struct {
	suffix string
	u      unit
}{
	{"Pages", pages},
	{"Bytes", bytes},
	{"NS", nanos},
	{"Ns", nanos},
	{"Nanos", nanos},
	{"Cycles", cycles},
	{"Cost", cycles},
	{"Latency", cycles},
	{"Lat", cycles},
}

// chargeArgs names the arguments of a sim.Thread charging method: the
// index of its cycle-valued argument and of its charge count (-1 when it
// takes none).
type chargeArgs struct{ cycles, count int }

// chargeArg maps sim.Thread methods to their cycle and count arguments.
var chargeArg = map[string]chargeArgs{
	"Charge":     {0, -1},
	"ChargeAs":   {1, -1},
	"ChargeN":    {0, 1},
	"ChargeAsN":  {1, 2},
	"AddRemote":  {1, -1},
	"Sleep":      {0, -1},
	"SleepUntil": {0, -1},
}

func run(pass *ana.Pass) error {
	c := &checker{pass: pass}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				c.checkBinary(n)
			case *ast.AssignStmt:
				c.checkAssign(n)
			case *ast.CallExpr:
				c.checkCall(n)
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass *ana.Pass
}

var additive = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.EQL: true, token.NEQ: true,
	token.LSS: true, token.LEQ: true,
	token.GTR: true, token.GEQ: true,
}

func (c *checker) checkBinary(e *ast.BinaryExpr) {
	if !additive[e.Op] {
		return
	}
	lu, ru := c.unitOf(e.X), c.unitOf(e.Y)
	if lu != unknown && ru != unknown && lu != ru {
		c.pass.Reportf(e.OpPos, "expression mixes %s and %s; convert through a rate constant or cost.Cycles first", lu, ru)
	}
}

// checkAssign applies the additive rule to += and -=, where the left
// side's unit must match the right side's.
func (c *checker) checkAssign(s *ast.AssignStmt) {
	if s.Tok != token.ADD_ASSIGN && s.Tok != token.SUB_ASSIGN {
		return
	}
	lu, ru := c.unitOf(s.Lhs[0]), c.unitOf(s.Rhs[0])
	if lu != unknown && ru != unknown && lu != ru {
		c.pass.Reportf(s.TokPos, "expression mixes %s and %s; convert through a rate constant or cost.Cycles first", lu, ru)
	}
}

func (c *checker) checkCall(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, _ := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch {
	case fn.Pkg().Name() == "sim":
		args, ok := chargeArg[sel.Sel.Name]
		if !ok || args.cycles >= len(call.Args) || args.count >= len(call.Args) {
			return
		}
		if u := c.unitOf(call.Args[args.cycles]); u != unknown && u != cycles {
			c.pass.Reportf(call.Args[args.cycles].Pos(), "%s expects cycles, got a %s-valued expression", sel.Sel.Name, u)
		}
		// A count of pages or bytes can be a count of charges; a time
		// cannot, and one there is most likely a swapped argument.
		if args.count < 0 {
			return
		}
		if u := c.unitOf(call.Args[args.count]); u == cycles || u == nanos {
			c.pass.Reportf(call.Args[args.count].Pos(), "%s expects a count of charges, got a %s-valued expression", sel.Sel.Name, u)
		}
	case fn.Pkg().Name() == "cost" && sel.Sel.Name == "Cycles":
		if len(call.Args) != 1 {
			return
		}
		if u := c.unitOf(call.Args[0]); u != unknown && u != nanos {
			c.pass.Reportf(call.Args[0].Pos(), "cost.Cycles expects nanoseconds, got a %s-valued expression", u)
		}
	}
}

// unitOf infers the unit of e from identifier names and structure.
func (c *checker) unitOf(e ast.Expr) unit {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return c.unitOfObj(c.pass.TypesInfo.Uses[e], e.Name)
	case *ast.SelectorExpr:
		return c.unitOfObj(c.pass.TypesInfo.Uses[e.Sel], e.Sel.Name)
	case *ast.CallExpr:
		// A type conversion keeps the operand's unit.
		if tv, ok := c.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.unitOf(e.Args[0])
		}
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if fn, _ := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); fn != nil && fn.Pkg() != nil {
				if fn.Pkg().Name() == "cost" && sel.Sel.Name == "Cycles" {
					return cycles
				}
				return nameUnit(sel.Sel.Name)
			}
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return nameUnit(id.Name)
		}
		return unknown
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB:
			lu, ru := c.unitOf(e.X), c.unitOf(e.Y)
			if lu == unknown {
				return ru
			}
			return lu
		default:
			// *, /, %, shifts: the result's unit is whatever the rate
			// math says — treat as unknown.
			return unknown
		}
	case *ast.UnaryExpr:
		return c.unitOf(e.X)
	}
	return unknown
}

// unitOfObj applies the suffix convention to a named object; constants
// in package cost default to cycles per the package contract.
func (c *checker) unitOfObj(obj types.Object, name string) unit {
	if u := nameUnit(name); u != unknown {
		return u
	}
	if isRate(name) {
		return unknown
	}
	if cn, ok := obj.(*types.Const); ok && cn.Pkg() != nil && cn.Pkg().Name() == "cost" {
		return cycles
	}
	return unknown
}

func nameUnit(name string) unit {
	if isRate(name) {
		return unknown
	}
	for _, s := range unitSuffixes {
		if strings.HasSuffix(name, s.suffix) {
			return s.u
		}
	}
	return unknown
}

func isRate(name string) bool {
	for _, s := range rateSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}
