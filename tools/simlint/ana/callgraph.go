package ana

// This file builds the whole-program call graph shared by the
// interprocedural analyzers (lockorder, hotalloc). The graph is built
// once per Program from the already-type-checked packages:
//
//   - static calls of declared functions and methods resolve directly;
//   - interface method calls link to every in-program concrete method
//     of a type implementing the interface (class-hierarchy analysis);
//   - dynamic calls through func-typed struct fields, named func types
//     and locally-aliased func values link to the function values bound
//     to that field/type/alias anywhere in the program, including one
//     level of parameter flow (a func value passed to a function that
//     stores its parameter into a field binds to that field — the
//     NewAddressSpace wiring idiom);
//   - remaining dynamic calls fall back to signature matching, but
//     those edges are tagged EdgeSig and excluded from analyzer
//     traversals: the engine's thread trampoline (t.fn(t)) would
//     otherwise make every thread body reachable from every lock.
//
// Everything is deterministic: nodes and edges are sorted, and map
// iteration never leaks into output order.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// EdgeKind classifies how a call edge was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call of a declared function or method.
	EdgeStatic EdgeKind = iota
	// EdgeIface is a call through an interface method.
	EdgeIface
	// EdgeBound is a dynamic call through a func-typed field, named
	// func type, or aliased local, resolved to its bound values.
	EdgeBound
	// EdgeSig is the signature-match fallback; excluded from analyzer
	// traversals (see package comment above).
	EdgeSig
)

// String names the edge kind for DOT output.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeIface:
		return "iface"
	case EdgeBound:
		return "bound"
	default:
		return "sig"
	}
}

// TraversalKinds reports whether edges of kind k take part in
// reachability and held-lock propagation.
func (k EdgeKind) Traversal() bool { return k != EdgeSig }

// CGNode is one function in the call graph: a declared function or
// method, or a function literal.
type CGNode struct {
	ID   string
	Fn   *types.Func   // nil for function literals
	Lit  *ast.FuncLit  // nil for declared functions
	Decl *ast.FuncDecl // nil for literals and bodiless functions
	Pkg  *Package      // owning package; nil for out-of-program callees
	Pos  token.Pos
}

// Body returns the node's syntax body, or nil when the function is
// declared outside the loaded program.
func (n *CGNode) Body() *ast.BlockStmt {
	switch {
	case n.Lit != nil:
		return n.Lit.Body
	case n.Decl != nil:
		return n.Decl.Body
	}
	return nil
}

// DocText returns the declaration doc comment ("" for literals).
func (n *CGNode) DocText() string {
	if n.Decl != nil && n.Decl.Doc != nil {
		return n.Decl.Doc.Text()
	}
	return ""
}

// ShortName compresses a node ID for human-readable traces:
// "(*daxvm/internal/mm.MM).PageFault" -> "(*mm.MM).PageFault".
func (n *CGNode) ShortName() string { return shortID(n.ID) }

// shortID trims the directory part of each import path, keeping the
// package base name: "daxvm/internal/mm.MM" -> "mm.MM".
func shortID(id string) string {
	var sb strings.Builder
	for {
		i := strings.Index(id, "daxvm/")
		if i < 0 {
			sb.WriteString(id)
			return sb.String()
		}
		sb.WriteString(id[:i])
		rest := id[i:]
		dot := strings.IndexByte(rest, '.')
		if dot < 0 {
			sb.WriteString(rest)
			return sb.String()
		}
		path := rest[:dot]
		if k := strings.LastIndexByte(path, '/'); k >= 0 {
			path = path[k+1:]
		}
		sb.WriteString(path)
		id = rest[dot:]
	}
}

// CGEdge is one resolved call site.
type CGEdge struct {
	Caller string
	Callee string
	Kind   EdgeKind
	Pos    token.Pos
}

// CallGraph is the whole-program call graph.
type CallGraph struct {
	Nodes map[string]*CGNode
	Out   map[string][]CGEdge // sorted by (Pos, Callee, Kind)
	In    map[string][]CGEdge

	litID map[*ast.FuncLit]string
}

// LitNode resolves a function literal to its node.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *CGNode {
	if id, ok := g.litID[lit]; ok {
		return g.Nodes[id]
	}
	return nil
}

// SortedIDs returns every node ID in sorted order.
func (g *CallGraph) SortedIDs() []string {
	ids := make([]string, 0, len(g.Nodes))
	for id := range g.Nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// --- builder ----------------------------------------------------------------

type dynCall struct {
	caller string
	keys   []string // precise binding keys, in preference order
	sig    string   // signature fallback key
	pos    token.Pos
}

type ifaceCall struct {
	caller string
	iface  *types.Interface
	decl   *types.Named // the interface's named type, nil if it has none
	method string
	pos    token.Pos
}

type paramFieldLink struct {
	param int
	key   string
}

type funcArg struct {
	callee  string
	idx     int
	valueID string
}

type cgBuilder struct {
	prog *Program
	g    *CallGraph

	bindings    map[string]map[string]bool // bind key -> node IDs
	dynCalls    []dynCall
	ifaceCalls  []ifaceCall
	paramFields map[string][]paramFieldLink
	funcArgs    []funcArg
	aliases     map[types.Object]string // local func var -> bind key
	edgeSeen    map[string]bool
}

func buildCallGraph(prog *Program) *CallGraph {
	b := &cgBuilder{
		prog: prog,
		g: &CallGraph{
			Nodes: map[string]*CGNode{},
			Out:   map[string][]CGEdge{},
			In:    map[string][]CGEdge{},
			litID: map[*ast.FuncLit]string{},
		},
		bindings:    map[string]map[string]bool{},
		paramFields: map[string][]paramFieldLink{},
		aliases:     map[types.Object]string{},
		edgeSeen:    map[string]bool{},
	}
	for _, pkg := range prog.Packages {
		b.registerPackage(pkg)
	}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Syntax {
			b.collectFile(pkg, f)
		}
	}
	b.resolveParamFlow()
	b.resolveDynCalls()
	b.resolveIfaceCalls()
	b.finish()
	return b.g
}

// registerPackage creates nodes for every declared function and every
// function literal, numbering literals in source order per enclosure.
func (b *cgBuilder) registerPackage(pkg *Package) {
	for _, f := range pkg.Syntax {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
				if fn == nil {
					continue
				}
				id := fn.FullName()
				b.g.Nodes[id] = &CGNode{ID: id, Fn: fn, Decl: d, Pkg: pkg, Pos: d.Pos()}
				if d.Body != nil {
					b.registerLits(pkg, id, d.Body)
				}
			case *ast.GenDecl:
				// Package-level initializers may hold literals.
				b.registerLits(pkg, pkg.PkgPath+".init", d)
			}
		}
	}
}

// registerLits assigns IDs to function literals under root, nesting as
// <enclosing>$<n> with n counting in source order per enclosure.
func (b *cgBuilder) registerLits(pkg *Package, root string, n ast.Node) {
	counts := map[string]int{}
	var enclosing []string
	push := func(id string) { enclosing = append(enclosing, id) }
	pop := func() { enclosing = enclosing[:len(enclosing)-1] }
	push(root)
	var walk func(ast.Node) bool
	walk = func(nd ast.Node) bool {
		lit, ok := nd.(*ast.FuncLit)
		if !ok {
			return true
		}
		parent := enclosing[len(enclosing)-1]
		counts[parent]++
		id := fmt.Sprintf("%s$%d", parent, counts[parent])
		b.g.Nodes[id] = &CGNode{ID: id, Lit: lit, Pkg: pkg, Pos: lit.Pos()}
		b.g.litID[lit] = id
		push(id)
		ast.Inspect(lit.Body, walk)
		pop()
		return false
	}
	ast.Inspect(n, walk)
}

// collectFile walks every function body in the file, attributing calls
// and bindings to the innermost enclosing function node.
func (b *cgBuilder) collectFile(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			fn, _ := pkg.TypesInfo.Defs[d.Name].(*types.Func)
			if fn == nil || d.Body == nil {
				continue
			}
			b.walkFunc(pkg, b.g.Nodes[fn.FullName()], d.Body)
		case *ast.GenDecl:
			// Literals in package-level initializers walk under their
			// own nodes; bindings in the spec itself are collected too.
			b.collectGenDecl(pkg, d)
		}
	}
}

func (b *cgBuilder) collectGenDecl(pkg *Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, v := range vs.Values {
			var target ast.Expr
			if i < len(vs.Names) {
				target = vs.Names[i]
			}
			b.bindValue(pkg, v, b.targetKeys(pkg, target, nil))
			if lit, ok := v.(*ast.FuncLit); ok {
				b.walkFunc(pkg, b.g.LitNode(lit), lit.Body)
			}
		}
	}
}

// walkFunc collects calls and bindings in body, attributed to cur.
// Nested literals are walked under their own nodes.
func (b *cgBuilder) walkFunc(pkg *Package, cur *CGNode, body *ast.BlockStmt) {
	if cur == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if ln := b.g.LitNode(n); ln != nil {
				b.walkFunc(pkg, ln, n.Body)
			}
			return false
		case *ast.CallExpr:
			b.collectCall(pkg, cur, n)
		case *ast.AssignStmt:
			b.collectAssign(pkg, cur, n)
		case *ast.ValueSpec:
			for i, v := range n.Values {
				var target ast.Expr
				if i < len(n.Names) {
					target = n.Names[i]
				}
				b.bindValue(pkg, v, b.targetKeys(pkg, target, nil))
			}
		case *ast.CompositeLit:
			b.collectCompositeLit(pkg, n)
		case *ast.ReturnStmt:
			b.collectReturn(pkg, cur, n)
		case *ast.RangeStmt:
			b.collectRangeAlias(pkg, n)
		}
		return true
	})
}

// collectCall classifies one call site.
func (b *cgBuilder) collectCall(pkg *Package, cur *CGNode, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	info := pkg.TypesInfo

	// Function literal called in place.
	if lit, ok := fun.(*ast.FuncLit); ok {
		if ln := b.g.LitNode(lit); ln != nil {
			b.addEdge(CGEdge{Caller: cur.ID, Callee: ln.ID, Kind: EdgeStatic, Pos: call.Pos()})
		}
		return
	}

	obj := calleeObject(info, fun)
	switch o := obj.(type) {
	case *types.Builtin, *types.TypeName:
		return // builtin or conversion; conversions bind via bindValue contexts
	case *types.Func:
		sig, _ := o.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if it, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				decl, _ := sig.Recv().Type().(*types.Named)
				b.ifaceCalls = append(b.ifaceCalls, ifaceCall{caller: cur.ID, iface: it, decl: decl, method: o.Name(), pos: call.Pos()})
				return
			}
		}
		callee := origin(o).FullName()
		if _, ok := b.g.Nodes[callee]; !ok {
			// Out-of-program callee: record a bodiless node so the
			// edge still exists (DOT completeness, dead-end for
			// reachability).
			b.g.Nodes[callee] = &CGNode{ID: callee, Fn: o, Pos: token.NoPos}
		}
		b.addEdge(CGEdge{Caller: cur.ID, Callee: callee, Kind: EdgeStatic, Pos: call.Pos()})
		b.collectFuncArgs(pkg, callee, sig, call)
		return
	}

	// Dynamic call: through a field, named func type, alias, or any
	// other func-typed expression.
	t := info.TypeOf(fun)
	sig, _ := t.(*types.Signature)
	if sig == nil {
		if named, ok := t.(*types.Named); ok {
			sig, _ = named.Underlying().(*types.Signature)
		}
	}
	if sig == nil && t != nil {
		sig, _ = t.Underlying().(*types.Signature)
	}
	if sig == nil {
		return // not a call of a function value (e.g. unresolved)
	}
	dc := dynCall{caller: cur.ID, sig: sigKey(sig), pos: call.Pos()}
	dc.keys = b.calleeKeys(pkg, fun)
	b.dynCalls = append(b.dynCalls, dc)
	b.collectFuncArgs(pkg, "", sig, call)
}

// calleeObject resolves the object a call expression's Fun names.
func calleeObject(info *types.Info, fun ast.Expr) types.Object {
	switch f := fun.(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	case *ast.IndexExpr: // generic instantiation f[T](...)
		return calleeObject(info, f.X)
	case *ast.IndexListExpr:
		return calleeObject(info, f.X)
	}
	return nil
}

// calleeKeys computes the precise binding keys a dynamic callee
// expression can be looked up under.
func (b *cgBuilder) calleeKeys(pkg *Package, fun ast.Expr) []string {
	var keys []string
	info := pkg.TypesInfo
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if k := fieldKey(info, sel); k != "" {
			keys = append(keys, k)
		}
	}
	if id, ok := fun.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			if k, ok := b.aliases[obj]; ok {
				keys = append(keys, k)
			}
			keys = append(keys, varKey(b.prog.Fset, obj))
		}
	}
	if named, ok := info.TypeOf(fun).(*types.Named); ok {
		if _, isSig := named.Underlying().(*types.Signature); isSig {
			keys = append(keys, typeKey(named))
		}
	}
	return keys
}

// collectFuncArgs registers function values passed as call arguments:
// bindings under the parameter's named type, plus a funcArg record for
// one-level parameter flow into fields when the callee is known.
func (b *cgBuilder) collectFuncArgs(pkg *Package, calleeID string, sig *types.Signature, call *ast.CallExpr) {
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, ok := pt.Underlying().(*types.Signature); !ok {
			continue
		}
		keys := []string{}
		if named, ok := pt.(*types.Named); ok {
			keys = append(keys, typeKey(named))
		}
		ids := b.bindValue(pkg, arg, keys)
		if calleeID != "" {
			for _, vid := range ids {
				b.funcArgs = append(b.funcArgs, funcArg{callee: calleeID, idx: i, valueID: vid})
			}
		}
	}
}

// collectAssign records bindings (and parameter->field links, and local
// aliases) from one assignment.
func (b *cgBuilder) collectAssign(pkg *Package, cur *CGNode, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	info := pkg.TypesInfo
	for i, rhs := range as.Rhs {
		lhs := as.Lhs[i]
		keys := b.targetKeys(pkg, lhs, rhs)
		b.bindValue(pkg, rhs, keys)
		// Local alias: f := x.Field (func-typed) lets later f(...)
		// calls resolve through the field's bindings.
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil || as.Tok == token.ASSIGN {
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj != nil {
					if sel, ok := ast.Unparen(rhs).(*ast.SelectorExpr); ok {
						if k := fieldKey(info, sel); k != "" {
							b.aliases[obj] = k
						}
					}
				}
			}
		}
		// Parameter flow: s.field = fn where fn is a func-typed
		// parameter of the enclosing declared function.
		if cur != nil && cur.Fn != nil {
			if pidx := paramIndex(cur.Fn, info, rhs); pidx >= 0 {
				for _, k := range keys {
					if strings.HasPrefix(k, "field:") {
						b.paramFields[cur.ID] = append(b.paramFields[cur.ID], paramFieldLink{param: pidx, key: k})
					}
				}
			}
		}
	}
}

// collectCompositeLit records bindings from struct/map literal values,
// including parameter->field links for struct fields initialized from
// func-typed parameters (the Engine.Go / NewAddressSpace idiom).
func (b *cgBuilder) collectCompositeLit(pkg *Package, cl *ast.CompositeLit) {
	info := pkg.TypesInfo
	t := info.TypeOf(cl)
	if t == nil {
		return
	}
	st, _ := t.Underlying().(*types.Struct)
	cur := b.enclosingDecl(pkg, cl.Pos())
	for i, el := range cl.Elts {
		var value ast.Expr
		var keys []string
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			value = kv.Value
			if key, ok := kv.Key.(*ast.Ident); ok && st != nil {
				if fobj, ok := info.Uses[key].(*types.Var); ok && fobj.IsField() {
					if k := fieldKeyOf(t, fobj); k != "" {
						keys = append(keys, k)
					}
				}
			}
			if mt, ok := t.Underlying().(*types.Map); ok {
				if named, ok := mt.Elem().(*types.Named); ok {
					if _, isSig := named.Underlying().(*types.Signature); isSig {
						keys = append(keys, typeKey(named))
					}
				}
			}
		} else {
			value = el
			if st != nil && i < st.NumFields() {
				if k := fieldKeyOf(t, st.Field(i)); k != "" {
					keys = append(keys, k)
				}
			}
		}
		b.bindValue(pkg, value, keys)
		if cur != nil && cur.Fn != nil {
			if pidx := paramIndex(cur.Fn, info, value); pidx >= 0 {
				for _, k := range keys {
					if strings.HasPrefix(k, "field:") {
						b.paramFields[cur.ID] = append(b.paramFields[cur.ID], paramFieldLink{param: pidx, key: k})
					}
				}
			}
		}
	}
}

// enclosingDecl finds the declared function containing pos (literals
// resolve to their enclosing declaration for parameter lookup).
func (b *cgBuilder) enclosingDecl(pkg *Package, pos token.Pos) *CGNode {
	for _, f := range pkg.Syntax {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if pos >= fd.Pos() && pos <= fd.End() {
				if fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func); fn != nil {
					return b.g.Nodes[fn.FullName()]
				}
			}
		}
	}
	return nil
}

func (b *cgBuilder) collectReturn(pkg *Package, cur *CGNode, ret *ast.ReturnStmt) {
	var results *types.Tuple
	if cur.Fn != nil {
		results = cur.Fn.Type().(*types.Signature).Results()
	} else if cur.Lit != nil {
		if sig, ok := pkg.TypesInfo.TypeOf(cur.Lit).(*types.Signature); ok {
			results = sig.Results()
		}
	}
	for i, v := range ret.Results {
		var keys []string
		if results != nil && i < results.Len() {
			if named, ok := results.At(i).Type().(*types.Named); ok {
				if _, isSig := named.Underlying().(*types.Signature); isSig {
					keys = append(keys, typeKey(named))
				}
			}
		}
		b.bindValue(pkg, v, keys)
	}
}

// collectRangeAlias links `for _, f := range x.Field` loop variables to
// the field's binding key so f(...) resolves precisely.
func (b *cgBuilder) collectRangeAlias(pkg *Package, rs *ast.RangeStmt) {
	sel, ok := ast.Unparen(rs.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	k := fieldKey(pkg.TypesInfo, sel)
	if k == "" {
		return
	}
	if vid, ok := rs.Value.(*ast.Ident); ok {
		if obj := pkg.TypesInfo.Defs[vid]; obj != nil {
			if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
				b.aliases[obj] = k
			}
		}
	}
}

// bindValue registers the function value(s) in expr under keys (plus
// the signature fallback key and any named-func-type conversions it is
// wrapped in). Returns the node IDs bound.
func (b *cgBuilder) bindValue(pkg *Package, expr ast.Expr, keys []string) []string {
	if expr == nil {
		return nil
	}
	info := pkg.TypesInfo
	e := ast.Unparen(expr)
	// Unwrap conversions to named func types, accumulating their keys.
	for {
		call, ok := e.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			break
		}
		tn, ok := calleeObject(info, ast.Unparen(call.Fun)).(*types.TypeName)
		if !ok {
			break
		}
		if named, ok := tn.Type().(*types.Named); ok {
			if _, isSig := named.Underlying().(*types.Signature); isSig {
				keys = append(keys, typeKey(named))
			}
		}
		e = ast.Unparen(call.Args[0])
	}

	var id string
	switch v := e.(type) {
	case *ast.FuncLit:
		if ln := b.g.LitNode(v); ln != nil {
			id = ln.ID
		}
	case *ast.Ident:
		if fn, ok := info.Uses[v].(*types.Func); ok {
			id = b.ensureFuncNode(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
			id = b.ensureFuncNode(fn)
		}
	}
	if id == "" {
		return nil
	}
	if t := info.TypeOf(e); t != nil {
		if sig, ok := t.Underlying().(*types.Signature); ok {
			keys = append(keys, sigKey(sig))
		}
	}
	for _, k := range keys {
		if k == "" {
			continue
		}
		set := b.bindings[k]
		if set == nil {
			set = map[string]bool{}
			b.bindings[k] = set
		}
		set[id] = true
	}
	return []string{id}
}

func (b *cgBuilder) ensureFuncNode(fn *types.Func) string {
	id := origin(fn).FullName()
	if _, ok := b.g.Nodes[id]; !ok {
		b.g.Nodes[id] = &CGNode{ID: id, Fn: fn, Pos: token.NoPos}
	}
	return id
}

// targetKeys computes the binding keys an assignment target provides.
func (b *cgBuilder) targetKeys(pkg *Package, target, _ ast.Expr) []string {
	if target == nil {
		return nil
	}
	info := pkg.TypesInfo
	var keys []string
	switch lhs := ast.Unparen(target).(type) {
	case *ast.SelectorExpr:
		if k := fieldKey(info, lhs); k != "" {
			keys = append(keys, k)
		}
	case *ast.IndexExpr:
		// m[k] = fn where m is a field: bind under the map field.
		if sel, ok := ast.Unparen(lhs.X).(*ast.SelectorExpr); ok {
			if k := fieldKey(info, sel); k != "" {
				keys = append(keys, k)
			}
		}
	case *ast.Ident:
		if obj := info.Defs[lhs]; obj != nil {
			keys = append(keys, varKey(b.prog.Fset, obj))
		} else if obj := info.Uses[lhs]; obj != nil {
			keys = append(keys, varKey(b.prog.Fset, obj))
		}
	}
	if named, ok := info.TypeOf(target).(*types.Named); ok {
		if _, isSig := named.Underlying().(*types.Signature); isSig {
			keys = append(keys, typeKey(named))
		}
	}
	return keys
}

// paramIndex reports which func-typed parameter of fn the expression
// reads, or -1.
func paramIndex(fn *types.Func, info *types.Info, expr ast.Expr) int {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return -1
	}
	obj := info.Uses[id]
	if obj == nil {
		return -1
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			if _, isSig := obj.Type().Underlying().(*types.Signature); isSig {
				return i
			}
		}
	}
	return -1
}

// --- binding keys -----------------------------------------------------------

func fieldKey(info *types.Info, sel *ast.SelectorExpr) string {
	fobj, ok := info.Uses[sel.Sel].(*types.Var)
	if !ok || !fobj.IsField() {
		return ""
	}
	return fieldKeyOf(info.TypeOf(sel.X), fobj)
}

func fieldKeyOf(owner types.Type, fobj *types.Var) string {
	for {
		if p, ok := owner.(*types.Pointer); ok {
			owner = p.Elem()
			continue
		}
		break
	}
	if named, ok := owner.(*types.Named); ok {
		return "field:" + qualifiedTypeName(named) + "." + fobj.Name()
	}
	// Unnamed struct: fall back to a per-field-object key.
	return fmt.Sprintf("field:?%s.%s", fobj.Id(), fobj.Name())
}

func typeKey(named *types.Named) string { return "type:" + qualifiedTypeName(named) }

func qualifiedTypeName(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() != nil {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	return obj.Name()
}

func varKey(fset *token.FileSet, obj types.Object) string {
	p := fset.Position(obj.Pos())
	return fmt.Sprintf("var:%s:%d:%d", p.Filename, p.Line, p.Column)
}

func sigKey(sig *types.Signature) string {
	return "sig:" + types.TypeString(sig, nil)
}

// --- resolution -------------------------------------------------------------

// resolveParamFlow applies one level of parameter flow: a func value
// passed at a call site whose callee stores that parameter into a field
// binds the value to the field's key.
func (b *cgBuilder) resolveParamFlow() {
	for _, fa := range b.funcArgs {
		for _, link := range b.paramFields[fa.callee] {
			if link.param != fa.idx {
				continue
			}
			set := b.bindings[link.key]
			if set == nil {
				set = map[string]bool{}
				b.bindings[link.key] = set
			}
			set[fa.valueID] = true
		}
	}
}

func (b *cgBuilder) resolveDynCalls() {
	for _, dc := range b.dynCalls {
		targets := map[string]bool{}
		for _, k := range dc.keys {
			for id := range b.bindings[k] {
				targets[id] = true
			}
		}
		kind := EdgeBound
		if len(targets) == 0 {
			kind = EdgeSig
			for id := range b.bindings[dc.sig] {
				targets[id] = true
			}
		}
		for _, id := range sortedSet(targets) {
			b.addEdge(CGEdge{Caller: dc.caller, Callee: id, Kind: kind, Pos: dc.pos})
		}
	}
}

func (b *cgBuilder) resolveIfaceCalls() {
	type implKey struct {
		iface  *types.Interface
		method string
	}
	cache := map[implKey][]string{}
	for _, ic := range b.ifaceCalls {
		key := implKey{ic.iface, ic.method}
		targets, ok := cache[key]
		if !ok {
			targets = b.implementers(ic.iface, ic.decl, ic.method)
			cache[key] = targets
		}
		for _, id := range targets {
			b.addEdge(CGEdge{Caller: ic.caller, Callee: id, Kind: EdgeIface, Pos: ic.pos})
		}
	}
}

// implementers finds every in-program concrete method implementing
// iface.method, in deterministic order; decl is iface's named type.
func (b *cgBuilder) implementers(iface *types.Interface, decl *types.Named, method string) []string {
	var out []string
	for _, pkg := range b.prog.Packages {
		want := importedIface(pkg.Types, iface, decl)
		scope := pkg.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(ptr, want) && !types.Implements(named, want) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, pkg.Types, method)
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			id := origin(fn).FullName()
			if n, ok := b.g.Nodes[id]; ok && n.Body() != nil {
				out = append(out, id)
			}
		}
	}
	sort.Strings(out)
	return out
}

// importedIface returns iface as pkg imports it, or iface if pkg does
// not: pkg is type-checked against its imports' export data, so only its
// own copy of the interface matches its method signatures.
func importedIface(pkg *types.Package, iface *types.Interface, decl *types.Named) *types.Interface {
	for _, imp := range pkg.Imports() {
		if decl != nil && decl.Obj().Pkg() != nil && imp.Path() == decl.Obj().Pkg().Path() {
			if obj := imp.Scope().Lookup(decl.Obj().Name()); obj != nil {
				return obj.Type().Underlying().(*types.Interface)
			}
		}
	}
	return iface
}

func (b *cgBuilder) addEdge(e CGEdge) {
	k := fmt.Sprintf("%s|%d|%s|%d", e.Caller, e.Pos, e.Callee, e.Kind)
	if b.edgeSeen[k] {
		return
	}
	b.edgeSeen[k] = true
	b.g.Out[e.Caller] = append(b.g.Out[e.Caller], e)
	b.g.In[e.Callee] = append(b.g.In[e.Callee], e)
}

func (b *cgBuilder) finish() {
	for id := range b.g.Out {
		sortEdges(b.g.Out[id])
	}
	for id := range b.g.In {
		sortEdges(b.g.In[id])
	}
}

func sortEdges(edges []CGEdge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		if a.Caller != b.Caller {
			return a.Caller < b.Caller
		}
		if a.Callee != b.Callee {
			return a.Callee < b.Callee
		}
		return a.Kind < b.Kind
	})
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
