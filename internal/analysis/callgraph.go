package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the static call graph lock-order walks. Nodes are
// the module's own functions and methods — out-of-module callees have
// no bodies here, so edges stop at the module boundary. Edge
// resolution:
//
//   - direct calls and method calls with a concrete receiver resolve
//     through go/types to exactly one callee;
//   - interface method calls resolve conservatively to every
//     module-local concrete type that implements the interface (the
//     call MAY land on any of them, so every one becomes an edge);
//   - calls through function values (locals, parameters, struct
//     fields, method values) have an unknown callee and add no edge, so
//     a lock taken inside a closure handed to parallel.Pool.Run is not
//     ordered after the locks its submitter holds (DESIGN §9, seed L1).
//
// Immediately-invoked function literals are inlined: their bodies
// belong to the enclosing function's node.

// CallEdge is one resolved call site.
type CallEdge struct {
	Callee *FuncNode
	Pos    token.Pos
}

// FuncNode is one module-local function in the call graph.
type FuncNode struct {
	Decl *ast.FuncDecl
	Pkg  *Package

	Calls []CallEdge // module-local callees, in source order, deduplicated
}

// Name renders the node's diagnostic name: "pkgname.Func" or
// "pkgname.*Recv.Method".
func (n *FuncNode) Name() string {
	name := n.Decl.Name.Name
	if n.Decl.Recv != nil && len(n.Decl.Recv.List) == 1 {
		name = types.ExprString(n.Decl.Recv.List[0].Type) + "." + name
	}
	return n.Pkg.Types.Name() + "." + name
}

// CallGraph indexes every module-local function declaration.
type CallGraph struct {
	Nodes map[*types.Func]*FuncNode
}

// SortedNodes returns every node ordered by source position, so
// whole-graph iterations are deterministic.
func (g *CallGraph) SortedNodes() []*FuncNode {
	out := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// CallGraph builds (once per Program) and returns the module call
// graph. Rules run sequentially, so a plain memo is enough.
func (p *Program) CallGraph() *CallGraph {
	if p.callgraph != nil {
		return p.callgraph
	}
	g := &CallGraph{Nodes: map[*types.Func]*FuncNode{}}
	// Pass 1: index every declared function.
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.Nodes[fn] = &FuncNode{Decl: fd, Pkg: pkg}
			}
		}
	}
	impls := moduleImplementers(p)
	// Pass 2: resolve call sites.
	for _, node := range g.Nodes {
		resolveCalls(g, node, impls)
	}
	p.callgraph = g
	return g
}

// moduleImplementers indexes every module-local named type with
// methods, for conservative interface resolution.
func moduleImplementers(p *Program) []*types.Named {
	var out []*types.Named
	for _, pkg := range p.Packages {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.NumMethods() == 0 {
				continue
			}
			out = append(out, named)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj().Pos() < out[j].Obj().Pos() })
	return out
}

func resolveCalls(g *CallGraph, node *FuncNode, impls []*types.Named) {
	pkg := node.Pkg
	seen := map[*FuncNode]bool{}
	addEdge := func(callee *FuncNode, pos token.Pos) {
		if callee == nil || callee == node || seen[callee] {
			return
		}
		seen[callee] = true
		node.Calls = append(node.Calls, CallEdge{Callee: callee, Pos: pos})
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			// An immediately-invoked literal is already part of this
			// node's walk; anything else is a function value.
			return true
		}
		// Builtins, conversions and function-valued variables resolve
		// to something other than a *types.Func: no edge.
		fn, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		iface := interfaceOf(fn)
		if iface == nil {
			addEdge(g.Nodes[fn], call.Pos())
			return true
		}
		// An interface method call may dispatch to any module-local
		// concrete type that implements the interface.
		for _, named := range impls {
			var recv types.Type = named
			if !types.Implements(recv, iface) {
				recv = types.NewPointer(named)
				if !types.Implements(recv, iface) {
					continue
				}
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), fn.Name())
			if m, ok := obj.(*types.Func); ok {
				addEdge(g.Nodes[m], call.Pos())
			}
		}
		return true
	})
}

// interfaceOf returns the interface fn is an abstract method of, or nil
// when fn is a function or a concrete method.
func interfaceOf(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}
