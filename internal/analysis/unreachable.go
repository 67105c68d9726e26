package analysis

import (
	"go/ast"
	"go/types"
)

// unreachableRule reports every module-local function, method and type
// that no binary can reach. It walks a mention graph rather than a call
// graph: a declaration is reached when reached code names it at all (a
// call, a function value, a type use), so nothing load-bearing is ever
// reported. Roots are every main.main, every init and every initialised
// package-level variable except _ (its initialiser runs at start-up).
// A method is reached when its receiver type is reached and its name is
// selected anywhere in reached code — conservative for interface
// dispatch — or belongs to an interface
// that reached code names or hands a value to (error, sort.Sort's
// parameter: the standard library makes those calls). Test files are
// not loaded, so a declaration only tests use is reported: move it into
// the test, or, for a reference tests compare shipped code against,
// keep it under an //xfm:ignore unreachable naming the test.
// Reachability is a whole-program property: a load that matched no
// main package (one library directory, a fixture) reports nothing.
type unreachableRule struct{}

// NewUnreachableRule returns the unreachable rule.
func NewUnreachableRule() Rule { return unreachableRule{} }

func (unreachableRule) Name() string { return RuleUnreachable }

// reachDecl is one package-level declaration (FuncDecl, TypeSpec or
// ValueSpec) and the package whose Info resolves its identifiers.
type reachDecl struct {
	node ast.Node
	pkg  *Package
}

// namedObj returns the TypeName behind t or *t, or nil.
func namedObj(t types.Type) types.Object {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

func (unreachableRule) Check(p *Program) []Diagnostic {
	decls := map[types.Object]reachDecl{}
	methods := map[types.Object][]types.Object{} // receiver TypeName → its methods
	var order, roots, work []types.Object        // order: funcs, methods and types, as declared
	hasMain := false
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pkg.Info.Defs[d.Name]
					decls[obj] = reachDecl{d, pkg}
					order = append(order, obj)
					if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
						tn := namedObj(recv.Type())
						methods[tn] = append(methods[tn], obj)
					} else if isMain := d.Name.Name == "main" && pkg.Types.Name() == "main"; isMain || d.Name.Name == "init" {
						roots = append(roots, obj)
						hasMain = hasMain || isMain
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							obj := pkg.Info.Defs[spec.Name]
							decls[obj] = reachDecl{spec, pkg}
							order = append(order, obj)
						case *ast.ValueSpec:
							for _, name := range spec.Names {
								obj := pkg.Info.Defs[name]
								decls[obj] = reachDecl{spec, pkg}
								if _, isVar := obj.(*types.Var); isVar && len(spec.Values) > 0 && name.Name != "_" {
									roots = append(roots, obj)
								}
							}
						}
					}
				}
			}
		}
	}
	if !hasMain {
		return nil
	}
	reached := map[types.Object]bool{}
	mark := func(obj types.Object) {
		if _, local := decls[obj]; local && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	selected := map[string]bool{}
	selectAll := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				selected[iface.Method(i).Name()] = true
			}
		}
	}
	for _, obj := range roots {
		mark(obj)
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if _, isFunc := obj.(*types.Func); !isFunc {
			// A constant in an iota group repeats its type implicitly.
			mark(namedObj(obj.Type()))
		}
		d := decls[obj]
		ast.Inspect(d.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			switch use := d.pkg.Info.Uses[id].(type) {
			case *types.Func:
				sig := use.Type().(*types.Signature)
				if sig.Recv() != nil {
					selected[use.Name()] = true
				}
				if _, local := decls[use.Origin()]; !local {
					// An out-of-module callee may call any method of an
					// interface it is handed.
					for i := 0; i < sig.Params().Len(); i++ {
						selectAll(sig.Params().At(i).Type())
					}
				}
				mark(use.Origin())
			case *types.TypeName:
				selectAll(use.Type())
				mark(use)
			case nil:
			default:
				mark(use)
			}
			return true
		})
		if len(work) == 0 {
			for tn, ms := range methods {
				for _, m := range ms {
					if reached[tn] && selected[m.Name()] {
						mark(m)
					}
				}
			}
		}
	}
	var out []Diagnostic
	for _, obj := range order {
		if reached[obj] {
			continue
		}
		kind := "type"
		if fn, ok := obj.(*types.Func); ok {
			kind = "func"
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if !reached[namedObj(recv.Type())] {
					continue // an unreached type is reported once, not once per method
				}
				kind = "method"
			}
		}
		out = append(out, p.diag(obj.Pos(), RuleUnreachable,
			"%s %s is reached from no main, init or package-level initialiser", kind, obj.Name()))
	}
	return out
}
