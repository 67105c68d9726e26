package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockOrderRule detects potential deadlocks: two mutexes acquired in
// opposite orders on different code paths. Locks are identified by the
// canonical struct field (or package-level variable) of type
// sync.Mutex/RWMutex, not by instance — so `shardA.mu` and `shardB.mu`
// are one lock class and an AB/BA inversion between two *classes* is
// reported wherever the two paths live, even in different packages.
//
// Per function, a linear position-ordered scan (deliberately simpler
// than a CFG lockset analysis) tracks the held set:
// `m.Lock()`/`m.RLock()` acquires, `m.Unlock()`/`m.RUnlock()` releases,
// and a deferred unlock holds to the end of the function.
// Acquiring B while holding A records the edge A→B; calling a function
// that (transitively, through the call graph) acquires B while holding
// A records the same edge with the call chain as its witness. Any
// cycle in the resulting module-wide acquisition-order graph — AB/BA,
// longer rings, or re-acquiring a held class — is reported once, with
// a witness chain for every edge of the cycle.
//
// RLock is treated like Lock: two readers cannot deadlock each other,
// but an RLock/Lock inversion with a writer in between can, and the
// acquisition order is what the rule certifies.
type lockOrderRule struct{}

// NewLockOrderRule returns the lock-order rule.
func NewLockOrderRule() Rule { return lockOrderRule{} }

func (lockOrderRule) Name() string { return RuleLockOrder }

// lockOp is one mutex operation or outgoing call, in source order.
type lockOp struct {
	pos     token.Pos
	acquire *types.Var // set for Lock/RLock
	release *types.Var // set for Unlock/RUnlock (nil when deferred)
	call    *CallEdge  // set for a module-local call
}

// lockAcq is one (transitively) acquirable lock class of a function:
// the chain records the callee path from the function to the acquiring
// body, empty for a direct acquisition.
type lockAcq struct {
	key   *types.Var
	pos   token.Pos
	chain []*FuncNode
}

// acqSet is an insertion-ordered set of lock acquisitions, so the
// fixpoint and edge passes iterate deterministically.
type acqSet struct {
	byKey map[*types.Var]int
	list  []lockAcq
}

func (s *acqSet) add(a lockAcq) bool {
	if s.byKey == nil {
		s.byKey = map[*types.Var]int{}
	}
	if _, ok := s.byKey[a.key]; ok {
		return false
	}
	s.byKey[a.key] = len(s.list)
	s.list = append(s.list, a)
	return true
}

// lockEdgeWitness records how one ordered pair (from held, to
// acquired) arises: the function holding `from`, where it acquired it,
// and either the direct second acquisition or the call chain that
// performs it.
type lockEdgeWitness struct {
	holder  *FuncNode
	heldPos token.Pos
	site    token.Pos // the second Lock, or the call that leads to it
	chain   []*FuncNode
	acqPos  token.Pos
}

func (lockOrderRule) Check(p *Program) []Diagnostic {
	g := p.CallGraph()
	nodes := g.SortedNodes()

	keyNames := map[*types.Var]string{}
	ops := map[*FuncNode][]lockOp{}
	for _, node := range nodes {
		ops[node] = scanLockOps(node, keyNames)
	}

	// Fixpoint: every lock class a function can acquire, directly or
	// through any callee.
	acqs := map[*FuncNode]*acqSet{}
	for _, node := range nodes {
		set := &acqSet{}
		for _, op := range ops[node] {
			if op.acquire != nil {
				set.add(lockAcq{key: op.acquire, pos: op.pos})
			}
		}
		acqs[node] = set
	}
	for changed := true; changed; {
		changed = false
		for _, node := range nodes {
			set := acqs[node]
			for _, edge := range node.Calls {
				callee := acqs[edge.Callee]
				if callee == nil {
					continue
				}
				for _, a := range callee.list {
					if set.add(lockAcq{
						key:   a.key,
						pos:   a.pos,
						chain: append([]*FuncNode{edge.Callee}, a.chain...),
					}) {
						changed = true
					}
				}
			}
		}
	}

	// Edge pass: replay each function with a held set.
	edges := map[[2]*types.Var]lockEdgeWitness{}
	addEdge := func(k [2]*types.Var, w lockEdgeWitness) {
		if _, ok := edges[k]; !ok {
			edges[k] = w
		}
	}
	type heldLock struct {
		key *types.Var
		pos token.Pos
	}
	for _, node := range nodes {
		var held []heldLock
		for _, op := range ops[node] {
			switch {
			case op.acquire != nil:
				for _, h := range held {
					addEdge([2]*types.Var{h.key, op.acquire}, lockEdgeWitness{
						holder: node, heldPos: h.pos, site: op.pos, acqPos: op.pos,
					})
				}
				held = append(held, heldLock{key: op.acquire, pos: op.pos})
			case op.release != nil:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].key == op.release {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case op.call != nil:
				if len(held) == 0 {
					continue
				}
				callee := acqs[op.call.Callee]
				for _, a := range callee.list {
					for _, h := range held {
						addEdge([2]*types.Var{h.key, a.key}, lockEdgeWitness{
							holder: node, heldPos: h.pos, site: op.pos,
							chain:  append([]*FuncNode{op.call.Callee}, a.chain...),
							acqPos: a.pos,
						})
					}
				}
			}
		}
	}

	return lockCycleDiags(p, edges, keyNames)
}

// scanLockOps walks one function body in source order, resolving every
// sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock to its canonical lock
// class and interleaving the node's call-graph edges by position.
func scanLockOps(node *FuncNode, keyNames map[*types.Var]string) []lockOp {
	pkg := node.Pkg
	// Deferred unlocks hold to function end: collect them first.
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && d.Call != nil {
			deferred[d.Call] = true
		}
		return true
	})
	var out []lockOp
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		var acquire bool
		switch sel.Sel.Name {
		case "Lock", "RLock":
			acquire = true
		case "Unlock", "RUnlock":
		default:
			return true
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		mu := resolveMutexVar(pkg, sel.X)
		if mu == nil {
			return true
		}
		recordLockKeyName(pkg, sel.X, mu, keyNames)
		op := lockOp{pos: call.Pos()}
		if acquire {
			op.acquire = mu
		} else {
			if deferred[call] {
				return true // holds to function end
			}
			op.release = mu
		}
		out = append(out, op)
		return true
	})
	for i := range node.Calls {
		out = append(out, lockOp{pos: node.Calls[i].Pos, call: &node.Calls[i]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// resolveMutexVar resolves the receiver expression of a Lock/Unlock
// call to the mutex's canonical variable: a struct field, a package
// variable, or a local.
func resolveMutexVar(pkg *Package, expr ast.Expr) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if v := fieldOf(pkg, e); v != nil && isMutexType(v.Type()) {
			return v
		}
		// Qualified package variable: pkg.Mu.Lock().
		if v, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && isMutexType(v.Type()) {
			return v
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[e].(*types.Var); ok && isMutexType(v.Type()) {
			return v
		}
	}
	return nil
}

// fieldOf resolves a selector expression to the struct field it
// denotes, or nil when it denotes anything else (a method, a package
// member, a qualified identifier).
func fieldOf(pkg *Package, sel *ast.SelectorExpr) *types.Var {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, ok := s.Obj().(*types.Var)
	if !ok || !v.IsField() {
		return nil
	}
	return v
}

// isMutexType reports whether t is sync.Mutex, sync.RWMutex, or a
// pointer to one.
func isMutexType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// recordLockKeyName renders the canonical display name for a lock
// class the first time it is seen: "pkg.Struct.field" for fields,
// "pkg.var" otherwise.
func recordLockKeyName(pkg *Package, expr ast.Expr, mu *types.Var, names map[*types.Var]string) {
	if _, ok := names[mu]; ok {
		return
	}
	if sel, ok := ast.Unparen(expr).(*ast.SelectorExpr); ok && mu.IsField() {
		if s, ok := pkg.Info.Selections[sel]; ok {
			recv := s.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				names[mu] = named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + mu.Name()
				return
			}
		}
	}
	if mu.Pkg() != nil {
		names[mu] = mu.Pkg().Name() + "." + mu.Name()
		return
	}
	names[mu] = mu.Name()
}

// lockCycleDiags finds cycles in the acquisition-order graph and
// renders one diagnostic per cycle with every edge's witness chain.
func lockCycleDiags(p *Program, edges map[[2]*types.Var]lockEdgeWitness,
	keyNames map[*types.Var]string) []Diagnostic {
	name := func(v *types.Var) string {
		if n, ok := keyNames[v]; ok {
			return n
		}
		return v.Name()
	}
	// Deterministic adjacency, nodes and successors sorted by name.
	adj := map[*types.Var][]*types.Var{}
	nodeSet := map[*types.Var]bool{}
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodeSet[k[0]], nodeSet[k[1]] = true, true
	}
	var nodes []*types.Var
	for v := range nodeSet {
		nodes = append(nodes, v)
	}
	byName := func(s []*types.Var) {
		sort.Slice(s, func(i, j int) bool { return name(s[i]) < name(s[j]) })
	}
	byName(nodes)
	for _, v := range nodes {
		byName(adj[v])
	}

	sccs := tarjanSCC(nodes, adj)
	var out []Diagnostic
	for _, scc := range sccs {
		inSCC := map[*types.Var]bool{}
		for _, v := range scc {
			inSCC[v] = true
		}
		var cycEdges [][2]*types.Var
		for _, from := range scc {
			for _, to := range adj[from] {
				if inSCC[to] {
					if _, ok := edges[[2]*types.Var{from, to}]; ok {
						cycEdges = append(cycEdges, [2]*types.Var{from, to})
					}
				}
			}
		}
		if len(scc) == 1 && len(cycEdges) == 0 {
			continue // no self-edge: not a cycle
		}
		var witness []string
		anchor := token.Pos(0)
		for _, e := range cycEdges {
			w := edges[e]
			if anchor == 0 || w.site < anchor {
				anchor = w.site
			}
			witness = append(witness, renderLockWitness(p, e, w, name))
		}
		var names []string
		for _, v := range scc {
			names = append(names, name(v))
		}
		var msg string
		if len(scc) == 1 {
			msg = fmt.Sprintf("potential deadlock: %s acquired while an instance is already held", names[0])
		} else {
			msg = fmt.Sprintf("potential deadlock: lock-order cycle %s → %s",
				strings.Join(names, " → "), names[0])
		}
		d := p.diag(anchor, RuleLockOrder, "%s", msg)
		d.Witness = witness
		out = append(out, d)
	}
	return out
}

func renderLockWitness(p *Program, e [2]*types.Var, w lockEdgeWitness,
	name func(*types.Var) string) string {
	from, to := name(e[0]), name(e[1])
	if len(w.chain) == 0 {
		return fmt.Sprintf("%s → %s: %s holds %s (acquired at %s) and acquires %s at %s",
			from, to, w.holder.Name(), from, p.posString(w.heldPos), to, p.posString(w.site))
	}
	hops := make([]string, len(w.chain))
	for i, n := range w.chain {
		hops[i] = n.Name()
	}
	return fmt.Sprintf("%s → %s: %s holds %s (acquired at %s) and calls %s at %s, which acquires %s at %s",
		from, to, w.holder.Name(), from, p.posString(w.heldPos),
		strings.Join(hops, " → "), p.posString(w.site), to, p.posString(w.acqPos))
}

// posString renders "file:line" relative to the module root.
func (p *Program) posString(pos token.Pos) string {
	return fmt.Sprintf("%s:%d", p.relFile(pos), p.Fset.Position(pos).Line)
}

// tarjanSCC returns the strongly connected components of the
// acquisition graph, in deterministic (sorted-root) order.
func tarjanSCC(nodes []*types.Var, adj map[*types.Var][]*types.Var) [][]*types.Var {
	index := map[*types.Var]int{}
	low := map[*types.Var]int{}
	onStack := map[*types.Var]bool{}
	var stack []*types.Var
	var sccs [][]*types.Var
	next := 0

	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}
