package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// hotpathAllocRule enforces the PR 3 zero-allocs-per-page bar on
// functions annotated //xfm:hotpath, interprocedurally: an annotated
// function may not *reach*, through any chain of module-local static
// calls, a construct that allocates (the classes in summary.go). The
// PR 4 rule looked only at the annotated body, so a hot path calling
// an innocent-looking helper that builds a map sailed through; this
// version walks the call graph and reports the full witness chain
// (`a → b → c allocates at file:line`) on every transitive finding.
//
// Traversal semantics:
//
//   - edges are the static call graph's (direct calls, concrete
//     method calls, and conservative interface resolution — every
//     module-local implementation of the called interface method);
//   - callees annotated //xfm:hotpath are NOT descended into: they
//     are roots of their own, independently verified;
//   - callees annotated //xfm:allocok <reason> are NOT descended
//     into: the annotation asserts the function is allocation-free in
//     the steady state (pooled or warm paths whose allocations are
//     provably cold) and the reason is recorded with the directive;
//   - calls through function values (unknown callees) are findings —
//     the walk cannot certify what it cannot see — suppressible at
//     the call site with //xfm:ignore when the callee contract is
//     enforced elsewhere (e.g. parallel.Pool.Run's per-item body,
//     covered by allocs/op regression tests);
//   - out-of-module callees have no bodies here and are assumed
//     allocation-free except package fmt, exactly as in PR 4; the
//     allocs/op regression tests remain the dynamic net underneath.
//
// Each allocation site is reported once, against the root with the
// shortest witness chain (first-loaded root on ties), so a helper
// shared by many hot paths is one finding, not one per root.
type hotpathAllocRule struct {
	// shallow restores the PR 4 intraprocedural semantics (own body
	// only, dynamic calls unchecked). Test-only: it exists so the
	// fixture can prove the old rule misses a hotpath→helper→alloc
	// chain that the interprocedural rule catches.
	shallow bool
}

// NewHotpathAllocRule returns the interprocedural hotpath-alloc rule.
func NewHotpathAllocRule() Rule { return hotpathAllocRule{} }

func (hotpathAllocRule) Name() string { return RuleHotpathAlloc }

// chainStep is one hop of a witness chain: the node reached and the
// call expression (in the previous node) that reached it.
type chainStep struct {
	node *FuncNode
	pos  token.Pos // call site in the previous node; NoPos for the root
	via  string    // interface annotation on the edge, if any
}

func (r hotpathAllocRule) Check(p *Program) []Diagnostic {
	g := p.CallGraph()
	var roots []*FuncNode
	for fd, on := range p.hotpath {
		if !on {
			continue
		}
		if node := g.NodeFor(fd); node != nil {
			roots = append(roots, node)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Decl.Pos() < roots[j].Decl.Pos() })

	var out []Diagnostic
	// Direct findings: the root's own body, PR 4 message shape.
	for _, root := range roots {
		for _, site := range p.summaryFor(root).sites {
			if site.dynamic && r.shallow {
				continue // PR 4 did not check dynamic calls
			}
			out = append(out, p.diag(site.pos, RuleHotpathAlloc,
				"%s in hot path %s", site.desc, funcName(root.Decl)))
		}
	}
	if r.shallow {
		return out
	}

	// Transitive findings: BFS from every root; report each reached
	// allocation site once with the shortest witness chain.
	type finding struct {
		root  *FuncNode
		chain []chainStep
		site  allocSite
	}
	best := map[token.Pos]finding{}
	var sitePos []token.Pos
	for _, root := range roots {
		visited := map[*FuncNode]bool{root: true}
		queue := [][]chainStep{{{node: root}}}
		for len(queue) > 0 {
			chain := queue[0]
			queue = queue[1:]
			cur := chain[len(chain)-1].node
			for _, edge := range cur.Calls {
				callee := edge.Callee
				if visited[callee] || p.hotpath[callee.Decl] || p.allocok[callee.Decl] {
					continue
				}
				visited[callee] = true
				next := append(append([]chainStep(nil), chain...),
					chainStep{node: callee, pos: edge.Pos, via: edge.Via})
				for _, site := range p.summaryFor(callee).sites {
					if prev, ok := best[site.pos]; ok && len(prev.chain) <= len(next) {
						continue
					} else if !ok {
						sitePos = append(sitePos, site.pos)
					}
					best[site.pos] = finding{root: root, chain: next, site: site}
				}
				queue = append(queue, next)
			}
		}
	}
	sort.Slice(sitePos, func(i, j int) bool { return sitePos[i] < sitePos[j] })
	for _, pos := range sitePos {
		f := best[pos]
		names := make([]string, len(f.chain))
		for i, s := range f.chain {
			names[i] = s.node.Name()
		}
		d := p.diag(pos, RuleHotpathAlloc,
			"%s in hot path %s via call chain %s", f.site.desc,
			funcName(f.root.Decl), strings.Join(names, " → "))
		d.Witness = witnessChain(p, f.chain, f.site)
		out = append(out, d)
	}
	return out
}

// witnessChain renders every hop of a transitive finding with its
// source position, ending at the allocation itself.
func witnessChain(p *Program, chain []chainStep, site allocSite) []string {
	var out []string
	for i := 1; i < len(chain); i++ {
		s := chain[i]
		line := fmt.Sprintf("%s calls %s at %s",
			chain[i-1].node.Name(), s.node.Name(), p.posString(s.pos))
		if s.via != "" {
			line += " (via " + s.via + ")"
		}
		out = append(out, line)
	}
	last := chain[len(chain)-1]
	out = append(out, fmt.Sprintf("%s: %s at %s",
		last.node.Name(), site.desc, p.posString(site.pos)))
	return out
}

// posString renders "file:line" relative to the module root.
func (p *Program) posString(pos token.Pos) string {
	return fmt.Sprintf("%s:%d", p.relFile(pos), p.Fset.Position(pos).Line)
}
