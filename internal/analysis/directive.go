package analysis

import (
	"go/ast"
	"strings"
)

// The //xfm: directive namespace has one verb:
//
//	//xfm:ignore <rule> <reason...>   suppress <rule> on this line and the next
//
// Malformed directives — any other verb, an unknown rule name, a
// missing reason — are themselves diagnostics (rule "directive"), so a
// typo can never silently turn a check off and an annotation for a
// rule that no longer exists cannot linger.

// scanDirectives parses every //xfm: comment in pkg, populating
// prog.suppressions and prog.directiveDiags.
func scanDirectives(prog *Program, pkg *Package) {
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if text, ok := strings.CutPrefix(c.Text, "//xfm:"); ok {
					parseDirective(prog, c, text)
				}
			}
		}
	}
}

func parseDirective(prog *Program, c *ast.Comment, text string) {
	bad := func(format string, args ...any) {
		prog.directiveDiags = append(prog.directiveDiags, prog.diag(c.Pos(), RuleDirective, format, args...))
	}
	fields := strings.Fields(text)
	switch {
	case len(fields) == 0:
		bad("empty //xfm: directive")
	case fields[0] != "ignore":
		bad("unknown directive //xfm:%s (the only verb is ignore)", fields[0])
	case len(fields) == 1:
		bad("//xfm:ignore needs a rule name and a reason")
	case !knownRule(fields[1]):
		bad("//xfm:ignore names unknown rule %q (known: %s)", fields[1], strings.Join(KnownRules, ", "))
	case len(fields) == 2:
		bad("//xfm:ignore %s is missing a reason — every suppression must say why", fields[1])
	default:
		prog.suppressions = append(prog.suppressions, suppression{
			file:   prog.relFile(c.Pos()),
			line:   prog.Fset.Position(c.Pos()).Line,
			rule:   fields[1],
			reason: strings.Join(fields[2:], " "),
		})
	}
}

// directiveRule surfaces the malformed-directive diagnostics collected
// at load time.
type directiveRule struct{}

// NewDirectiveRule returns the rule reporting malformed //xfm:
// directives.
func NewDirectiveRule() Rule { return directiveRule{} }

func (directiveRule) Name() string { return RuleDirective }

func (directiveRule) Check(p *Program) []Diagnostic {
	return append([]Diagnostic(nil), p.directiveDiags...)
}
