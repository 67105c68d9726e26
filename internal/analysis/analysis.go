package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
)

// Rule names, used in diagnostics and //xfm:ignore directives.
const (
	RuleDirective   = "directive"
	RuleUnreachable = "unreachable"
)

// KnownRules lists every rule an //xfm:ignore directive may name.
var KnownRules = []string{RuleDirective, RuleUnreachable}

func knownRule(name string) bool {
	for _, r := range KnownRules {
		if r == name {
			return true
		}
	}
	return false
}

// Diagnostic is one finding at a source position. File is relative to
// the module root so output is stable across checkouts.
type Diagnostic struct {
	File           string
	Line           int
	Col            int
	Rule           string
	Message        string
	Suppressed     bool
	SuppressReason string
}

// String renders the go-vet-style "file:line:col: rule: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Rule is one domain check run over the whole program. Rules see every
// loaded package at once because the invariants are cross-package (a
// function no package's main reaches).
type Rule interface {
	Name() string
	Check(p *Program) []Diagnostic
}

// DefaultRules returns the full xfmlint rule set with this module's
// default configuration.
func DefaultRules() []Rule {
	return []Rule{
		NewDirectiveRule(),
		NewUnreachableRule(),
	}
}

// suppression is one parsed //xfm:ignore directive. It covers
// diagnostics of Rule on its own line and on the following line (so it
// works both as a trailing comment and as a standalone comment above
// the offending statement).
type suppression struct {
	file   string
	line   int
	rule   string
	reason string
}

// relFile renders pos's filename relative to the module root.
func (p *Program) relFile(pos token.Pos) string {
	file := p.Fset.Position(pos).Filename
	if rel, err := filepath.Rel(p.ModDir, file); err == nil && !filepath.IsAbs(rel) {
		file = filepath.ToSlash(rel)
	}
	return file
}

// diag builds a Diagnostic at pos with the file path relative to the
// module root.
func (p *Program) diag(pos token.Pos, rule, format string, args ...any) Diagnostic {
	position := p.Fset.Position(pos)
	return Diagnostic{
		File:    p.relFile(pos),
		Line:    position.Line,
		Col:     position.Column,
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	}
}

// Run executes rules over the program, applies //xfm:ignore
// suppressions, and returns all diagnostics sorted by position.
// Suppressed diagnostics are returned with Suppressed set so callers
// can audit them; Unsuppressed filters them out.
func (p *Program) Run(rules []Rule) []Diagnostic {
	var out []Diagnostic
	for _, r := range rules {
		out = append(out, r.Check(p)...)
	}
	for i := range out {
		if s := p.suppressionFor(out[i]); s != nil {
			out[i].Suppressed = true
			out[i].SuppressReason = s.reason
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

func (p *Program) suppressionFor(d Diagnostic) *suppression {
	// Directive diagnostics cannot be suppressed: a broken directive
	// must be fixed, or the suppression mechanism itself rots.
	if d.Rule == RuleDirective {
		return nil
	}
	for i := range p.suppressions {
		s := &p.suppressions[i]
		if s.rule == d.Rule && s.file == d.File && (s.line == d.Line || s.line == d.Line-1) {
			return s
		}
	}
	return nil
}

// Unsuppressed filters a diagnostic list down to the findings that
// still gate CI.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	out := diags[:0:0]
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}
