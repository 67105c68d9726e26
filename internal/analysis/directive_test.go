package analysis

import (
	"strings"
	"testing"
)

// TestMalformedDirectives proves a typo in an //xfm: annotation is a
// diagnostic, never a silently unenforced invariant.
func TestMalformedDirectives(t *testing.T) {
	diags := loadFixture(t, "dirfix", DefaultRules())
	wantSubstrings := []string{
		`unknown directive //xfm:guardedby`,
		`unknown directive //xfm:hotpath`,
		`unknown directive //xfm:ignor `,
		`needs a rule name and a reason`,
		`unknown rule "no-such-rule"`,
		`missing a reason`,
	}
	if len(diags) != len(wantSubstrings) {
		for _, d := range diags {
			t.Logf("  got: %s", d)
		}
		t.Fatalf("want %d directive diagnostics, got %d", len(wantSubstrings), len(diags))
	}
	for _, want := range wantSubstrings {
		found := false
		for _, d := range diags {
			if d.Rule == RuleDirective && strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no directive diagnostic containing %q", want)
		}
	}
	// Directive diagnostics gate CI: none may be suppressed.
	for _, d := range diags {
		if d.Suppressed {
			t.Errorf("directive diagnostic must not be suppressible: %s", d)
		}
	}
}

// TestDirectiveIgnoreCannotSuppressItself pins the anti-rot rule: an
// //xfm:ignore directive aimed at rule "directive" parses (directive is
// a known rule name, so the ignore itself is well-formed) but never
// matches — suppressionFor refuses the directive rule outright.
func TestDirectiveIgnoreCannotSuppressItself(t *testing.T) {
	d := Diagnostic{File: "x.go", Line: 3, Rule: RuleDirective}
	p := &Program{suppressions: []suppression{
		{file: "x.go", line: 3, rule: RuleDirective, reason: "trying to hide a broken annotation"},
	}}
	if s := p.suppressionFor(d); s != nil {
		t.Fatalf("directive diagnostics must be unsuppressable, got %+v", s)
	}
}
