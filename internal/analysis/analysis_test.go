package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// sharedCtx returns the one Context all fixture tests share, so the
// standard library is source-imported and type-checked once instead of
// once per test (each stdlib load costs a couple of seconds).
var sharedCtx = sync.OnceValue(NewContext)

// loadFixture type-checks one testdata module and runs rules over it.
func loadFixture(t *testing.T, fixture string, rules []Rule) []Diagnostic {
	t.Helper()
	prog, err := sharedCtx().Load(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatalf("load %s: %v", fixture, err)
	}
	return prog.Run(rules)
}

var wantRe = regexp.MustCompile(`// want ([a-z-]+)`)

// wantMarkers scans a fixture module for `// want <rule>` comments and
// returns the expected "file:line:rule" set (files relative to the
// fixture's module root, matching Diagnostic.File).
func wantMarkers(t *testing.T, fixture string) map[string]int {
	t.Helper()
	root := filepath.Join("testdata", "src", fixture)
	want := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := filepath.ToSlash(rel) + ":" + itoa(i+1) + ":" + m[1]
				want[key]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan %s: %v", root, err)
	}
	return want
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// checkAgainstMarkers compares diagnostics to the fixture's want
// markers exactly: every marker must be hit and nothing else reported.
func checkAgainstMarkers(t *testing.T, fixture string, diags []Diagnostic) {
	t.Helper()
	want := wantMarkers(t, fixture)
	got := map[string]int{}
	for _, d := range diags {
		got[d.File+":"+itoa(d.Line)+":"+d.Rule]++
	}
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: want %d diagnostics at %s, got %d", fixture, want[k], k, got[k])
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("  got: %s", d)
		}
	}
}

func TestDeterminismRule(t *testing.T) {
	// The rule is configured for the fixture's sim package only; the
	// wall-clock read in detfix/other must stay silent.
	diags := loadFixture(t, "detfix", []Rule{NewDeterminismRule("detfix/sim")})
	checkAgainstMarkers(t, "detfix", diags)
	for _, d := range diags {
		if strings.HasPrefix(d.File, "other/") {
			t.Errorf("package other is outside the covered set: %s", d)
		}
	}
}

// TestDeterminismDefaultPackages pins the covered set: removing a
// simulator package from the list must be a reviewed, deliberate act.
func TestDeterminismDefaultPackages(t *testing.T) {
	want := []string{
		"xfm/internal/chaos", "xfm/internal/corpus", "xfm/internal/costmodel",
		"xfm/internal/dram", "xfm/internal/experiments", "xfm/internal/fault",
		"xfm/internal/memctrl", "xfm/internal/nma", "xfm/internal/sfm",
		"xfm/internal/workload", "xfm/internal/xfm",
	}
	got := append([]string(nil), DefaultDeterminismPackages...)
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("DefaultDeterminismPackages = %v, want %v", got, want)
	}
}

func TestSuppressions(t *testing.T) {
	rules := []Rule{
		NewDirectiveRule(), NewDeterminismRule("suppressfix"), NewLockOrderRule(), NewUnreachableRule(),
	}
	diags := loadFixture(t, "suppressfix", rules)
	if len(diags) != 3 {
		t.Fatalf("want 3 suppressed diagnostics (one per suppressible rule), got %d: %v", len(diags), diags)
	}
	rulesSeen := map[string]bool{}
	for _, d := range diags {
		if !d.Suppressed {
			t.Errorf("diagnostic escaped its //xfm:ignore: %s", d)
		}
		if d.SuppressReason == "" {
			t.Errorf("suppression must carry a reason: %s", d)
		}
		rulesSeen[d.Rule] = true
	}
	for _, r := range []string{RuleDeterminism, RuleLockOrder, RuleUnreachable} {
		if !rulesSeen[r] {
			t.Errorf("fixture should exercise a suppressed %s violation", r)
		}
	}
	if got := Unsuppressed(diags); len(got) != 0 {
		t.Errorf("Unsuppressed should filter everything out, got %v", got)
	}
}

// TestTreeIsClean is the local mirror of the CI gate: the real module
// must have zero unsuppressed diagnostics under the default rule set.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	prog, err := sharedCtx().Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags := prog.Run(DefaultRules())
	for _, d := range Unsuppressed(diags) {
		t.Errorf("unsuppressed: %s", d)
	}
	for _, d := range diags {
		if d.Suppressed && d.SuppressReason == "" {
			t.Errorf("suppression without reason: %s", d)
		}
	}
}
