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

// TestUnreachableRule drives unreachfix: dead funcs, types and methods
// are reported once each (a dead type's methods are not), while
// everything main, an init or a package-level initialiser mentions —
// by call, by function value, through an interface, by name only —
// stays quiet, and a suppressed test oracle is suppressed.
func TestUnreachableRule(t *testing.T) {
	diags := loadFixture(t, "unreachfix", []Rule{NewUnreachableRule()})
	checkAgainstMarkers(t, "unreachfix", Unsuppressed(diags))
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			if !strings.Contains(d.Message, "refParse") {
				t.Errorf("only the oracle refParse is suppressed: %s", d)
			}
		}
	}
	if suppressed != 1 {
		t.Errorf("want 1 suppressed oracle, got %d", suppressed)
	}
}

// TestSuppressions: suppressfix's two unreachable oracles carry a
// reasoned //xfm:ignore, one standalone above the declaration and one
// trailing it, and both are suppressed.
func TestSuppressions(t *testing.T) {
	diags := loadFixture(t, "suppressfix", DefaultRules())
	if len(diags) != 2 {
		t.Fatalf("want 2 suppressed diagnostics (standalone and trailing form), got %d: %v", len(diags), diags)
	}
	for i, name := range []string{"refStamp", "refTrailing"} {
		d := diags[i]
		if d.Rule != RuleUnreachable || !strings.Contains(d.Message, name) {
			t.Errorf("diagnostic %d should be the unreachable %s: %s", i, name, d)
		}
		if !d.Suppressed {
			t.Errorf("diagnostic escaped its //xfm:ignore: %s", d)
		}
		if d.SuppressReason == "" {
			t.Errorf("suppression must carry a reason: %s", d)
		}
	}
	if got := Unsuppressed(diags); len(got) != 0 {
		t.Errorf("Unsuppressed should filter everything out, got %v", got)
	}
}

// maxSuppressed is the tree-wide ceiling on //xfm:ignore suppressions
// (DESIGN §9): the unreachable oracles and test seams shipped code
// keeps. Raising it is a reviewed act, not a side effect.
const maxSuppressed = 20

// TestTreeIsClean is the local mirror of the CI gate: the real module
// must have zero unsuppressed diagnostics under the default rule set,
// and no more than maxSuppressed suppressed ones.
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
	suppressed := 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
			if d.SuppressReason == "" {
				t.Errorf("suppression without reason: %s", d)
			}
		}
	}
	if suppressed > maxSuppressed {
		t.Errorf("%d suppressed diagnostics, ceiling is %d", suppressed, maxSuppressed)
	}
}
