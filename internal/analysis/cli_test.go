package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIGateFailsOnViolations is the CI-gate proof: xfmlint run over
// the deliberately broken unreachfix fixture must exit non-zero and
// print the violations, exactly as the workflow step would fail the
// build.
func TestCLIGateFailsOnViolations(t *testing.T) {
	var stdout, stderr strings.Builder
	code := CLIMain([]string{"-C", filepath.Join("testdata", "src", "unreachfix")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "unreachable") {
		t.Errorf("stdout should list unreachable findings:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "diagnostics") {
		t.Errorf("stderr should print the summary line:\n%s", stderr.String())
	}
}

// TestCLIGatePassesOnSuppressedTree: a module whose every violation
// carries a reasoned //xfm:ignore exits zero.
func TestCLIGatePassesOnSuppressedTree(t *testing.T) {
	var stdout, stderr strings.Builder
	code := CLIMain([]string{"-C", filepath.Join("testdata", "src", "suppressfix")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.String() != "" {
		t.Errorf("clean run should print no diagnostics:\n%s", stdout.String())
	}
}

// TestCLIBadFlag: usage errors exit 2, distinct from lint findings.
// xfmlint has one flag and lints the whole module, so an unknown flag
// and any positional argument are both usage errors.
func TestCLIBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-json"},
		{"-rules", "unreachable"},
		{"./..."},
		{"-C", filepath.Join("testdata", "src", "unreachfix"), "./lib"},
	} {
		var stdout, stderr strings.Builder
		if code := CLIMain(args, &stdout, &stderr); code != 2 {
			t.Errorf("xfmlint %v: exit code = %d, want 2\nstderr:\n%s", args, code, stderr.String())
		}
	}
}
