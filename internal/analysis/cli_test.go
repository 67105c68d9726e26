package analysis

import (
	"encoding/json"
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

// TestCLIJSON checks the -json artifact shape: always an array, every
// entry carries file/line/rule/message, suppressed entries are present
// as the audit trail.
func TestCLIJSON(t *testing.T) {
	var stdout, stderr strings.Builder
	code := CLIMain([]string{"-json", "-C", filepath.Join("testdata", "src", "unreachfix")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var diags []Diagnostic
	if err := json.Unmarshal([]byte(stdout.String()), &diags); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("JSON array should carry the seeded violations")
	}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Rule == "" || d.Message == "" {
			t.Errorf("incomplete JSON diagnostic: %+v", d)
		}
	}
}

// TestCLIBadFlag: usage errors exit 2, distinct from lint findings —
// and a -rules spec that selects nothing is one of them, even over a
// fixture full of violations.
func TestCLIBadFlag(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := CLIMain([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	stderr.Reset()
	code := CLIMain([]string{"-rules", ",", "-C", filepath.Join("testdata", "src", "unreachfix")}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "known: ") {
		t.Fatalf("-rules , : exit code = %d, want 2 with the known-rules message\nstderr:\n%s", code, stderr.String())
	}
}

// TestCLIShowSuppressed: -show-suppressed prints the audit trail in
// text mode without affecting the exit code.
func TestCLIShowSuppressed(t *testing.T) {
	var stdout, stderr strings.Builder
	code := CLIMain([]string{"-show-suppressed", "-C", filepath.Join("testdata", "src", "suppressfix")},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "unreachable") {
		t.Errorf("suppressed findings should appear with -show-suppressed:\n%s", stdout.String())
	}
}
