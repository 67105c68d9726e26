package analysis

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestLockOrderRule drives lockfix: package one takes A then B,
// package two takes B then reaches A through a helper, and the rule
// must report the cycle once with a witness chain for each direction.
func TestLockOrderRule(t *testing.T) {
	diags := loadFixture(t, "lockfix", []Rule{NewLockOrderRule()})
	checkAgainstMarkers(t, "lockfix", diags)
	if len(diags) != 1 {
		t.Fatalf("want exactly one cycle diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "potential deadlock: lock-order cycle") {
		t.Errorf("message should name the cycle, got: %s", d.Message)
	}
	if len(d.Witness) != 2 {
		t.Fatalf("want one witness per cycle edge, got %d: %v", len(d.Witness), d.Witness)
	}
	joined := strings.Join(d.Witness, "\n")
	for _, want := range []string{
		"one.TakeAB holds core.Pair.A",
		"acquires core.Pair.B",
		"two.TakeBA holds core.Pair.B",
		"calls two.grabA",
		"acquires core.Pair.A",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("witness missing %q:\n%s", want, joined)
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

func TestSelectRules(t *testing.T) {
	all := DefaultRules()
	got, err := SelectRules(all, "lock-order, unreachable,")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 rules, got %d", len(got))
	}
	if _, err := SelectRules(all, "no-such-rule"); err == nil {
		t.Error("unknown rule name must error, not silently skip")
	}
	if _, err := SelectRules(all, " , "); err == nil {
		t.Error("a spec of only commas and blanks selects nothing and must error")
	}
	if got, err := SelectRules(all, ""); err != nil || len(got) != len(all) {
		t.Errorf("empty spec selects everything: %v, %d rules", err, len(got))
	}
}

// TestCLILockOrderGate is the CI-gate proof for the new rule: xfmlint
// over the lockfix fixture exits 1, and -rules/-witness behave.
func TestCLILockOrderGate(t *testing.T) {
	var stdout, stderr strings.Builder
	code := CLIMain([]string{"-rules", "lock-order", "-witness",
		"-C", filepath.Join("testdata", "src", "lockfix")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "potential deadlock") {
		t.Errorf("stdout should report the cycle:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "\tcore.Pair.") {
		t.Errorf("-witness should print indented witness hops:\n%s", stdout.String())
	}

	// The same tree is clean under every other rule: -rules filters.
	stdout.Reset()
	stderr.Reset()
	code = CLIMain([]string{"-rules", "sim-determinism,unreachable",
		"-C", filepath.Join("testdata", "src", "lockfix")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 with lock-order filtered out\nstdout:\n%s",
			code, stdout.String())
	}

	// Unknown rule names are usage errors.
	if code := CLIMain([]string{"-rules", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown -rules name: exit code = %d, want 2", code)
	}
}

// TestCLIJSONWitness: the JSON artifact carries witness chains so the
// CI upload is a self-contained audit trail.
func TestCLIJSONWitness(t *testing.T) {
	var stdout, stderr strings.Builder
	code := CLIMain([]string{"-json", "-C", filepath.Join("testdata", "src", "lockfix")},
		&stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var diags []Diagnostic
	if err := json.Unmarshal([]byte(stdout.String()), &diags); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout.String())
	}
	if len(diags) != 1 || len(diags[0].Witness) != 2 {
		t.Fatalf("want one diagnostic with two witness hops, got: %+v", diags)
	}
}
