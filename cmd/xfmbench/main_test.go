package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"xfm/internal/telemetry"
)

// build compiles xfmbench into dir and returns the binary's path.
func build(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "xfmbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// A recording is a pure function of the code: three NMA-driving
// experiments are recorded twice, and the recordings must match window
// for window.
func TestRecordingIndependentOfJobs(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir)
	record := func(name string) *telemetry.Dump {
		path := filepath.Join(dir, name+".json")
		args := []string{"-timeseries-out", path, "emulator", "fig12", "energy"}
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("xfmbench %v: %v\n%s", args, err, out)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		d, err := telemetry.ReadDump(f)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a := record("a")
	if a.Samples < 100 {
		t.Fatalf("recording has only %d samples; the experiments no longer drive the NMA", a.Samples)
	}
	if diffs := telemetry.DiffDumps(a, record("b")); len(diffs) > 0 {
		t.Errorf("second recording diverges in %d place(s), first: %s", len(diffs), diffs[0])
	}
}

// Arguments are checked before any artifact file is opened: a run that
// lists or rejects its arguments leaves no empty CPU profile, recording
// or trace behind.
func TestArgumentsCheckedBeforeArtifacts(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir)
	prof := filepath.Join(dir, "cpu.prof")
	rec := filepath.Join(dir, "rec.json")
	tr := filepath.Join(dir, "trace.json")
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"nosuch"}, 2},
		{[]string{"-list"}, 0},
		{[]string{"-chaos", "bogus=1"}, 2},
		{[]string{"-chaos", "storm=0:5"}, 2},
		{[]string{"-sample-every", "0", "-timeseries-out", rec, "emulator"}, 2},
		{[]string{"-sample-every", "-1", "-timeseries-out", rec, "emulator"}, 2},
	} {
		args := append([]string{"-cpuprofile", prof, "-trace-out", tr}, c.args...)
		err := exec.Command(bin, args...).Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != c.code {
			t.Errorf("xfmbench %v exited %d, want %d", args, code, c.code)
		}
		for _, f := range []string{prof, rec, tr} {
			if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("xfmbench %v left %s behind (stat: %v)", args, f, err)
				os.Remove(f)
			}
		}
	}
}

// timing matches the one line of each experiment that reads the wall
// clock, "(id in 1.2s)"; masking it leaves only simulated results.
var timing = regexp.MustCompile(`(?m)^\((\w+) in [^)\n]*\)$`)

// The contract as a test: the default suite reproduces the committed
// xfmbench_output.txt exactly outside its timing lines. A change that
// moves a result regenerates that file in the same commit
// (go run ./cmd/xfmbench > xfmbench_output.txt).
func TestOutputMatchesCommitted(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "xfmbench_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Command(build(t, t.TempDir())).Output()
	if err != nil {
		t.Fatalf("xfmbench: %v", err)
	}
	mask := func(b []byte) string { return timing.ReplaceAllString(string(b), "($1 in …)") }
	g, w := mask(got), mask(want)
	if g == w {
		return
	}
	gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("the suite's output departs from xfmbench_output.txt at line %d:\n%s", i+1, gl[i])
		}
	}
	t.Fatalf("the suite's output ends at line %d; xfmbench_output.txt has %d", len(gl), len(wl))
}
