package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// bin is the xfmbench binary TestMain builds once for every test.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "xfmbench-test")
	bin = filepath.Join(dir, "xfmbench")
	var out []byte
	if err == nil {
		out, err = exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	}
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building xfmbench: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// A recording is a pure function of the code: CI's two emulator
// recordings, fast-forwarded and -nma-stepped, must each match its
// committed digest in testdata/recordings.sha256 byte for byte.
func TestRecordingsMatchDigests(t *testing.T) {
	sums, err := os.ReadFile(filepath.Join("..", "..", "testdata", "recordings.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, flags := range map[string][]string{
		"timeseries.json":         nil,
		"timeseries-stepped.json": {"-nma-stepped"},
	} {
		path := filepath.Join(dir, name)
		args := append(flags, "-timeseries-out", path, "-sample-every", "1024", "emulator")
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("xfmbench %v: %v\n%s", args, err, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf("%x  telemetry-artifacts/%s\n", sha256.Sum256(b), name)
		if !strings.Contains(string(sums), line) {
			t.Errorf("xfmbench %v: recordings.sha256 lacks the line %q", args, line)
		}
	}
}

// Arguments are checked before any artifact file is opened: a run that
// lists or rejects its arguments leaves no empty CPU profile, recording
// or trace behind.
func TestArgumentsCheckedBeforeArtifacts(t *testing.T) {
	dir := t.TempDir()
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
	got, err := exec.Command(bin).Output()
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
