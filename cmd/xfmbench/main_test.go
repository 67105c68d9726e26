package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
// lists or rejects its arguments leaves no empty CPU profile behind.
func TestArgumentsCheckedBeforeArtifacts(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir)
	prof := filepath.Join(dir, "cpu.prof")
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-cpuprofile", prof, "nosuch"}, 2},
		{[]string{"-cpuprofile", prof, "-list"}, 0},
	} {
		err := exec.Command(bin, c.args...).Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if code != c.code {
			t.Errorf("xfmbench %v exited %d, want %d", c.args, code, c.code)
		}
		if _, err := os.Stat(prof); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("xfmbench %v left %s behind (stat: %v)", c.args, prof, err)
			os.Remove(prof)
		}
	}
}
