package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"xfm/internal/telemetry"
)

// A recording must not depend on -j: three NMA-driving experiments are
// recorded serially, at -j 4 and twice at the default, and every
// recording must match the serial one window for window.
func TestRecordingIndependentOfJobs(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "xfmbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	record := func(name string, flags ...string) *telemetry.Dump {
		path := filepath.Join(dir, name+".json")
		args := append(flags, "-timeseries-out", path, "emulator", "fig12", "energy")
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
	serial := record("j1", "-j", "1")
	if serial.Samples < 100 {
		t.Fatalf("serial recording has only %d samples; the experiments no longer drive the NMA", serial.Samples)
	}
	for _, c := range []struct {
		name  string
		flags []string
	}{
		{"j4", []string{"-j", "4"}},
		{"default-a", nil},
		{"default-b", nil},
	} {
		if diffs := telemetry.DiffDumps(serial, record(c.name, c.flags...)); len(diffs) > 0 {
			t.Errorf("%s diverges from -j 1 in %d place(s), first: %s", c.name, len(diffs), diffs[0])
		}
	}
}
