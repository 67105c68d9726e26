package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// validDump is the smallest recording checkTimeseries accepts; each
// case below damages one thing in a copy of it.
func validDump() tsDump {
	return tsDump{
		Schema: 1, Clock: "sim-ps", SimEvery: 64, Samples: 2, Ticks: 128,
		Series: []tsSeries{
			{Name: "ops_total", Kind: "counter", Metric: "ops_total",
				Points: []tsPoint{{T: 100, V: 3}, {T: 200, V: 0}}},
			{Name: "depth", Kind: "gauge", Metric: "depth",
				Points: []tsPoint{{T: 100, V: 1}, {T: 200, V: -1}}},
		},
	}
}

func TestTimeseriesValidation(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "telemetryck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cases := []struct {
		name    string
		damage  func(d *tsDump)
		require string
		exit    int
		want    string // substring of stderr on failure, of stdout on success
	}{
		{"valid", func(*tsDump) {}, "ops_total,depth", 0,
			"timeseries ok: clock sim-ps, 2 samples, 2 series, 4 points"},
		{"wall-clock", func(d *tsDump) { d.Clock = "wall-ns" }, "none", 1,
			`unknown clock "wall-ns"`},
		{"non-monotonic", func(d *tsDump) { d.Series[1].Points[1].T = 100 }, "none", 1,
			`series "depth": non-monotonic timestamp 100 after 100 (point 1)`},
		{"negative-delta", func(d *tsDump) { d.Series[0].Points[1].V = -2 }, "none", 1,
			`series "ops_total": negative counter delta -2 at t=200`},
		{"duplicate", func(d *tsDump) { d.Series[1].Name = "ops_total" }, "none", 1,
			`duplicate series "ops_total"`},
		{"missing-required", func(*tsDump) {}, "ops_total,queue_depth", 1,
			"required series missing or empty: queue_depth"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := validDump()
			c.damage(&d)
			data, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, c.name+".json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(bin, "-timeseries", path, "-require-series", c.require)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err = cmd.Run()
			exit := 0
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			got := stderr.String()
			if c.exit == 0 {
				got = stdout.String()
			}
			if exit != c.exit || !strings.Contains(got, c.want) {
				t.Fatalf("exit %d, want %d; output %q, want it to contain %q\nstdout: %s\nstderr: %s",
					exit, c.exit, got, c.want, stdout.String(), stderr.String())
			}
		})
	}
}
