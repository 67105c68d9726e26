package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"xfm/internal/telemetry"
)

// validDump is the smallest recording checkTimeseries accepts; each
// case below damages one thing in a copy of it.
func validDump() telemetry.Dump {
	return telemetry.Dump{
		Schema: 1, Clock: "sim-ps", SimEvery: 64, Samples: 2, Ticks: 128,
		Series: []telemetry.SeriesDump{
			{Name: "ops_total", Kind: "counter", Metric: "ops_total",
				Points: []telemetry.Point{{T: 100, V: 3}, {T: 200, V: 0}}},
			{Name: "depth", Kind: "gauge", Metric: "depth",
				Points: []telemetry.Point{{T: 100, V: 1}, {T: 200, V: -1}}},
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
		damage  func(d *telemetry.Dump)
		require string
		exit    int
		want    string // substring of stderr on failure, of stdout on success
	}{
		{"valid", func(*telemetry.Dump) {}, "ops_total,depth", 0,
			"timeseries ok: clock sim-ps, 2 samples, 2 series, 4 points"},
		{"wall-clock", func(d *telemetry.Dump) { d.Clock = "wall-ns" }, "none", 1,
			`unknown clock "wall-ns"`},
		{"no-samples", func(d *telemetry.Dump) { d.Samples = 0 }, "none", 1,
			"no samples recorded"},
		{"non-monotonic", func(d *telemetry.Dump) { d.Series[1].Points[1].T = 100 }, "none", 1,
			`series "depth": non-monotonic timestamp 100 after 100 (point 1)`},
		{"negative-delta", func(d *telemetry.Dump) { d.Series[0].Points[1].V = -2 }, "none", 1,
			`series "ops_total": negative counter delta -2 at t=200`},
		{"duplicate", func(d *telemetry.Dump) { d.Series[1].Name = "ops_total" }, "none", 1,
			`duplicate series "ops_total"`},
		{"missing-required", func(*telemetry.Dump) {}, "ops_total,queue_depth", 1,
			"required series missing or empty: queue_depth"},
		// A histogram row is recorded only under suffixed names; it is
		// required by its own name, through each series' metric field.
		{"histogram-family", func(d *telemetry.Dump) {
			d.Series = append(d.Series, telemetry.SeriesDump{Name: "lat_ps_p50", Kind: "hist_p50", Metric: "lat_ps",
				Points: []telemetry.Point{{T: 100, V: 7}, {T: 200, V: 9}}})
		}, "ops_total,lat_ps", 0,
			"timeseries ok: clock sim-ps, 2 samples, 3 series, 6 points"},
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
