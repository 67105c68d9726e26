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

	// ecc adds a recording of two uncorrectable ECC words, which the
	// ecc-uncorrectable health rule fires on.
	ecc := func(d *telemetry.Dump) {
		d.Series = append(d.Series, telemetry.SeriesDump{Name: "xfm_ecc_uncorrectable_total", Kind: "counter",
			Metric: "xfm_ecc_uncorrectable_total", Points: []telemetry.Point{{T: 100, V: 0}, {T: 200, V: 2}}})
	}
	cases := []struct {
		name   string
		damage func(d *telemetry.Dump)
		args   string // command line; $F is the damaged dump
		exit   int
		want   string // substring of stderr on exit 1, of stdout otherwise
	}{
		{"valid", func(*telemetry.Dump) {}, "-timeseries $F -require-series ops_total,depth", 0,
			"timeseries ok: clock sim-ps, 2 samples, 2 series, 4 points"},
		{"wall-clock", func(d *telemetry.Dump) { d.Clock = "wall-ns" }, "-timeseries $F -require-series none", 1,
			`unknown clock "wall-ns"`},
		{"no-samples", func(d *telemetry.Dump) { d.Samples = 0 }, "-timeseries $F -require-series none", 1,
			"no samples recorded"},
		{"non-monotonic", func(d *telemetry.Dump) { d.Series[1].Points[1].T = 100 }, "-timeseries $F -require-series none", 1,
			`series "depth": non-monotonic timestamp 100 after 100 (point 1)`},
		{"negative-delta", func(d *telemetry.Dump) { d.Series[0].Points[1].V = -2 }, "-timeseries $F -require-series none", 1,
			`series "ops_total": negative counter delta -2 at t=200`},
		{"duplicate", func(d *telemetry.Dump) { d.Series[1].Name = "ops_total" }, "-timeseries $F -require-series none", 1,
			`duplicate series "ops_total"`},
		{"missing-required", func(*telemetry.Dump) {}, "-timeseries $F -require-series ops_total,queue_depth", 1,
			"required series missing or empty: queue_depth"},
		// A histogram row is recorded only under suffixed names; it is
		// required by its own name, through each series' metric field.
		{"histogram-family", func(d *telemetry.Dump) {
			d.Series = append(d.Series, telemetry.SeriesDump{Name: "lat_ps_p50", Kind: "hist_p50", Metric: "lat_ps",
				Points: []telemetry.Point{{T: 100, V: 7}, {T: 200, V: 9}}})
		}, "-timeseries $F -require-series ops_total,lat_ps", 0,
			"timeseries ok: clock sim-ps, 2 samples, 3 series, 6 points"},
		// A valid recording gets the health verdict; one that is not OK
		// exits 3, but a failed check still wins with exit 1.
		{"health-ok", func(*telemetry.Dump) {}, "-timeseries $F -require-series none", 0,
			"HEALTH: OK\n    -- slot-utilization-collapse    (no data)\n    -- ecc-uncorrectable            (no data)\n"},
		{"health-critical", ecc, "-timeseries $F -require-series none", 3,
			"timeseries ok: clock sim-ps, 2 samples, 3 series, 6 points\nHEALTH: CRITICAL\n" +
				"    -- slot-utilization-collapse    (no data)\n  FIRE ecc-uncorrectable            value 2 vs threshold 0 [CRITICAL]\n"},
		{"health-critical-invalid", func(d *telemetry.Dump) { ecc(d); d.Series[1].Points[1].T = 100 }, "-timeseries $F -require-series none", 1,
			`series "depth": non-monotonic timestamp 100 after 100 (point 1)`},
		// A check flag without the artifact it checks is a usage error.
		{"nesting-without-trace", func(*telemetry.Dump) {}, "-require-nesting -timeseries $F", 1,
			"-require-nesting checks a trace: pass -trace"},
		{"require-series-without-timeseries", func(*telemetry.Dump) {}, "-diff $F,$F -require-series ops_total", 1,
			"-require-series checks a recording: pass -timeseries"},
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
			cmd := exec.Command(bin, strings.Fields(strings.ReplaceAll(c.args, "$F", path))...)
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
			got := stdout.String()
			if c.exit == 1 {
				got = stderr.String()
			}
			if exit != c.exit || !strings.Contains(got, c.want) {
				t.Fatalf("exit %d, want %d; output %q, want it to contain %q\nstdout: %s\nstderr: %s",
					exit, c.exit, got, c.want, stdout.String(), stderr.String())
			}
		})
	}
}
