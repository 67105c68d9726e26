package main

import (
	"encoding/json"
	"errors"
	"fmt"
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

// bin is the telemetryck binary TestMain builds once for every test.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "telemetryck-test")
	bin = filepath.Join(dir, "telemetryck")
	var out []byte
	if err == nil {
		out, err = exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	}
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building telemetryck: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run runs the binary with args and returns its exit status, stdout
// and stderr.
func run(t *testing.T, args ...string) (exit int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return exit, out.String(), errOut.String()
}

// TestTraceNesting runs -trace over small traces: at least one nma span
// must lie inside a refresh-window span on the same tid.
func TestTraceNesting(t *testing.T) {
	dir := t.TempDir()
	const (
		window = `{"name":"refresh-window","cat":"dram","ph":"X","ts":100,"dur":0.41,"pid":0,"tid":0}`
		meta   = `{"name":"thread_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"nma [0]"}}`
	)
	nma := func(ts float64, tid int) string {
		return fmt.Sprintf(`{"name":"compress","cat":"nma","ph":"X","ts":%g,"dur":0.1025,"pid":0,"tid":%d}`, ts, tid)
	}
	events := func(evs ...string) string {
		return `{"displayTimeUnit":"ms","traceEvents":[` + strings.Join(evs, ",\n") + `]}`
	}
	for _, c := range []struct {
		name, trace string
		exit        int
		want        string // substring of stdout on exit 0, of stderr otherwise
	}{
		{"nested", events(meta, window, nma(100.2, 0), nma(200, 0)), 0,
			"trace ok: 4 events, 1 refresh windows, 1/2 nma spans nested"},
		// A span sharing the window's edges nests: timestamps are
		// picoseconds rendered as fractional microseconds.
		{"nested-at-edges", events(window, nma(100, 0), nma(100.3075, 0)), 0,
			"2/2 nma spans nested"},
		{"outside-every-window", events(window, nma(100.35, 0), nma(99.95, 0)), 1,
			"no nma span nests inside a refresh-window span"},
		{"window-on-another-tid", events(window, nma(100.1, 1)), 1,
			"no nma span nests inside a refresh-window span"},
		{"no-refresh-windows", events(meta, nma(100.1, 0)), 1,
			"no refresh-window spans"},
		{"no-nma-spans", events(meta, window), 1,
			"no nma spans"},
		{"zero-events", events(), 1,
			"no trace events"},
		{"invalid-json", `{"traceEvents":[`, 1,
			"invalid JSON"},
	} {
		path := filepath.Join(dir, c.name+".json")
		if err := os.WriteFile(path, []byte(c.trace), 0o644); err != nil {
			t.Fatal(err)
		}
		exit, stdout, stderr := run(t, "-trace", path)
		got := stdout
		if c.exit != 0 {
			got = stderr
		}
		if exit != c.exit || !strings.Contains(got, c.want) {
			t.Errorf("%s: exit %d, want %d; output %q, want it to contain %q\nstdout: %s\nstderr: %s",
				c.name, exit, c.exit, got, c.want, stdout, stderr)
		}
	}
}

func TestTimeseriesValidation(t *testing.T) {
	dir := t.TempDir()

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
			exit, stdout, stderr := run(t, strings.Fields(strings.ReplaceAll(c.args, "$F", path))...)
			got := stdout
			if c.exit == 1 {
				got = stderr
			}
			if exit != c.exit || !strings.Contains(got, c.want) {
				t.Fatalf("exit %d, want %d; output %q, want it to contain %q\nstdout: %s\nstderr: %s",
					exit, c.exit, got, c.want, stdout, stderr)
			}
		})
	}
}
