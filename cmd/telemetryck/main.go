// Command telemetryck validates observability artifacts produced by
// xfmbench/dramsim: a Chrome trace-event JSON file and a
// flight-recorder time-series dump (the recording, the one metric
// export). CI runs it after a smoke benchmark to keep the telemetry
// pipeline from silently rotting.
//
// Usage:
//
//	telemetryck [-trace FILE] [-require-nesting] [-timeseries FILE]
//	            [-require-series name,name,...] [-diff FILE,FILE]
//
// -require-nesting demands that the trace contains at least one NMA
// compress/decompress span strictly nested inside a refresh-window
// span on the same track (the paper's core claim, rendered on the
// timeline). -timeseries validates a dump written by -timeseries-out:
// schema version, the sim-ps clock, strictly monotonic timestamps
// within each series, non-negative counter-kind deltas, and (via
// -require-series) that each named catalogue row is the source of at
// least one series with a point — a histogram row is recorded as its
// _count/_sum/_p50/_p95/_p99 series. -require-series defaults to
// the rows the metric catalogue (internal/telemetry/catalogue.go)
// marks as required of every CI recording.
//
// -diff A,B is timeseriesdiff mode: compare two -timeseries-out dumps
// series-by-series and report the first divergent window of each,
// exiting nonzero on any difference. Sim-time recordings are
// bit-deterministic, so CI uses this to prove the NMA engine's idle
// fast-forward produces recordings identical to brute window stepping
// (xfmbench -nma-stepped; DESIGN §6b).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"xfm/internal/telemetry"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "telemetryck: "+format+"\n", args...)
	os.Exit(1)
}

// traceEvent is the subset of the Chrome trace-event schema we check.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// checkTrace parses the Chrome trace JSON and, when requireNesting is
// set, verifies at least one cat="nma" span lies strictly inside a
// refresh-window span on the same tid.
func checkTrace(path string, requireNesting bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		fail("%s: invalid JSON: %v", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		fail("%s: no trace events", path)
	}
	var windows, nmaSpans []traceEvent
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch {
		case ev.Name == "refresh-window":
			windows = append(windows, ev)
		case ev.Cat == "nma":
			nmaSpans = append(nmaSpans, ev)
		}
	}
	if !requireNesting {
		fmt.Printf("trace ok: %d events\n", len(tf.TraceEvents))
		return
	}
	if len(windows) == 0 {
		fail("%s: no refresh-window spans", path)
	}
	if len(nmaSpans) == 0 {
		fail("%s: no nma spans", path)
	}
	// Timestamps are picoseconds rendered as fractional microseconds, so
	// spans that share a window's edge can differ by a float ulp; one
	// picosecond of slack keeps the containment test exact in spirit.
	const eps = 1e-6
	nested := 0
	for _, s := range nmaSpans {
		for _, w := range windows {
			if s.Tid == w.Tid && s.Ts >= w.Ts-eps && s.Ts+s.Dur <= w.Ts+w.Dur+eps {
				nested++
				break
			}
		}
	}
	if nested == 0 {
		fail("%s: no nma span nests inside a refresh-window span", path)
	}
	fmt.Printf("trace ok: %d events, %d refresh windows, %d/%d nma spans nested\n",
		len(tf.TraceEvents), len(windows), nested, len(nmaSpans))
}

// readDump loads a recording through telemetry.ReadDump, the one
// reader: it rejects another schema, another clock, no samples and no
// series.
func readDump(path string) *telemetry.Dump {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	d, err := telemetry.ReadDump(f)
	if err != nil {
		fail("%s: %v", path, err)
	}
	return d
}

// checkTimeseries validates a flight-recorder dump: what ReadDump
// checks, then strictly monotonic timestamps within every series and
// non-negative values on counter-kind series (per-window deltas of
// monotone counters must never run backwards). requireSeries lists
// catalogue rows that must be the source (the series' metric field) of
// a series with at least one point.
func checkTimeseries(path, requireSeries string) {
	d := readDump(path)
	points := 0
	names := map[string]bool{}
	recorded := map[string]bool{} // source rows with a point
	for _, s := range d.Series {
		if s.Name == "" || s.Kind == "" || s.Metric == "" {
			fail("%s: series with empty name/kind/metric: %+v", path, s)
		}
		if names[s.Name] {
			fail("%s: duplicate series %q", path, s.Name)
		}
		names[s.Name] = true
		if len(s.Points) > 0 {
			recorded[s.Metric] = true
		}
		for i, p := range s.Points {
			points++
			if i > 0 && p.T <= s.Points[i-1].T {
				fail("%s: series %q: non-monotonic timestamp %d after %d (point %d)",
					path, s.Name, p.T, s.Points[i-1].T, i)
			}
			if s.Kind == telemetry.SeriesCounter && p.V < 0 {
				fail("%s: series %q: negative counter delta %g at t=%d",
					path, s.Name, p.V, p.T)
			}
			if s.Kind == telemetry.SeriesHCount && p.V < 0 {
				fail("%s: series %q: negative windowed count %g at t=%d",
					path, s.Name, p.V, p.T)
			}
		}
	}
	if requireSeries != "" {
		var missing []string
		for _, want := range strings.Split(requireSeries, ",") {
			want = strings.TrimSpace(want)
			if want == "" {
				continue
			}
			if !recorded[want] {
				missing = append(missing, want)
			}
		}
		if len(missing) > 0 {
			fail("%s: required series missing or empty: %s", path, strings.Join(missing, ", "))
		}
	}
	fmt.Printf("timeseries ok: clock %s, %d samples, %d series, %d points\n",
		d.Clock, d.Samples, len(d.Series), points)
}

// checkDiff is timeseriesdiff mode: load two recordings and report
// every series' first divergent window.
func checkDiff(arg string) {
	parts := strings.Split(arg, ",")
	if len(parts) != 2 || strings.TrimSpace(parts[0]) == "" || strings.TrimSpace(parts[1]) == "" {
		fail("-diff wants exactly two files: -diff A,B")
	}
	pathA, pathB := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	a, b := readDump(pathA), readDump(pathB)
	diffs := telemetry.DiffDumps(a, b)
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintf(os.Stderr, "telemetryck: diff: %s\n", d)
		}
		fail("%s and %s diverge in %d place(s)", pathA, pathB, len(diffs))
	}
	points := 0
	for _, s := range a.Series {
		points += len(s.Points)
	}
	fmt.Printf("timeseriesdiff ok: %d series, %d samples, %d points identical\n",
		len(a.Series), a.Samples, points)
}

func main() {
	traceOut := flag.String("trace", "", "Chrome trace-event JSON file to validate")
	requireNesting := flag.Bool("require-nesting", false, "require nma spans nested in refresh-window spans")
	timeseries := flag.String("timeseries", "", "flight-recorder time-series dump to validate")
	requireSeries := flag.String("require-series", strings.Join(telemetry.RequiredSeries(), ","), "comma-separated catalogue rows that must each source a series with a point in -timeseries (\"none\" disables)")
	diff := flag.String("diff", "", "compare two comma-separated time-series dumps and report each series' first divergent window")
	flag.Parse()

	if *traceOut == "" && *timeseries == "" && *diff == "" {
		fail("nothing to check: pass -trace, -timeseries, and/or -diff")
	}
	if *requireSeries == "none" {
		*requireSeries = ""
	}
	if *traceOut != "" {
		checkTrace(*traceOut, *requireNesting)
	}
	if *timeseries != "" {
		checkTimeseries(*timeseries, *requireSeries)
	}
	if *diff != "" {
		checkDiff(*diff)
	}
}
