// Command telemetryck validates observability artifacts produced by
// xfmbench/dramsim: a Prometheus text-exposition metrics file, a
// Chrome trace-event JSON file, and a flight-recorder time-series
// dump. CI runs it after a smoke benchmark to keep the telemetry
// pipeline from silently rotting.
//
// Usage:
//
//	telemetryck [-metrics FILE] [-trace FILE] [-require name,name,...]
//	            [-require-nesting] [-timeseries FILE]
//	            [-require-series name,name,...] [-diff FILE,FILE]
//
// -require lists metric names that must appear with at least one
// sample; it and -require-series default to the rows the metric
// catalogue (internal/telemetry/catalogue.go) marks as required of
// every CI artifact. -require-nesting demands that the trace contains
// at least one NMA compress/decompress span strictly nested inside a
// refresh-window span on the same track (the paper's core claim,
// rendered on the timeline). -timeseries validates a dump written by
// -timeseries-out: schema version, the sim-ps clock, strictly
// monotonic timestamps within each series, non-negative counter-kind
// deltas, and (via -require-series) the presence of named series with
// at least one point.
//
// -diff A,B is timeseriesdiff mode: compare two -timeseries-out dumps
// series-by-series and report the first divergent window of each,
// exiting nonzero on any difference. Sim-time recordings are
// bit-deterministic, so CI uses this to prove the NMA engine's idle
// fast-forward produces recordings identical to brute window stepping
// (xfmbench -nma-stepped; DESIGN §6b).
package main

import (
	"bufio"
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

// checkMetrics parses a Prometheus text-format file: every non-comment
// line must be `name{labels} value` or `name value`, every HELP/TYPE
// comment well-formed. Returns the set of sample metric names, with
// histogram suffixes (_bucket/_sum/_count) folded onto the base name.
func checkMetrics(path string) map[string]int {
	f, err := os.Open(path)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()

	names := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.Fields(line)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				fail("%s:%d: malformed comment %q", path, lineNo, line)
			}
			continue
		}
		// Sample line: name[{label="value"}] value
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if name == "" {
			fail("%s:%d: empty metric name", path, lineNo)
		}
		rest := line[len(name):]
		if i := strings.LastIndex(rest, " "); i >= 0 {
			val := rest[i+1:]
			if val == "" {
				fail("%s:%d: missing value", path, lineNo)
			}
		} else {
			fail("%s:%d: no value on sample line", path, lineNo)
		}
		for _, suf := range []string{"_bucket", "_sum", "_count", "_p50", "_p95", "_p99"} {
			if strings.HasSuffix(name, suf) {
				name = strings.TrimSuffix(name, suf)
				break
			}
		}
		names[name]++
	}
	if err := sc.Err(); err != nil {
		fail("%s: %v", path, err)
	}
	if len(names) == 0 {
		fail("%s: no samples found", path)
	}
	return names
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

// The time-series mirror structs are deliberately independent of
// internal/telemetry: the validator re-declares the artifact contract
// so a producer-side schema drift fails here instead of silently
// round-tripping.
type tsPoint struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

type tsSeries struct {
	Name    string    `json:"name"`
	Kind    string    `json:"kind"`
	Metric  string    `json:"metric"`
	Dropped int64     `json:"dropped"`
	Points  []tsPoint `json:"points"`
}

type tsDump struct {
	Schema   int        `json:"schema"`
	Clock    string     `json:"clock"`
	SimEvery int64      `json:"sim_every"`
	Samples  int        `json:"samples"`
	Ticks    int64      `json:"ticks"`
	Series   []tsSeries `json:"series"`
}

// checkTimeseries validates a flight-recorder dump: schema version 1,
// the simulated-time clock, at least one sample, strictly monotonic
// timestamps within every series, and non-negative values on
// counter-kind series (per-window deltas of monotone counters must
// never run backwards). requireSeries lists series names that must be
// present with at least one point.
func checkTimeseries(path, requireSeries string) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail("%v", err)
	}
	var d tsDump
	if err := json.Unmarshal(data, &d); err != nil {
		fail("%s: invalid JSON: %v", path, err)
	}
	if d.Schema != 1 {
		fail("%s: unsupported schema %d, want 1", path, d.Schema)
	}
	if d.Clock != "sim-ps" {
		fail("%s: unknown clock %q, want sim-ps", path, d.Clock)
	}
	if d.Samples <= 0 {
		fail("%s: no samples recorded", path)
	}
	if len(d.Series) == 0 {
		fail("%s: no series recorded", path)
	}
	points := 0
	byName := map[string]tsSeries{}
	for _, s := range d.Series {
		if s.Name == "" || s.Kind == "" || s.Metric == "" {
			fail("%s: series with empty name/kind/metric: %+v", path, s)
		}
		if _, dup := byName[s.Name]; dup {
			fail("%s: duplicate series %q", path, s.Name)
		}
		byName[s.Name] = s
		for i, p := range s.Points {
			points++
			if i > 0 && p.T <= s.Points[i-1].T {
				fail("%s: series %q: non-monotonic timestamp %d after %d (point %d)",
					path, s.Name, p.T, s.Points[i-1].T, i)
			}
			if s.Kind == "counter" && p.V < 0 {
				fail("%s: series %q: negative counter delta %g at t=%d",
					path, s.Name, p.V, p.T)
			}
			if s.Kind == "hist_count" && p.V < 0 {
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
			if s, ok := byName[want]; !ok || len(s.Points) == 0 {
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
// every series' first divergent window. Unlike the validators above it
// deliberately reuses internal/telemetry's reader and comparator — the
// diff checks the *engine's* determinism contract, not the artifact
// schema, so both sides must be parsed exactly as the producer wrote
// them.
func checkDiff(arg string) {
	parts := strings.Split(arg, ",")
	if len(parts) != 2 || strings.TrimSpace(parts[0]) == "" || strings.TrimSpace(parts[1]) == "" {
		fail("-diff wants exactly two files: -diff A,B")
	}
	pathA, pathB := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	read := func(path string) *telemetry.Dump {
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
	a, b := read(pathA), read(pathB)
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
	metrics := flag.String("metrics", "", "Prometheus text metrics file to validate")
	traceOut := flag.String("trace", "", "Chrome trace-event JSON file to validate")
	require := flag.String("require", strings.Join(telemetry.RequiredMetrics(), ","), "comma-separated metric names that must be present (\"none\" disables)")
	requireNesting := flag.Bool("require-nesting", false, "require nma spans nested in refresh-window spans")
	timeseries := flag.String("timeseries", "", "flight-recorder time-series dump to validate")
	requireSeries := flag.String("require-series", strings.Join(telemetry.RequiredSeries(), ","), "comma-separated series names that must be present in -timeseries (\"none\" disables)")
	diff := flag.String("diff", "", "compare two comma-separated time-series dumps and report each series' first divergent window")
	flag.Parse()

	if *metrics == "" && *traceOut == "" && *timeseries == "" && *diff == "" {
		fail("nothing to check: pass -metrics, -trace, -timeseries, and/or -diff")
	}
	if *require == "none" {
		*require = ""
	}
	if *requireSeries == "none" {
		*requireSeries = ""
	}
	if *metrics != "" {
		names := checkMetrics(*metrics)
		if *require != "" {
			var missing []string
			for _, want := range strings.Split(*require, ",") {
				want = strings.TrimSpace(want)
				if want != "" && names[want] == 0 {
					missing = append(missing, want)
				}
			}
			if len(missing) > 0 {
				fail("%s: required metrics missing: %s", *metrics, strings.Join(missing, ", "))
			}
		}
		fmt.Printf("metrics ok: %d metric names\n", len(names))
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
