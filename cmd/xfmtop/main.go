// Command xfmtop renders a flight-recorder dump (written by
// `xfmbench -timeseries-out`) as a terminal report: every recorded
// series as a sparkline with its last/min/max, below the verdict of
// the health rules evaluated over the same dump.
//
// Usage:
//
//	xfmtop -file timeseries.json [-width 60] [-filter substr]
//	       [-health-exit]
//
// -health-exit exits 3 when the health verdict is DEGRADED or
// CRITICAL, so a script can gate on a recording's health.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"xfm/internal/telemetry"
)

var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the last width points scaled to min..max.
func sparkline(pts []telemetry.Point, width int) string {
	if len(pts) == 0 {
		return ""
	}
	if len(pts) > width {
		pts = pts[len(pts)-width:]
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		if p.V < lo {
			lo = p.V
		}
		if p.V > hi {
			hi = p.V
		}
	}
	var b strings.Builder
	for _, p := range pts {
		i := 0
		if hi > lo {
			i = int((p.V - lo) / (hi - lo) * float64(len(sparkLevels)-1))
		} else if p.V != 0 {
			i = len(sparkLevels) / 2
		}
		if i < 0 {
			i = 0
		}
		if i >= len(sparkLevels) {
			i = len(sparkLevels) - 1
		}
		b.WriteRune(sparkLevels[i])
	}
	return b.String()
}

// fmtVal renders a value compactly (counts and rates share columns).
func fmtVal(v float64) string {
	av := math.Abs(v)
	switch {
	case v == math.Trunc(v) && av < 1e7:
		return fmt.Sprintf("%d", int64(v))
	case av >= 1e6 || (av < 1e-3 && av > 0):
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func seriesStats(pts []telemetry.Point) (last, min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		if p.V < min {
			min = p.V
		}
		if p.V > max {
			max = p.V
		}
	}
	if len(pts) > 0 {
		last = pts[len(pts)-1].V
	}
	return last, min, max
}

// render writes the report.
func render(w io.Writer, d *telemetry.Dump, h telemetry.Health, src string, width int, filter string) {
	clockDesc := d.Clock
	if d.SimEvery > 0 {
		clockDesc = fmt.Sprintf("%s · every %d windows", d.Clock, d.SimEvery)
	}
	fmt.Fprintf(w, "xfmtop — XFM flight recorder · %s\n", src)
	fmt.Fprintf(w, "clock %s · %d samples · %d ticks\n\n", clockDesc, d.Samples, d.Ticks)

	fmt.Fprintf(w, "HEALTH: %s\n", h.Status)
	for _, c := range h.Checks {
		mark, detail := " ok", ""
		switch {
		case c.Firing:
			mark = "FIRE"
			detail = fmt.Sprintf("value %s vs threshold %s [%s]",
				fmtVal(c.Value), fmtVal(c.Threshold), c.Severity)
		case !c.Active:
			mark = "  --"
			detail = "(no data)"
		default:
			detail = fmt.Sprintf("value %s, threshold %s", fmtVal(c.Value), fmtVal(c.Threshold))
		}
		fmt.Fprintf(w, "  %-4s %-28s %s\n", mark, c.Rule, detail)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "%-34s %10s %10s %10s  %s\n", "SERIES", "last", "min", "max", "trajectory")
	for _, s := range d.Series {
		if filter != "" && !strings.Contains(s.Name, filter) {
			continue
		}
		if len(s.Points) == 0 {
			continue
		}
		last, min, max := seriesStats(s.Points)
		fmt.Fprintf(w, "%-34s %10s %10s %10s  %s\n",
			s.Name, fmtVal(last), fmtVal(min), fmtVal(max), sparkline(s.Points, width))
	}
}

func main() {
	file := flag.String("file", "", "recorded time-series dump to render")
	width := flag.Int("width", 60, "sparkline width in samples")
	filter := flag.String("filter", "", "only show series whose name contains this substring")
	healthExit := flag.Bool("health-exit", false, "exit 3 when the health verdict is DEGRADED or CRITICAL")
	flag.Parse()

	if *file == "" {
		fmt.Fprintln(os.Stderr, "xfmtop: pass -file FILE")
		os.Exit(2)
	}
	if *width < 1 {
		fmt.Fprintln(os.Stderr, "xfmtop: -width must be at least 1")
		os.Exit(2)
	}
	f, err := os.Open(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xfmtop:", err)
		os.Exit(1)
	}
	d, err := telemetry.ReadDump(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "xfmtop:", err)
		os.Exit(1)
	}
	h := telemetry.Evaluate(d)
	render(os.Stdout, d, h, *file, *width, *filter)
	if *healthExit && h.Code != 0 {
		fmt.Fprintf(os.Stderr, "xfmtop: health %s (-health-exit)\n", h.Status)
		os.Exit(3)
	}
}
