package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"xfm/internal/telemetry"
)

func TestSparkline(t *testing.T) {
	series := func(vs ...float64) []telemetry.Point {
		pts := make([]telemetry.Point, len(vs))
		for i, v := range vs {
			pts[i] = telemetry.Point{T: int64(i), V: v}
		}
		return pts
	}
	cases := []struct {
		name  string
		pts   []telemetry.Point
		width int
		want  string
	}{
		{"width 1 is the last point, flat", series(0, 5, 10), 1, "▅"},
		{"width = len", series(0, 5, 10), 3, "▁▄█"},
		{"width > len", series(0, 5, 10), 60, "▁▄█"},
		{"width < len rescales to its window", series(100, 0, 10), 2, "▁█"},
		{"flat non-zero", series(7, 7, 7), 3, "▅▅▅"},
		{"all zero", series(0, 0), 2, "▁▁"},
		{"empty", nil, 4, ""},
	}
	for _, c := range cases {
		if got := sparkline(c.pts, c.width); got != c.want {
			t.Errorf("%s: sparkline = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestWidthRejected: a width that cannot hold a sample is a usage error
// (exit 2, like a missing -file), not a slice-bounds panic.
func TestWidthRejected(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "xfmtop")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, width := range []int{0, -1} {
		out, err := exec.Command(bin, "-file", "unopened.json", "-width", strconv.Itoa(width)).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-width %d: err = %v, want exit 2\n%s", width, err, out)
		}
	}
}
