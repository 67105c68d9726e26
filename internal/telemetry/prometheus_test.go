package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestWritePrometheusLabelEscaping pins the text-exposition escaping
// rules: backslash, double quote, and newline are the three characters
// the format requires escaping inside label values.
func TestWritePrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc_total", "Escaping.", "path")
	v.With(`C:\temp`).Inc()
	v.With(`say "hi"`).Add(2)
	v.With("line1\nline2").Add(3)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`esc_total{path="C:\\temp"} 1`,
		`esc_total{path="say \"hi\""} 2`,
		`esc_total{path="line1\nline2"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// The raw newline must not survive into the exposition: every
	// non-comment line still parses as `name{labels} value`.
	for i, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, " 1") && !strings.HasSuffix(line, " 2") && !strings.HasSuffix(line, " 3") {
			t.Errorf("line %d does not end in a value: %q", i+1, line)
		}
	}
}

// TestWritePrometheusEmptyHistogram: a registered histogram that never
// observed anything must still emit a complete, parseable block —
// zeroed buckets, zero sum and count, zero quantile estimates — rather
// than being skipped or emitting NaN.
func TestWritePrometheusEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("idle_ps", "Never observed.", []float64{1, 10})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`idle_ps_bucket{le="1"} 0`,
		`idle_ps_bucket{le="10"} 0`,
		`idle_ps_bucket{le="+Inf"} 0`,
		"idle_ps_sum 0",
		"idle_ps_count 0",
		"idle_ps_p50 0",
		"idle_ps_p95 0",
		"idle_ps_p99 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Fatalf("empty histogram leaked NaN:\n%s", out)
	}
}

// TestWritePrometheusGolden pins the full exposition byte-for-byte
// against testdata/golden.prom. Any intentional format change must
// regenerate the file (go test -run Golden -update ./internal/telemetry)
// and show up in review as a diff.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("golden_swaps_total", "Total swaps.").Add(42)
	r.Gauge("golden_depth", "Queue depth.").SetInt(7)
	r.GaugeFunc("golden_rate", "Derived ratio.", func() float64 { return 0.754 })
	h := r.Histogram("golden_lat_ps", "Latency.", []float64{10, 100, 1000})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	v := r.CounterVec("golden_ops_total", "Per-kind ops.", "kind")
	v.With("compress").Add(3)
	v.With("decompress").Add(4)
	hv := r.HistogramVec("golden_sz", "Per-shard sizes.", "shard", []float64{8, 64})
	hv.With("0").Observe(4)
	hv.With("1").Observe(32)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if b.String() != string(want) {
		t.Fatalf("exposition format drifted from %s (regenerate with -update if intentional)\n--- got ---\n%s--- want ---\n%s",
			golden, b.String(), want)
	}
}
