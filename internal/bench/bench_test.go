package bench

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"xfm/internal/sfm"
)

func baselineOf(rs ...Result) Baseline { return Baseline{Scenarios: rs} }

func TestGatePassesWithinThreshold(t *testing.T) {
	b := baselineOf(Result{Name: "a", PagesPerSec: 1000})
	lines, err := Gate(b, []Result{{Name: "a", PagesPerSec: 810}}, 0.20)
	if err != nil {
		t.Fatalf("gate failed: %v", err)
	}
	if len(lines) != 1 {
		t.Fatalf("got %d report lines, want 1", len(lines))
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	b := baselineOf(Result{Name: "a", PagesPerSec: 1000})
	_, err := Gate(b, []Result{{Name: "a", PagesPerSec: 799}}, 0.20)
	if err == nil {
		t.Fatal("gate passed a 20.1% regression")
	}
	if !strings.Contains(err.Error(), "below the") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestGateFailsOnMissingScenario(t *testing.T) {
	b := baselineOf(Result{Name: "a", PagesPerSec: 1000}, Result{Name: "b", PagesPerSec: 500})
	if _, err := Gate(b, []Result{{Name: "a", PagesPerSec: 1000}}, 0.20); err == nil {
		t.Fatal("gate passed with scenario b missing from results")
	}
	if _, err := Gate(b, []Result{
		{Name: "a", PagesPerSec: 1000},
		{Name: "b", PagesPerSec: 500},
		{Name: "c", PagesPerSec: 1},
	}, 0.20); err == nil {
		t.Fatal("gate passed with scenario c missing from baseline")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := []Result{
		{Name: "x", PagesPerSec: 123.5, NsPerOp: 4, AllocsPerOp: 5, CompressionRatio: 2.5, PagesPerOp: 256,
			GoMaxProcs: 8, GoVersion: "go1.24.0", Workers: 4, Shards: 16,
			IntervalPagesPerSec: []float64{120, 125, 124, 123}, SteadyStatePagesPerSec: 123.5},
		{Name: "y", PagesPerSec: 9, PagesPerOp: 256},
	}
	if err := WriteJSON(dir, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSON(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d results, want %d", len(out), len(in))
	}
	seen := map[string]Result{}
	for _, r := range out {
		seen[r.Name] = r
	}
	for _, r := range in {
		if !reflect.DeepEqual(seen[r.Name], r) {
			t.Fatalf("round trip changed %s: %+v -> %+v", r.Name, r, seen[r.Name])
		}
	}
}

func TestIntervalRates(t *testing.T) {
	// 32 ops at a constant 1ms each with 256 pages/op: every interval
	// reads 256000 pages/s.
	opNs := make([]int64, 32)
	for i := range opNs {
		opNs[i] = 1e6
	}
	rates := intervalRates(opNs, 256)
	if len(rates) != benchIntervals {
		t.Fatalf("got %d intervals, want %d", len(rates), benchIntervals)
	}
	for i, r := range rates {
		if math.Abs(r-256000) > 1e-6 {
			t.Fatalf("interval %d = %g pages/s, want 256000", i, r)
		}
	}
	// Fewer ops than intervals: one interval per op.
	if got := intervalRates(opNs[:3], 256); len(got) != 3 {
		t.Fatalf("3 ops produced %d intervals, want 3", len(got))
	}
	if intervalRates(nil, 256) != nil {
		t.Fatal("empty input produced intervals")
	}
	// A warmup ramp shows up: first half slow, last half fast.
	ramp := make([]int64, 32)
	for i := range ramp {
		if i < 16 {
			ramp[i] = 2e6
		} else {
			ramp[i] = 1e6
		}
	}
	rr := intervalRates(ramp, 256)
	if rr[0] >= rr[len(rr)-1] {
		t.Fatalf("ramp not visible: first %g, last %g", rr[0], rr[len(rr)-1])
	}
}

func TestSteadyState(t *testing.T) {
	if got := steadyState([]float64{100, 200, 300, 400}); got != 350 {
		t.Fatalf("steadyState = %g, want 350 (mean of last half)", got)
	}
	if got := steadyState([]float64{42}); got != 42 {
		t.Fatalf("single interval steadyState = %g, want 42", got)
	}
	if got := steadyState(nil); got != 0 {
		t.Fatalf("empty steadyState = %g, want 0", got)
	}
}

func TestSteadyStateWarnings(t *testing.T) {
	flat := Result{Name: "flat", PagesPerSec: 1000, SteadyStatePagesPerSec: 1050,
		IntervalPagesPerSec: []float64{900, 1000, 1050, 1050}}
	if w := SteadyStateWarnings([]Result{flat}); len(w) != 0 {
		t.Fatalf("5%% divergence warned: %v", w)
	}
	ramp := Result{Name: "ramp", PagesPerSec: 1000, SteadyStatePagesPerSec: 1300,
		IntervalPagesPerSec: []float64{500, 800, 1200, 1400}}
	w := SteadyStateWarnings([]Result{ramp})
	if len(w) != 1 || !strings.Contains(w[0], "not in steady state") {
		t.Fatalf("30%% divergence should warn once, got %v", w)
	}
	// Too few intervals to judge: stay quiet.
	short := ramp
	short.IntervalPagesPerSec = []float64{500, 1400}
	if w := SteadyStateWarnings([]Result{short}); len(w) != 0 {
		t.Fatalf("2-interval run warned: %v", w)
	}
	// Results predating the trajectory fields: stay quiet.
	if w := SteadyStateWarnings([]Result{{Name: "old", PagesPerSec: 1000}}); len(w) != 0 {
		t.Fatalf("legacy result warned: %v", w)
	}
}

func TestEnvWarnings(t *testing.T) {
	base := baselineOf(Result{Name: "a", GoMaxProcs: 8, GoVersion: "go1.24.0", Workers: 0, Shards: 16})
	same := Result{Name: "a", GoMaxProcs: 8, GoVersion: "go1.24.0", Workers: 0, Shards: 16}
	if w := EnvWarnings(base, []Result{same}); len(w) != 0 {
		t.Fatalf("matching environments warned: %v", w)
	}

	mism := same
	mism.GoMaxProcs = 1
	w := EnvWarnings(base, []Result{mism})
	if len(w) != 1 || !strings.Contains(w[0], "GOMAXPROCS mismatch") {
		t.Fatalf("GOMAXPROCS 8 vs 1 should warn once, got %v", w)
	}

	old := baselineOf(Result{Name: "a"}) // pre-environment baseline
	w = EnvWarnings(old, []Result{same})
	if len(w) != 1 || !strings.Contains(w[0], "predates environment recording") {
		t.Fatalf("zero-GoMaxProcs baseline should warn, got %v", w)
	}

	cfg := same
	cfg.Workers = 4
	cfg.GoVersion = "go1.25.0"
	w = EnvWarnings(base, []Result{cfg})
	if len(w) != 2 {
		t.Fatalf("version + config mismatch should warn twice, got %v", w)
	}

	// Scenarios missing from the results are the Gate's problem.
	if w := EnvWarnings(base, nil); len(w) != 0 {
		t.Fatalf("missing scenario warned: %v", w)
	}
}

func TestSkewedIDsAllOnOneShard(t *testing.T) {
	if len(skewedIDs) != benchPages {
		t.Fatalf("got %d skewed ids, want %d", len(skewedIDs), benchPages)
	}
	seen := map[sfm.PageID]bool{}
	for _, id := range skewedIDs {
		if si := sfm.ShardIndexFor(id, benchShards); si != 0 {
			t.Fatalf("id %d routes to shard %d, want 0", id, si)
		}
		if seen[id] {
			t.Fatalf("id %d appears twice", id)
		}
		seen[id] = true
	}
}

func TestScenarioNamesStable(t *testing.T) {
	want := []string{
		"swap_serial_xdeflate",
		"swap_serial_lzfast",
		"swap_parallel_xdeflate",
		"swap_sharded_lzfast",
		"swap_skewed_lzfast",
		"nma_window_sweep",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// Names lists the available scenario names in run order.
func Names() []string {
	ss := scenarios()
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.name
	}
	return out
}
