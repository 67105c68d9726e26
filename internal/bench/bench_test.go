package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"xfm/internal/sfm"
)

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := []Result{
		{Name: "x", PagesPerSec: 123.5, NsPerOp: 4, AllocsPerOp: 5, CompressionRatio: 2.5, PagesPerOp: 256,
			GoMaxProcs:          8,
			IntervalPagesPerSec: []float64{120, 125, 124, 123}, SteadyStatePagesPerSec: 123.5},
		{Name: "y", PagesPerSec: 9, PagesPerOp: 256},
	}
	if err := WriteJSON(dir, in); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(in) {
		t.Fatalf("got %d files, want %d", len(paths), len(in))
	}
	for _, r := range in {
		data, err := os.ReadFile(filepath.Join(dir, "BENCH_"+r.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var got Result
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("round trip changed %s: %+v -> %+v", r.Name, r, got)
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
