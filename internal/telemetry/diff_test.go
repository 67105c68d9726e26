package telemetry

import (
	"strings"
	"testing"
)

func TestSimTickRangeMatchesSequentialTicks(t *testing.T) {
	// The bulk clock input must be indistinguishable from n sequential
	// SimTick calls when the caller lands the same per-tick counter
	// increments: same sample timestamps, same sampled values, same
	// tick count.
	run := func(bulk bool) *Dump {
		ctr := &Counter{}
		s := newSampler(64, []row{{name: "test_ops_total", kind: kindCounter, ctr: ctr}})
		s.SetSimEvery(4)
		s.Reset()
		s.SetEnabled(true)
		// A stepped prefix so the bulk range starts mid-period.
		for i := 1; i <= 2; i++ {
			ctr.Inc()
			s.SimTick(int64(i * 10))
		}
		const n, start, step = 21, 30, 10
		if bulk {
			s.SimTickRange(start, step, n, func(k int64) { ctr.Add(k) })
		} else {
			for i := int64(0); i < n; i++ {
				ctr.Inc()
				s.SimTick(start + i*step)
			}
		}
		return s.Dump()
	}
	a, b := run(false), run(true)
	if diffs := DiffDumps(a, b); len(diffs) != 0 {
		for _, d := range diffs {
			t.Errorf("diff: %s", d)
		}
		t.Fatal("bulk ticks diverge from sequential ticks")
	}
	if a.Ticks != 23 || a.Samples != 5 {
		t.Fatalf("ticks=%d samples=%d, want 23 ticks / 5 samples", a.Ticks, a.Samples)
	}
}

func TestSimTickRangeDisabledStillAdvances(t *testing.T) {
	s := newSampler(8, nil)
	s.SetSimEvery(4)
	// Disabled recorder: no ticks counted (mirrors SimTick), but the
	// caller's bulk advance must still run in full.
	var advanced int64
	s.SimTickRange(0, 1, 100, func(k int64) { advanced += k })
	if advanced != 100 {
		t.Fatalf("advance covered %d of 100 ticks with recorder disabled", advanced)
	}
	if got := s.Dump().Ticks; got != 0 {
		t.Fatalf("disabled recorder counted %d ticks", got)
	}
	// Enabled but sim sampling off (every ≤ 0): same contract.
	s.SetEnabled(true)
	s.SetSimEvery(0)
	advanced = 0
	s.SimTickRange(0, 1, 7, func(k int64) { advanced += k })
	if advanced != 7 {
		t.Fatalf("advance covered %d of 7 ticks with sim sampling off", advanced)
	}
	// Nil advance and non-positive n are no-ops.
	s.SetSimEvery(4)
	s.SimTickRange(0, 1, 3, nil)
	s.SimTickRange(0, 1, 0, func(int64) { t.Fatal("advance called for n=0") })
}

func dumpWith(points ...Point) *Dump {
	return &Dump{
		Schema: DumpSchemaVersion, Clock: ClockSimPs, SimEvery: 4,
		Samples: len(points), Ticks: int64(4 * len(points)),
		Series: []SeriesDump{{Name: "s", Kind: "counter", Metric: "m", Points: points}},
	}
}

func TestDiffDumpsIdentical(t *testing.T) {
	a := dumpWith(Point{T: 1, V: 2}, Point{T: 2, V: 3})
	b := dumpWith(Point{T: 1, V: 2}, Point{T: 2, V: 3})
	if diffs := DiffDumps(a, b); len(diffs) != 0 {
		t.Fatalf("identical dumps diverge: %v", diffs)
	}
}

func TestDiffDumpsFirstDivergentWindow(t *testing.T) {
	a := dumpWith(Point{T: 1, V: 2}, Point{T: 2, V: 3}, Point{T: 3, V: 4})
	b := dumpWith(Point{T: 1, V: 2}, Point{T: 2, V: 9}, Point{T: 3, V: 8})
	diffs := DiffDumps(a, b)
	if len(diffs) != 1 {
		t.Fatalf("got %d diffs, want 1 (first divergence only): %v", len(diffs), diffs)
	}
	if diffs[0].Series != "s" || diffs[0].T != 2 {
		t.Fatalf("first divergence = %+v, want series s at t=2", diffs[0])
	}
	if !strings.Contains(diffs[0].String(), "t=2") {
		t.Fatalf("String() misses timestamp: %s", diffs[0])
	}
}

func TestDiffDumpsStructuralAndMissingSeries(t *testing.T) {
	a := dumpWith(Point{T: 1, V: 2})
	b := dumpWith(Point{T: 1, V: 2})
	b.SimEvery = 8
	b.Ticks = 8
	b.Series[0].Name = "other"
	diffs := DiffDumps(a, b)
	var reasons []string
	for _, d := range diffs {
		reasons = append(reasons, d.String())
	}
	all := strings.Join(reasons, "\n")
	for _, want := range []string{"sampling period", "tick count", "missing from second", "missing from first"} {
		if !strings.Contains(all, want) {
			t.Errorf("diffs missing %q:\n%s", want, all)
		}
	}
	// Timestamp skew and point-count mismatches are each one finding.
	c := dumpWith(Point{T: 5, V: 2})
	if diffs := DiffDumps(a, c); len(diffs) != 1 || !strings.Contains(diffs[0].Reason, "timestamp") {
		t.Fatalf("timestamp skew diffs = %v", diffs)
	}
	d := dumpWith(Point{T: 1, V: 2}, Point{T: 2, V: 3})
	d.Samples, d.Ticks = a.Samples, a.Ticks // isolate the per-series finding
	if diffs := DiffDumps(a, d); len(diffs) != 1 || !strings.Contains(diffs[0].Reason, "point count") {
		t.Fatalf("point count diffs = %v", diffs)
	}
}
