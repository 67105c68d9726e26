package telemetry

import (
	"encoding/json"
	"math"
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

// Each row's dumps differ in their JSON bytes, so DiffDumps must say how.
func TestDiffDumpsSeesWhatTheBytesShow(t *testing.T) {
	for want, mutate := range map[string]func(*Dump){
		"value differs: -0 vs 0":                     func(d *Dump) { d.Series[0].Points[0].V = math.Copysign(0, -1) },
		"series order differs at position 0: u vs s": func(d *Dump) { d.Series[0], d.Series[1] = d.Series[1], d.Series[0] },
		"metric differs: other vs m":                 func(d *Dump) { d.Series[0].Metric = "other" },
		"dropped count differs: 3 vs 0":              func(d *Dump) { d.Series[0].Dropped = 3 },
	} {
		a, b := dumpWith(Point{T: 1}), dumpWith(Point{T: 1})
		for _, d := range []*Dump{a, b} {
			d.Series = append(d.Series, SeriesDump{Name: "u", Kind: "gauge", Metric: "u"})
		}
		mutate(a)
		if diffs := DiffDumps(a, b); len(diffs) != 1 || !strings.Contains(diffs[0].String(), want) {
			t.Errorf("diffs = %v, want one containing %q", diffs, want)
		}
	}
}

// TestDiffDumpsAgreesWithJSON mutates copies of a sampler's recording
// (a counter, a gauge whose ring dropped points, a histogram family)
// field by field, series by series and point by point: DiffDumps must
// find a difference exactly when the two dumps' JSON differs.
func TestDiffDumpsAgreesWithJSON(t *testing.T) {
	ctr, g, h := &Counter{}, &Gauge{}, newHistogram([]float64{1, 10})
	s := newSampler(6, []row{{name: "test_ops_total", kind: kindCounter, ctr: ctr},
		{name: "test_depth", kind: kindGauge, gauge: g}, {name: "test_lat", kind: kindHistogram, hist: h}})
	s.SetSimEvery(2)
	s.Reset()
	s.SetEnabled(true)
	for i := int64(1); i <= 20; i++ {
		ctr.Add(i % 3)
		g.Set(float64(i%4) - 1)
		h.Observe(float64(i % 12))
		s.SimTick(10 * i)
	}
	rec := s.Dump()
	want, err := json.Marshal(rec)
	if err != nil || rec.Series[1].Dropped == 0 {
		t.Fatalf("recording: %v, gauge dropped %d points, want some", err, rec.Series[1].Dropped)
	}
	mutations := []func(*Dump){
		func(*Dump) {}, func(d *Dump) { d.Schema++ }, func(d *Dump) { d.Clock = "wall" },
		func(d *Dump) { d.SimEvery = 0 }, func(d *Dump) { d.Samples-- }, func(d *Dump) { d.Ticks++ },
		func(d *Dump) { d.Series = nil }, func(d *Dump) { d.Series = d.Series[1:] },
		func(d *Dump) { d.Series = append(d.Series, d.Series[0]) }, func(d *Dump) { d.Series[2] = d.Series[1] },
		func(d *Dump) { d.Series[3].Points = nil }, func(d *Dump) { d.Series[3].Points = d.Series[3].Points[:0] },
	}
	for i, sr := range rec.Series {
		next := (i + 1) % len(rec.Series)
		mutations = append(mutations, func(d *Dump) { d.Series[i], d.Series[next] = d.Series[next], d.Series[i] },
			func(d *Dump) { d.Series[i].Name += "_x" }, func(d *Dump) { d.Series[i].Kind += "_x" },
			func(d *Dump) { d.Series[i].Metric += "_x" }, func(d *Dump) { d.Series[i].Dropped = 1 - d.Series[i].Dropped })
		for j := range sr.Points {
			p := func(d *Dump) *Point { return &d.Series[i].Points[j] }
			mutations = append(mutations, func(d *Dump) { p(d).T++ }, func(d *Dump) { p(d).V = -p(d).V },
				func(d *Dump) { p(d).V = math.Nextafter(p(d).V, 1e9) }, func(d *Dump) { p(d).V += 0 })
		}
	}
	same := 0
	for k, m := range mutations {
		var b Dump
		if err := json.Unmarshal(want, &b); err != nil {
			t.Fatal(err)
		}
		m(&b)
		got, err := json.Marshal(&b)
		if err != nil {
			t.Fatal(err)
		}
		if diffs := DiffDumps(rec, &b); (len(diffs) == 0) != (string(got) == string(want)) {
			t.Errorf("mutation %d: JSON equal %v, DiffDumps %v", k, string(got) == string(want), diffs)
		} else if len(diffs) == 0 {
			same++
		}
	}
	if same == 0 || same == len(mutations) {
		t.Fatalf("%d of %d mutations kept the JSON; the check needs both kinds", same, len(mutations))
	}
	// An empty list encodes as null when nil and as [] otherwise.
	if len(DiffDumps(&Dump{}, &Dump{Series: []SeriesDump{}})) == 0 ||
		len(DiffDumps(&Dump{Series: []SeriesDump{{}}}, &Dump{Series: []SeriesDump{{Points: []Point{}}}})) == 0 {
		t.Error("DiffDumps finds no difference between a null list and an empty one")
	}
}
