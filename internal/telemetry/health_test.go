package telemetry

import (
	"testing"
)

// mkDump builds a synthetic flight-recorder dump from name → values,
// with timestamps 1..n.
func mkDump(series map[string][]float64) *Dump {
	d := &Dump{Schema: DumpSchemaVersion, Clock: ClockSimPs}
	for name, vs := range series {
		sd := SeriesDump{Name: name, Kind: SeriesGauge, Metric: name}
		for i, v := range vs {
			sd.Points = append(sd.Points, Point{T: int64(i + 1), V: v})
		}
		if len(sd.Points) > d.Samples {
			d.Samples = len(sd.Points)
		}
		d.Series = append(d.Series, sd)
	}
	return d
}

func TestSeriesExprAggs(t *testing.T) {
	idx := mkDump(map[string][]float64{"x": {1, 4, 3, 2}}).Index()
	cases := []struct {
		window            int
		wantSum, wantPeak float64
	}{
		{0, 10, 4},
		{2, 5, 3},   // windowed: last two points
		{99, 10, 4}, // window larger than series: whole series
	}
	for _, c := range cases {
		if sum, peak, ok := window(idx, "x", c.window); !ok || sum != c.wantSum || peak != c.wantPeak {
			t.Errorf("window(x, %d) = (%g, %g, %v), want (%g, %g, true)", c.window, sum, peak, ok, c.wantSum, c.wantPeak)
		}
	}
	if _, _, ok := window(idx, "missing", 0); ok {
		t.Error("missing series folded as defined")
	}
}

func TestAddAndRatioExprs(t *testing.T) {
	slots := func(offered float64) map[string][]float64 {
		return map[string][]float64{
			"nma_queue_depth":                {3},
			"nma_conditional_accesses_total": {2},
			"nma_random_accesses_total":      {1},
			"nma_slots_offered_total":        {offered},
		}
	}
	if v, ok := slotUtilization(mkDump(slots(12)).Index()); !ok || v != 0.25 {
		t.Errorf("slot utilization = (%g, %v), want (0.25, true)", v, ok)
	}
	// Zero offered slots is undefined, not +Inf: a stormed window stays quiet.
	if v, ok := slotUtilization(mkDump(slots(0)).Index()); ok {
		t.Errorf("slot utilization over zero offered slots = %g, want undefined", v)
	}
	missing := slots(12)
	delete(missing, "nma_random_accesses_total")
	if v, ok := slotUtilization(mkDump(missing).Index()); ok {
		t.Errorf("slot utilization with a missing series = %g, want undefined", v)
	}
}

func TestRuleCheck(t *testing.T) {
	idx := mkDump(map[string][]float64{"v": {0.7}, "guard": {0}}).Index()
	last := func(name string) func(SeriesIndex) (float64, bool) {
		return func(idx SeriesIndex) (float64, bool) {
			v, _, ok := window(idx, name, 1)
			return v, ok
		}
	}
	above := rule{name: "a", value: last("v"), above: true, threshold: 0.5, sev: sevDegraded}
	if res := above.check(idx); !res.Active || !res.Firing || res.Value != 0.7 {
		t.Fatalf("above rule = %+v, want active firing 0.7", res)
	}
	below := rule{name: "b", value: last("v"), threshold: 0.5}
	if res := below.check(idx); !res.Active || res.Firing {
		t.Fatalf("below rule fired on 0.7 < 0.5: %+v", res)
	}
	// Undefined value: inactive, not firing.
	undef := rule{name: "u", value: last("missing"), above: true}
	if res := undef.check(idx); res.Active || res.Firing {
		t.Fatalf("undefined rule = %+v, want inactive", res)
	}
	// A guard at 0 keeps the rule inactive even though the value fires.
	guardedBy := func(guard string) func(SeriesIndex) (float64, bool) {
		return func(idx SeriesIndex) (float64, bool) {
			if _, g, ok := window(idx, guard, 1); !ok || g <= 0 {
				return 0, false
			}
			return last("v")(idx)
		}
	}
	guarded := above
	guarded.value = guardedBy("guard")
	if res := guarded.check(idx); res.Active || res.Firing {
		t.Fatalf("guarded rule = %+v, want inactive", res)
	}
	guarded.value = guardedBy("v") // positive guard
	if res := guarded.check(idx); !res.Firing {
		t.Fatalf("positively guarded rule = %+v, want firing", res)
	}
}

func TestMonitorEvaluateWorstSeverity(t *testing.T) {
	collapse := healthyBase()
	collapse["nma_conditional_accesses_total"] = []float64{0, 0, 0}
	collapse["nma_random_accesses_total"] = []float64{0, 0, 0}
	if h := Evaluate(mkDump(collapse)); h.Status != "DEGRADED" || h.Code != 1 {
		t.Fatalf("slot collapse alone = %+v, want DEGRADED", h)
	}
	collapse["xfm_ecc_uncorrectable_total"] = []float64{0, 1, 0}
	if h := Evaluate(mkDump(collapse)); h.Status != "CRITICAL" || h.Code != 2 {
		t.Fatalf("both rules = %+v, want CRITICAL", h)
	}
	h := Evaluate(mkDump(healthyBase()))
	if h.Status != "OK" || h.Code != 0 {
		t.Fatalf("neither rule = %+v, want OK", h)
	}
	if len(h.Checks) != len(rules) {
		t.Fatalf("Checks = %d, want %d", len(h.Checks), len(rules))
	}
}

// healthyBase is a synthetic recording of a well-behaved run: a busy
// accelerator with work queued and no ECC loss.
func healthyBase() map[string][]float64 {
	return map[string][]float64{
		"nma_conditional_accesses_total": {400, 400, 400},
		"nma_random_accesses_total":      {50, 50, 50},
		"nma_slots_offered_total":        {1000, 1000, 1000},
		"nma_queue_depth":                {4, 6, 5},
		"xfm_ecc_uncorrectable_total":    {0, 0, 0},
	}
}

func firing(h Health, name string) bool {
	for _, c := range h.Checks {
		if c.Rule == name {
			return c.Firing
		}
	}
	return false
}

func TestDefaultRulesScenarios(t *testing.T) {
	if h := Evaluate(mkDump(healthyBase())); h.Status != "OK" {
		t.Fatalf("healthy run = %+v, want OK", h)
	}

	collapse := healthyBase()
	collapse["nma_conditional_accesses_total"] = []float64{0, 0, 0}
	collapse["nma_random_accesses_total"] = []float64{0, 0, 0}
	if h := Evaluate(mkDump(collapse)); !firing(h, "slot-utilization-collapse") {
		t.Fatalf("slot collapse with queued work = %+v, want firing", h)
	}
	// Same collapse with an empty queue is benign idleness (guard).
	collapse["nma_queue_depth"] = []float64{0, 0, 0}
	if h := Evaluate(mkDump(collapse)); firing(h, "slot-utilization-collapse") {
		t.Fatalf("slot collapse on idle queue = %+v, want guarded off", h)
	}

	ecc := healthyBase()
	ecc["xfm_ecc_uncorrectable_total"] = []float64{0, 1, 0}
	if h := Evaluate(mkDump(ecc)); h.Status != "CRITICAL" || !firing(h, "ecc-uncorrectable") {
		t.Fatalf("uncorrectable ECC = %+v, want CRITICAL", h)
	}

	// Empty recording: everything inactive, verdict OK.
	if h := Evaluate(mkDump(map[string][]float64{})); h.Status != "OK" {
		t.Fatalf("empty recording = %+v, want OK", h)
	}
}
