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
	idx := mkDump(map[string][]float64{"x": {1, 2, 3, 4}}).Index()
	cases := []struct {
		agg    Agg
		window int
		want   float64
	}{
		{AggLast, 0, 4},
		{AggSum, 0, 10},
		{AggMean, 0, 2.5},
		{AggMax, 0, 4},
		{AggMin, 0, 1},
		{AggSum, 2, 7},   // windowed: last two points
		{AggMin, 2, 3},   // windowed min
		{AggSum, 99, 10}, // window larger than series: whole series
	}
	for _, c := range cases {
		v, ok := SeriesExpr("x", c.agg, c.window).Eval(idx)
		if !ok || v != c.want {
			t.Errorf("SeriesExpr(x, %v, %d) = (%g, %v), want (%g, true)", c.agg, c.window, v, ok, c.want)
		}
	}
	if _, ok := SeriesExpr("missing", AggLast, 0).Eval(idx); ok {
		t.Error("missing series evaluated as defined")
	}
}

func TestConstExpr(t *testing.T) {
	if v, ok := ConstExpr(3.5).Eval(nil); !ok || v != 3.5 {
		t.Fatalf("ConstExpr = (%g, %v), want (3.5, true)", v, ok)
	}
}

func TestAddAndRatioExprs(t *testing.T) {
	idx := mkDump(map[string][]float64{"a": {2}, "b": {6}, "z": {0}}).Index()
	if v, ok := AddExpr(SeriesExpr("a", AggLast, 0), SeriesExpr("b", AggLast, 0)).Eval(idx); !ok || v != 8 {
		t.Errorf("AddExpr = (%g, %v), want (8, true)", v, ok)
	}
	if _, ok := AddExpr(SeriesExpr("a", AggLast, 0), SeriesExpr("missing", AggLast, 0)).Eval(idx); ok {
		t.Error("AddExpr with undefined operand evaluated as defined")
	}
	if v, ok := RatioExpr(SeriesExpr("b", AggLast, 0), SeriesExpr("a", AggLast, 0)).Eval(idx); !ok || v != 3 {
		t.Errorf("RatioExpr = (%g, %v), want (3, true)", v, ok)
	}
	// Zero denominator is undefined, not +Inf: idle systems stay quiet.
	if _, ok := RatioExpr(SeriesExpr("b", AggLast, 0), SeriesExpr("z", AggLast, 0)).Eval(idx); ok {
		t.Error("RatioExpr with zero denominator evaluated as defined")
	}
}

func TestRuleCheck(t *testing.T) {
	idx := mkDump(map[string][]float64{"v": {0.7}, "guard": {0}}).Index()
	above := Rule{Name: "a", Value: SeriesExpr("v", AggLast, 0), Above: true, Threshold: 0.5, Severity: SevDegraded}
	if res := above.Check(idx); !res.Active || !res.Firing || res.Value != 0.7 {
		t.Fatalf("above rule = %+v, want active firing 0.7", res)
	}
	below := Rule{Name: "b", Value: SeriesExpr("v", AggLast, 0), Above: false, Threshold: 0.5}
	if res := below.Check(idx); res.Firing {
		t.Fatalf("below rule fired on 0.7 < 0.5: %+v", res)
	}
	// Undefined value: inactive, not firing.
	undef := Rule{Name: "u", Value: SeriesExpr("missing", AggLast, 0), Above: true}
	if res := undef.Check(idx); res.Active || res.Firing {
		t.Fatalf("undefined rule = %+v, want inactive", res)
	}
	// Guard at 0 keeps the rule inactive even though the value fires.
	guarded := above
	guarded.Guard = SeriesExpr("guard", AggLast, 0)
	if res := guarded.Check(idx); res.Active || res.Firing {
		t.Fatalf("guarded rule = %+v, want inactive", res)
	}
	guarded.Guard = SeriesExpr("v", AggLast, 0) // positive guard
	if res := guarded.Check(idx); !res.Firing {
		t.Fatalf("positively guarded rule = %+v, want firing", res)
	}
}

func TestMonitorEvaluateWorstSeverity(t *testing.T) {
	rules := []Rule{
		{Name: "deg", Value: SeriesExpr("x", AggLast, 0), Above: true, Threshold: 0, Severity: SevDegraded},
		{Name: "crit", Value: SeriesExpr("y", AggLast, 0), Above: true, Threshold: 0, Severity: SevCritical},
	}
	m := NewMonitor(rules...)
	g := &Gauge{}
	m.SetGauge(g)

	h := m.Evaluate(mkDump(map[string][]float64{"x": {1}, "y": {0}}))
	if h.Status != "DEGRADED" || h.Code != 1 || g.Value() != 1 {
		t.Fatalf("degraded verdict = %+v gauge=%g", h, g.Value())
	}
	h = m.Evaluate(mkDump(map[string][]float64{"x": {1}, "y": {1}}))
	if h.Status != "CRITICAL" || h.Code != 2 || g.Value() != 2 {
		t.Fatalf("critical verdict = %+v gauge=%g", h, g.Value())
	}
	h = m.Evaluate(mkDump(map[string][]float64{"x": {0}, "y": {0}}))
	if h.Status != "OK" || h.Code != 0 || g.Value() != 0 {
		t.Fatalf("ok verdict = %+v gauge=%g", h, g.Value())
	}
	if len(h.Checks) != 2 {
		t.Fatalf("Checks = %d, want 2", len(h.Checks))
	}
}

// healthyBase is a synthetic recording of a well-behaved run: mostly
// offloads, busy accelerator, no ECC loss, promotion in the validated
// band.
func healthyBase() map[string][]float64 {
	return map[string][]float64{
		"xfm_offloads_total":              {100, 100, 100},
		"xfm_fallbacks_total":             {2, 3, 2},
		"nma_conditional_accesses_total":  {400, 400, 400},
		"nma_random_accesses_total":       {50, 50, 50},
		"nma_slots_offered_total":         {1000, 1000, 1000},
		"nma_queue_depth":                 {4, 6, 5},
		"memctrl_queue_full_stalls_total": {0, 1, 0},
		"xfm_ecc_uncorrectable_total":     {0, 0, 0},
		"sfm_promotion_rate":              {0.74, 0.75, 0.75},
	}
}

func evalDefault(t *testing.T, series map[string][]float64) Health {
	t.Helper()
	return NewMonitor().Evaluate(mkDump(series))
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
	if h := evalDefault(t, healthyBase()); h.Status != "OK" {
		t.Fatalf("healthy run = %+v, want OK", h)
	}

	spike := healthyBase()
	spike["xfm_fallbacks_total"] = []float64{100, 150, 200}
	if h := evalDefault(t, spike); h.Status != "DEGRADED" || !firing(h, "fallback-rate-spike") {
		t.Fatalf("fallback spike = %+v, want DEGRADED via fallback-rate-spike", h)
	}

	saturated := healthyBase()
	saturated["xfm_offloads_total"] = []float64{1, 1, 1}
	saturated["xfm_fallbacks_total"] = []float64{200, 200, 200}
	if h := evalDefault(t, saturated); h.Status != "CRITICAL" || !firing(h, "fallback-rate-saturated") {
		t.Fatalf("fallback saturation = %+v, want CRITICAL", h)
	}

	// A few stray fallbacks on an idle tail (no offload volume) must
	// not read as an accelerator outage: the traffic guard holds both
	// rate rules inactive below minRateSwaps swaps per window.
	idleTail := healthyBase()
	idleTail["xfm_offloads_total"] = []float64{0, 0, 0}
	idleTail["xfm_fallbacks_total"] = []float64{0, 3, 0}
	if h := evalDefault(t, idleTail); firing(h, "fallback-rate-spike") || firing(h, "fallback-rate-saturated") {
		t.Fatalf("idle tail = %+v, want fallback rules guarded off", h)
	}

	collapse := healthyBase()
	collapse["nma_conditional_accesses_total"] = []float64{0, 0, 0}
	collapse["nma_random_accesses_total"] = []float64{0, 0, 0}
	if h := evalDefault(t, collapse); !firing(h, "slot-utilization-collapse") {
		t.Fatalf("slot collapse with queued work = %+v, want firing", h)
	}
	// Same collapse with an empty queue is benign idleness (guard).
	collapse["nma_queue_depth"] = []float64{0, 0, 0}
	if h := evalDefault(t, collapse); firing(h, "slot-utilization-collapse") {
		t.Fatalf("slot collapse on idle queue = %+v, want guarded off", h)
	}

	storm := healthyBase()
	storm["memctrl_queue_full_stalls_total"] = []float64{500, 400, 300}
	if h := evalDefault(t, storm); !firing(h, "queue-stall-storm") {
		t.Fatalf("stall storm = %+v, want firing", h)
	}

	ecc := healthyBase()
	ecc["xfm_ecc_uncorrectable_total"] = []float64{0, 1, 0}
	if h := evalDefault(t, ecc); h.Status != "CRITICAL" || !firing(h, "ecc-uncorrectable") {
		t.Fatalf("uncorrectable ECC = %+v, want CRITICAL", h)
	}

	low := healthyBase()
	low["sfm_promotion_rate"] = []float64{0.2, 0.15, 0.1}
	if h := evalDefault(t, low); !firing(h, "promotion-rate-low") {
		t.Fatalf("low promotion = %+v, want firing", h)
	}
	// Promotion gauge still at its zero value: guard keeps the low-band
	// rule quiet (no workload ran).
	low["sfm_promotion_rate"] = []float64{0, 0, 0}
	if h := evalDefault(t, low); firing(h, "promotion-rate-low") {
		t.Fatalf("zero promotion = %+v, want guarded off", h)
	}

	high := healthyBase()
	high["sfm_promotion_rate"] = []float64{0.95, 0.97, 0.99}
	if h := evalDefault(t, high); !firing(h, "promotion-rate-high") {
		t.Fatalf("high promotion = %+v, want firing", h)
	}

	// Empty recording: everything inactive, verdict OK.
	if h := evalDefault(t, map[string][]float64{}); h.Status != "OK" {
		t.Fatalf("empty recording = %+v, want OK", h)
	}
}

func TestDefaultMonitorSingleton(t *testing.T) {
	m1 := DefaultMonitor()
	m2 := DefaultMonitor()
	if m1 != m2 {
		t.Fatal("DefaultMonitor not a singleton")
	}
	if len(m1.Rules()) == 0 {
		t.Fatal("default monitor has no rules")
	}
}

// Rules returns a copy of the monitor's rule set.
func (m *Monitor) Rules() []Rule {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Rule(nil), m.rules...)
}
