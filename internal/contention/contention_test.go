package contention

import (
	"testing"

	"xfm/internal/workload"
)

// fig11Traffic is the Fig. 11 antagonist: 512 GB SFM at a 14%
// promotion rate.
func fig11Traffic() SFMTraffic {
	return SFMTraffic{SwapGBps: 512 * 0.14 / 60, CompressionRatio: 2.0}
}

func TestModesEnumeration(t *testing.T) {
	ms := Modes()
	if len(ms) != 3 {
		t.Fatalf("modes = %d, want 3", len(ms))
	}
	names := map[string]bool{}
	for _, m := range ms {
		names[m.String()] = true
	}
	for _, want := range []string{"Baseline-CPU", "Host-Lockout-NMA", "XFM"} {
		if !names[want] {
			t.Errorf("missing mode %s", want)
		}
	}
	if Mode(99).String() != "invalid" {
		t.Error("invalid mode not detected")
	}
}

func TestChannelDemandByMode(t *testing.T) {
	tr := fig11Traffic()
	if d := tr.ChannelDemandGBps(BaselineCPU); d <= tr.SwapGBps*2 {
		t.Errorf("baseline demand %.2f should exceed 2× swap rate", d)
	}
	// §3.3 footnote: with ratio 1 the factor is 4×.
	tr1 := SFMTraffic{SwapGBps: 8.5, CompressionRatio: 1}
	if d := tr1.ChannelDemandGBps(BaselineCPU); d != 4*8.5 {
		t.Errorf("uncompressed baseline demand = %.1f, want 34 (4×8.5)", d)
	}
	for _, m := range []Mode{HostLockoutNMA, XFM} {
		if d := tr.ChannelDemandGBps(m); d != 0 {
			t.Errorf("%v consumes %.2f GB/s of channel bandwidth, want 0", m, d)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	sys := DefaultSystem()
	profiles := workload.SPECLikeProfiles()
	tr := fig11Traffic()

	results := map[Mode]Result{}
	for _, m := range Modes() {
		r, err := CoRun(sys, profiles, tr, m)
		if err != nil {
			t.Fatal(err)
		}
		results[m] = r
	}

	// Shape 1: XFM leaves co-runners essentially untouched.
	if xfm := results[XFM].MaxSlowdown(); xfm > 1.005 {
		t.Errorf("XFM max slowdown = %.3f, want ≈1.0", xfm)
	}
	// Shape 2: Host-Lockout hurts SPEC more than Baseline-CPU (§8:
	// "up to 8% and 15% performance degradation for Baseline-CPU and
	// Host-Lockout-NMA").
	base := results[BaselineCPU].MaxSlowdown()
	lock := results[HostLockoutNMA].MaxSlowdown()
	if lock <= base {
		t.Errorf("lockout max slowdown %.3f not worse than baseline %.3f", lock, base)
	}
	if base < 1.02 || base > 1.10 {
		t.Errorf("baseline max slowdown = %.3f, paper reports up to ~8%%", base)
	}
	if lock < 1.05 || lock > 1.20 {
		t.Errorf("lockout max slowdown = %.3f, paper reports up to ~15%%", lock)
	}
	// Shape 3: only Baseline-CPU SFM throughput degrades, by 5–20%.
	if f := results[BaselineCPU].SFMThroughputFactor; f < 0.80 || f > 0.95 {
		t.Errorf("baseline SFM throughput factor = %.3f, want 0.80–0.95 (5–20%% loss)", f)
	}
	for _, m := range []Mode{HostLockoutNMA, XFM} {
		if f := results[m].SFMThroughputFactor; f != 1 {
			t.Errorf("%v SFM throughput factor = %.3f, want 1", m, f)
		}
	}
}

func TestSec32AntagonistExperiment(t *testing.T) {
	// §3.2: two (de)compression antagonists co-run with 8 SPEC
	// workloads: runtime increases by up to 7.5%, antagonist
	// throughput drops by more than 5%.
	sys := DefaultSystem()
	profiles := workload.SPECLikeProfiles()
	// Two antagonist processes continuously compressing 4 KiB pages
	// at a software-codec rate (~1 GB/s each).
	tr := SFMTraffic{SwapGBps: 2.0, CompressionRatio: 2.0}
	r, err := CoRun(sys, profiles, tr, BaselineCPU)
	if err != nil {
		t.Fatal(err)
	}
	if max := r.MaxSlowdown(); max < 1.02 || max > 1.09 {
		t.Errorf("max runtime increase = %.3f, §3.2 reports up to 7.5%%", max)
	}
	if deg := 1 - r.SFMThroughputFactor; deg < 0.04 || deg > 0.25 {
		t.Errorf("antagonist degradation = %.1f%%, §3.2 reports > 5%%", deg*100)
	}
}

func TestSlowdownsScaleWithTraffic(t *testing.T) {
	sys := DefaultSystem()
	profiles := workload.SPECLikeProfiles()
	light := SFMTraffic{SwapGBps: 0.5, CompressionRatio: 2}
	heavy := SFMTraffic{SwapGBps: 8.5, CompressionRatio: 2}
	rl, _ := CoRun(sys, profiles, light, BaselineCPU)
	rh, _ := CoRun(sys, profiles, heavy, BaselineCPU)
	if rh.MeanSlowdown() <= rl.MeanSlowdown() {
		t.Error("heavier SFM traffic should slow co-runners more")
	}
	if rh.SFMThroughputFactor > rl.SFMThroughputFactor {
		t.Error("SFM throughput factor should not improve with heavier load")
	}
}

func TestLockoutScalesWithEngineSpeed(t *testing.T) {
	profiles := workload.SPECLikeProfiles()
	tr := fig11Traffic()
	slow := DefaultSystem()
	slow.NMAEngineGBps = 0.7
	fast := DefaultSystem()
	fast.NMAEngineGBps = 14.8
	rs, _ := CoRun(slow, profiles, tr, HostLockoutNMA)
	rf, _ := CoRun(fast, profiles, tr, HostLockoutNMA)
	if rs.MaxSlowdown() <= rf.MaxSlowdown() {
		t.Error("slower lockout engine should hurt co-runners more")
	}
}

func TestCoRunInvalidSystem(t *testing.T) {
	if _, err := CoRun(System{}, nil, fig11Traffic(), XFM); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestQueueFactorBounds(t *testing.T) {
	if queueFactor(-1) != 1 {
		t.Error("negative utilization mishandled")
	}
	if queueFactor(0.99) != queueFactor(2) {
		t.Error("saturation cap not applied")
	}
	if queueFactor(0.5) != 2 {
		t.Errorf("queueFactor(0.5) = %v, want 2", queueFactor(0.5))
	}
}

func TestMeanMaxSlowdownEmpty(t *testing.T) {
	var r Result
	if r.MeanSlowdown() != 1 || r.MaxSlowdown() != 1 {
		t.Error("empty result should report 1.0")
	}
}

// MeanSlowdown returns the average workload slowdown.
func (r Result) MeanSlowdown() float64 {
	if len(r.Slowdowns) == 0 {
		return 1
	}
	sum := 0.0
	for _, s := range r.Slowdowns {
		sum += s
	}
	return sum / float64(len(r.Slowdowns))
}
