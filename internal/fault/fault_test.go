package fault

import (
	"testing"

	"xfm/internal/telemetry"
)

func TestParseSpecFields(t *testing.T) {
	p, err := ParseSpec("queue-full=0.2,ecc-multi=1,storm=4096:512:64", 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 {
		t.Fatalf("seed = %d, want 7", p.Seed)
	}
	if p.Probs[SiteQueueFull] != 0.2 || p.Probs[SiteECCMulti] != 1 {
		t.Fatalf("probs = %v", p.Probs)
	}
	if p.Storm != (StormSpec{Period: 4096, Len: 512, Phase: 64}) {
		t.Fatalf("storm = %+v", p.Storm)
	}
}

func TestParseSpecPresetAndOverride(t *testing.T) {
	base, err := ParseSpec("ci-default", 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Probs[SiteECCSingle] <= 0 || base.Storm.Period <= 0 {
		t.Fatalf("ci-default not fully populated: %+v", base)
	}
	over, err := ParseSpec("ci-default,ecc-single=0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if over.Probs[SiteECCSingle] != 0 {
		t.Fatal("override did not apply")
	}
	if over.Probs[SiteQueueFull] != base.Probs[SiteQueueFull] {
		t.Fatal("override clobbered unrelated site")
	}
	off, err := ParseSpec("off", 1)
	if err != nil || off != (Plan{Seed: 1}) {
		t.Fatalf("off preset: %+v, %v", off, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"", "bogus-preset", "queue-full=1.5", "queue-full=x",
		"unknown-site=0.5", "nma-stall=0.5", "storm=12", "storm=a:b",
		"refresh-storm=0.5", "corrupt-stream=0.1", "queue-full=0.5,ci-default",
		"queue-full=0.5:3", // no budget suffix
		// A malformed storm must not silently mean "no storms".
		"storm=-2048:256", "storm=2048:0", "storm=0:256", "storm=2048:256:-1",
	} {
		if _, err := ParseSpec(spec, 1); err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		}
	}
}

func TestHitDeterministicAndOrderIndependent(t *testing.T) {
	recorded := telemetry.FaultInjected.Value()
	plan, err := ParseSpec("queue-full=0.3", 99)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewInjector(plan), NewInjector(plan)
	const n = 4096
	fireA := make([]bool, n)
	for k := 0; k < n; k++ {
		fireA[k] = a.Hit(SiteQueueFull, uint64(k))
	}
	// Same plan, keys drawn in reverse order: identical per-key result.
	for k := n - 1; k >= 0; k-- {
		if got := b.Hit(SiteQueueFull, uint64(k)); got != fireA[k] {
			t.Fatalf("key %d: order-dependent decision", k)
		}
	}
	fired := 0
	for _, f := range fireA {
		if f {
			fired++
		}
	}
	if fired < n/5 || fired > n/2 {
		t.Fatalf("p=0.3 fired %d/%d times", fired, n)
	}
	if a.Injected(SiteQueueFull) != int64(fired) {
		t.Fatalf("Injected = %d, want %d", a.Injected(SiteQueueFull), fired)
	}
	// A different seed produces a different fire set.
	plan2 := plan
	plan2.Seed = 100
	c := NewInjector(plan2)
	same := 0
	for k := 0; k < n; k++ {
		if c.Hit(SiteQueueFull, uint64(k)) == fireA[k] {
			same++
		}
	}
	if same == n {
		t.Fatal("seed change did not move the fire set")
	}
	// The recorded row counts every fault any injector fired.
	var injected int64
	for _, in := range []*Injector{a, b, c} {
		for site := Site(0); site < NumSites; site++ {
			injected += in.Injected(site)
		}
	}
	if got := telemetry.FaultInjected.Value() - recorded; got != injected {
		t.Fatalf("fault_injected_total moved by %d, want Σ Injected = %d", got, injected)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Hit(SiteQueueFull, 1) || in.StormWindow(0) {
		t.Fatal("nil injector fired")
	}
	if in.StormWindowsIn(0, 100) != 0 || in.Injected(SiteQueueFull) != 0 {
		t.Fatal("nil injector counted")
	}
	if in.Plan() != (Plan{}) {
		t.Fatal("nil injector has a plan")
	}
}

func TestStormCountMatchesActive(t *testing.T) {
	specs := []StormSpec{
		{Period: 8, Len: 3},
		{Period: 8, Len: 3, Phase: 5},
		{Period: 7, Len: 7},
		{Period: 4, Len: 9}, // Len > Period clamps to always-on
		{Period: 0, Len: 3},
		{Period: 8, Len: 0},
	}
	ranges := [][2]int64{{0, 1}, {0, 64}, {3, 40}, {17, 17}, {5, 6}, {63, 64}, {0, 3}}
	for _, spec := range specs {
		p := Plan{Seed: 1, Storm: spec}
		in := NewInjector(p)
		norm := in.Plan().Storm
		for _, r := range ranges {
			want := int64(0)
			for w := r[0]; w < r[1]; w++ {
				if norm.active(w) {
					want++
				}
			}
			if got := in.StormWindowsIn(r[0], r[1]); got != want {
				t.Fatalf("storm %+v range %v: countIn = %d, want %d", spec, r, got, want)
			}
		}
	}
}

// Plan returns a copy of the normalized plan the injector evaluates.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}
