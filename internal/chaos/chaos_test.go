package chaos

import (
	"reflect"
	"testing"

	"xfm/internal/fault"
)

// plan parses a -chaos spec with seed, as xfmbench does.
func plan(t *testing.T, spec string, seed int64) fault.Plan {
	t.Helper()
	p, err := fault.ParseSpec(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCIDefaultPassesStrictGate(t *testing.T) {
	seeds := int64(8)
	if raceEnabled {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		res, err := Run(Config{Plan: plan(t, "ci-default", seed)})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d:\n%s", seed, res)
		if err := res.Gate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Pages == 0 || res.Corpora == 0 || res.Uncorrectable == 0 {
			t.Fatalf("seed %d: run exercised too little: %+v", seed, res)
		}
	}
}

func TestRunsAreBitReproducible(t *testing.T) {
	a, err := Run(Config{Plan: plan(t, "ci-default", 7)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Plan: plan(t, "ci-default", 7)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed runs diverge:\n%+v\n%+v", a, b)
	}
	c, err := Run(Config{Plan: plan(t, "ci-default", 8)})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Injected, c.Injected) {
		t.Fatal("different seeds produced identical injections — injector ignores the seed")
	}
}

func TestOffSpecIsLossless(t *testing.T) {
	res, err := Run(Config{Plan: plan(t, "off", 1), PagesPerCorpus: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Gate(); err != nil {
		t.Fatal(err)
	}
	if res.Injected != [fault.NumSites]int64{} || res.StormWindows != 0 || res.Uncorrectable != 0 {
		t.Fatalf("off spec injected faults: %+v", res)
	}
}

func TestGateRejectsLoss(t *testing.T) {
	p := plan(t, "ecc-multi=0.1,queue-full=0.1,storm=8:1", 1)
	// fired passes the gate; each case below breaks one requirement.
	fired := func() *Result {
		r := &Result{Pages: 10, Uncorrectable: 2, StormWindows: 1, plan: p}
		r.Injected[fault.SiteECCMulti] = 2
		r.Injected[fault.SiteQueueFull] = 1
		return r
	}
	if err := fired().Gate(); err != nil {
		t.Fatalf("gate rejected a clean run: %v", err)
	}
	loss := fired()
	loss.Mismatches = 1
	silent := fired()
	silent.Uncorrectable = 1 // one double flip served without an error
	inert := fired()
	inert.Injected[fault.SiteQueueFull] = 0
	calm := fired()
	calm.StormWindows = 0
	for name, r := range map[string]*Result{
		"loss": loss, "uncorrectable count": silent, "site never fired": inert, "no storm window": calm,
	} {
		if r.Gate() == nil {
			t.Errorf("%s: gate passed %+v", name, r)
		}
	}
}
