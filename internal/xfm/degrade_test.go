package xfm

import (
	"bytes"
	"errors"
	"testing"

	"xfm/internal/compress"
	"xfm/internal/dram"
	"xfm/internal/fault"
	"xfm/internal/memctrl"
	"xfm/internal/nma"
	"xfm/internal/sfm"
	"xfm/internal/telemetry"
)

func chaosBackend(t *testing.T, spec string, seed int64) (*Backend, *fault.Injector) {
	t.Helper()
	b := newTestBackend(t)
	plan, err := fault.ParseSpec(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(plan)
	b.SetInjector(inj)
	return b, inj
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	// Every submission stalls until the budget runs out, then the NMA
	// is healthy again: the breaker must trip to CPU_ONLY, re-probe
	// with canaries, and close.
	b, _ := chaosBackend(t, "nma-stall=1:40", 1)
	pol := DegradePolicy{
		Window: 8, TripFailures: 4, DegradeFailures: 2,
		ReprobeAfter: 8, CanarySuccesses: 3, RetryOnce: true,
	}
	b.EnableDegradation(pol)
	if b.Mode() != ModeHealthy {
		t.Fatalf("initial mode = %v", b.Mode())
	}
	trefi := b.Driver().Sim().Config().Timings.TREFI
	now := dram.Ps(0)
	sawCPUOnly, sawRecovering := false, false
	for i := 0; i < 400; i++ {
		now += trefi
		id := sfm.PageID(i)
		if err := b.SwapOut(now, id, page(byte(i))); err != nil {
			t.Fatal(err)
		}
		switch b.Mode() {
		case ModeCPUOnly:
			sawCPUOnly = true
		case ModeRecovering:
			sawRecovering = true
		}
	}
	if !sawCPUOnly {
		t.Fatal("breaker never tripped to CPU_ONLY")
	}
	if !sawRecovering {
		t.Fatal("breaker never probed with canaries")
	}
	trips, recoveries := b.BreakerStats()
	if trips < 1 || recoveries < 1 {
		t.Fatalf("trips=%d recoveries=%d, want >=1 each", trips, recoveries)
	}
	if b.Mode() != ModeHealthy {
		t.Fatalf("end mode = %v, want HEALTHY after the stall budget drains", b.Mode())
	}
	// Healthy again: offloads flow.
	if off := b.Stats().Offloads; off == 0 {
		t.Fatal("no offloads after recovery")
	}
}

func TestRetryOnceAbsorbsIsolatedTimeouts(t *testing.T) {
	// Probability low enough that stalls are isolated: with RetryOnce
	// the retry draw (a fresh submit sequence number) almost always
	// passes, so no failures reach the window and the breaker stays
	// closed.
	b, _ := chaosBackend(t, "nma-stall=0.05", 7)
	b.EnableDegradation(DefaultDegradePolicy())
	trefi := b.Driver().Sim().Config().Timings.TREFI
	now := dram.Ps(0)
	for i := 0; i < 300; i++ {
		now += trefi
		if err := b.SwapOut(now, sfm.PageID(i), page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	trips, _ := b.BreakerStats()
	if trips != 0 {
		t.Fatalf("isolated 5%% stalls tripped the breaker %d times", trips)
	}
	if telemetry.XFMOpRetries.Value() == 0 {
		t.Fatal("no retries recorded despite injected stalls")
	}
}

func TestUncorrectableTypedError(t *testing.T) {
	// Multi-bit flips on every page, no degradation armed: swap-in
	// must fail with the typed, errors.Is-able error.
	b, _ := chaosBackend(t, "ecc-multi=1", 3)
	if err := b.SwapOut(0, 9, page('Z')); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, sfm.PageSize)
	err := b.SwapIn(dram.Millisecond, 9, dst, false)
	if err == nil {
		t.Fatal("uncorrectable flip survived verification")
	}
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("errors.Is(ErrUncorrectable) false for %v", err)
	}
	var ue *UncorrectableError
	if !errors.As(err, &ue) {
		t.Fatalf("errors.As(*UncorrectableError) false for %v", err)
	}
	if ue.Page != 9 || ue.BadWords < 1 {
		t.Fatalf("typed error carries page=%d bad=%d", ue.Page, ue.BadWords)
	}
}

func TestQuarantineReservesFromStaging(t *testing.T) {
	// Same flips, but with degradation armed the staging copy makes
	// the swap-in lossless and the page lands in quarantine.
	b, _ := chaosBackend(t, "ecc-multi=1", 3)
	b.EnableDegradation(DefaultDegradePolicy())
	servedBefore := QuarantineServed()
	orig := page('Q')
	orig[17] = 0xAB
	if err := b.SwapOut(0, 11, orig); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, sfm.PageSize)
	if err := b.SwapIn(dram.Millisecond, 11, dst, false); err != nil {
		t.Fatalf("quarantine should re-serve, got %v", err)
	}
	if !bytes.Equal(dst, orig) {
		t.Fatal("re-served page differs from the swapped-out original")
	}
	if b.QuarantinedPages() != 1 {
		t.Fatalf("QuarantinedPages = %d, want 1", b.QuarantinedPages())
	}
	if QuarantineServed() != servedBefore+1 {
		t.Fatal("quarantine serve not counted")
	}
}

func TestECCSingleBitFlipsAreCorrected(t *testing.T) {
	b, _ := chaosBackend(t, "ecc-single=1", 5)
	orig := page('S')
	if err := b.SwapOut(0, 21, orig); err != nil {
		t.Fatal(err)
	}
	_, correctedBefore, _ := b.ECCStats()
	dst := make([]byte, sfm.PageSize)
	if err := b.SwapIn(dram.Millisecond, 21, dst, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, orig) {
		t.Fatal("single-bit flip not corrected in place")
	}
	_, corrected, bad := b.ECCStats()
	if corrected <= correctedBefore || bad != 0 {
		t.Fatalf("corrected=%d bad=%d, want corrected>0 bad=0", corrected, bad)
	}
}

func TestBatchQuarantineMatchesSerial(t *testing.T) {
	// The batched swap-in path must quarantine and re-serve exactly
	// like the serial path.
	sim := nma.NewSim(nma.DefaultConfig(dram.Device32Gb))
	d := NewDriver(sim)
	m := memctrl.SkylakeMapping(4, 2, dram.Device32Gb)
	b, err := NewShardedBackend(compress.NewLZFast(), 1<<30, 4, 2, d, m)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	plan, err := fault.ParseSpec("ecc-multi=0.5", 11)
	if err != nil {
		t.Fatal(err)
	}
	b.SetInjector(fault.NewInjector(plan))
	b.EnableDegradation(DefaultDegradePolicy())

	const n = 64
	outs := make([]sfm.PageOut, n)
	origs := make([][]byte, n)
	for i := range outs {
		origs[i] = page(byte(i * 7))
		origs[i][i%sfm.PageSize] = 0xEE
		outs[i] = sfm.PageOut{ID: sfm.PageID(i), Data: origs[i]}
	}
	for i, err := range b.SwapOutBatch(dram.Millisecond, outs) {
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	ins := make([]sfm.PageIn, n)
	dsts := make([][]byte, n)
	for i := range ins {
		dsts[i] = make([]byte, sfm.PageSize)
		ins[i] = sfm.PageIn{ID: sfm.PageID(i), Dst: dsts[i]}
	}
	for i, err := range b.SwapInBatch(2*dram.Millisecond, ins, true) {
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
	}
	for i := range dsts {
		if !bytes.Equal(dsts[i], origs[i]) {
			t.Fatalf("page %d lost data through batched quarantine", i)
		}
	}
	if b.QuarantinedPages() == 0 {
		t.Fatal("p=0.5 multi-bit flips quarantined nothing across 64 pages")
	}
}

func TestDriverQueueFullInjection(t *testing.T) {
	b, inj := chaosBackend(t, "queue-full=1:10", 1)
	trefi := b.Driver().Sim().Config().Timings.TREFI
	now := dram.Ps(0)
	for i := 0; i < 20; i++ {
		now += trefi
		if err := b.SwapOut(now, sfm.PageID(i), page(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := inj.Injected(fault.SiteQueueFull); got != 10 {
		t.Fatalf("queue-full injections = %d, want the budget of 10", got)
	}
	s := b.Stats()
	if s.Fallbacks < 10 {
		t.Fatalf("fallbacks = %d, want >= 10 (one per spurious rejection)", s.Fallbacks)
	}
}

// DefaultDegradePolicy is the mid-range breaker policy these tests and
// the differential test arm (the chaos gate runs chaos.GatePolicy).
func DefaultDegradePolicy() DegradePolicy {
	return DegradePolicy{
		Window:          32,
		TripFailures:    8,
		DegradeFailures: 3,
		ReprobeAfter:    32,
		CanarySuccesses: 4,
		RetryOnce:       true,
	}
}
