package nma

import (
	"math/rand"
	"strings"
	"testing"

	"xfm/internal/dram"
	"xfm/internal/telemetry"
)

func cfg32() Config { return DefaultConfig(dram.Device32Gb) }

func TestConfigValidate(t *testing.T) {
	if err := cfg32().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg32()
	bad.SPMBytes = 0
	if bad.Validate() == nil {
		t.Error("zero SPM accepted")
	}
	bad = cfg32()
	bad.AccessesPerTRFC, bad.RandomPerTRFC = 0, 0
	if bad.Validate() == nil {
		t.Error("zero access budget accepted")
	}
}

func TestDefaultConfigMatchesDevice(t *testing.T) {
	// §5: 4, 3 and 2 conditional accesses per tRFC for 32, 16 and 8 Gb.
	want := map[string]int{"8Gb": 2, "16Gb": 3, "32Gb": 4}
	for _, dev := range dram.Table1Devices() {
		c := DefaultConfig(dev)
		if c.AccessesPerTRFC != want[dev.Name] {
			t.Errorf("%s: accesses/tRFC = %d, want %d", dev.Name, c.AccessesPerTRFC, want[dev.Name])
		}
		if c.Timings.TRFC != dev.TRFC {
			t.Errorf("%s: tRFC not propagated", dev.Name)
		}
	}
}

func TestSubmitAndCompleteOneOp(t *testing.T) {
	s := NewSim(cfg32())
	// Source row in group 0, destination in group 1: read in window 0,
	// engine runs, write in window 1.
	ok := s.Submit(Request{ID: 1, Kind: CompressOp, SrcGroup: 0, DstGroup: 1})
	if !ok {
		t.Fatal("submit rejected")
	}
	s.StepWindow() // group 0: conditional read
	st := s.Stats()
	if st.ReadCond != 1 {
		t.Fatalf("after window 0: ReadCond = %d, want 1", st.ReadCond)
	}
	if s.SPMUsed() == 0 {
		t.Fatal("page not staged in SPM")
	}
	s.StepWindow() // group 1: conditional write-back
	st = s.Stats()
	if st.Completed != 1 || st.WriteCond != 1 {
		t.Fatalf("after window 1: %+v", st)
	}
	if s.SPMUsed() != 0 {
		t.Errorf("SPM not drained: %d", s.SPMUsed())
	}
}

func TestMinimumLatencyTwoTREFI(t *testing.T) {
	// Fig. 10: the minimum latency for an XFM operation is 2 × tREFI
	// (read in one window, write in a later one).
	s := NewSim(cfg32())
	s.Submit(Request{Kind: CompressOp, SrcGroup: 0, DstGroup: 1, Arrive: 0})
	s.StepWindow()
	s.StepWindow()
	st := s.Stats()
	if st.Completed != 1 {
		t.Fatal("op did not complete in two windows")
	}
	min := 2 * s.Config().Timings.TREFI
	if st.MaxLatencyPs < min {
		t.Errorf("latency %d < 2×tREFI %d", st.MaxLatencyPs, min)
	}
}

func TestConditionalRequiresGroupMatch(t *testing.T) {
	c := cfg32()
	c.RandomPerTRFC = 0 // force conditional-only
	s := NewSim(c)
	s.Submit(Request{Kind: CompressOp, SrcGroup: 5, DstGroup: 6})
	s.StepWindow() // group 0: nothing matches
	if s.Stats().Conditional != 0 {
		t.Fatal("access performed without group match")
	}
	for i := 1; i <= 5; i++ {
		s.StepWindow()
	}
	if s.Stats().ReadCond != 1 {
		t.Fatalf("read not performed at its group window: %+v", s.Stats())
	}
	s.StepWindow() // group 6: write
	if s.Stats().Completed != 1 {
		t.Fatalf("write not performed at its group window: %+v", s.Stats())
	}
}

func TestRandomAccessServesMismatchedGroupsUnderPressure(t *testing.T) {
	c := cfg32()
	c.RandomPerTRFC = 1
	c.QueueDepth = 1 // a single queued op already means queue pressure
	s := NewSim(c)
	// Source group far in the future: only a random access can serve
	// it soon, and the full queue forces the scheduler to spend one.
	s.Submit(Request{Kind: CompressOp, SrcGroup: 4000, DstGroup: 4001})
	s.StepWindow()
	st := s.Stats()
	if st.ReadRand != 1 {
		t.Fatalf("random read not used: %+v", st)
	}
}

func TestRandomAccessNotWastedWithoutPressure(t *testing.T) {
	c := cfg32()
	s := NewSim(c)
	// One op, deep queue, no SPM pressure: the scheduler should hold
	// the request for its conditional window instead of burning an
	// activation on a random access.
	s.Submit(Request{Kind: CompressOp, SrcGroup: 4000, DstGroup: -1})
	for i := 0; i < 100; i++ {
		s.StepWindow()
	}
	if got := s.Stats().Random; got != 0 {
		t.Errorf("random accesses = %d, want 0 at idle", got)
	}
	// When its group finally comes up the read must be conditional.
	for s.Stats().Completed == 0 && s.Now() < 2*c.Timings.Retention {
		s.StepWindow()
	}
	st := s.Stats()
	if st.ReadCond != 1 || st.Completed != 1 {
		t.Fatalf("op not served conditionally: %+v", st)
	}
}

func TestFlexibleDestinationWritesConditional(t *testing.T) {
	c := cfg32()
	c.RandomPerTRFC = 0
	s := NewSim(c)
	s.Submit(Request{Kind: CompressOp, SrcGroup: 0, DstGroup: -1})
	s.StepWindow() // read
	s.StepWindow() // flexible write counts as conditional
	st := s.Stats()
	if st.Completed != 1 || st.WriteCond != 1 {
		t.Fatalf("flexible-destination write failed: %+v", st)
	}
}

func TestQueueFullFallsBack(t *testing.T) {
	c := cfg32()
	c.QueueDepth = 4
	s := NewSim(c)
	accepted := 0
	for i := 0; i < 10; i++ {
		if s.Submit(Request{Kind: CompressOp, SrcGroup: 100, DstGroup: 101}) {
			accepted++
		}
	}
	st := s.Stats()
	if accepted != 4 {
		t.Errorf("accepted %d, want 4", accepted)
	}
	if st.Fallbacks != 6 {
		t.Errorf("fallbacks = %d, want 6", st.Fallbacks)
	}
	if st.Submitted != 10 {
		t.Errorf("submitted = %d, want 10", st.Submitted)
	}
}

func TestSPMPressureBlocksReads(t *testing.T) {
	c := cfg32()
	c.SPMBytes = 2 * c.PageBytes // room for only 2 staged pages
	c.RandomPerTRFC = 0
	s := NewSim(c)
	// All sources in group 0, destinations far away: reads pile up in
	// the SPM and cannot drain.
	for i := 0; i < 4; i++ {
		s.Submit(Request{Kind: CompressOp, SrcGroup: 0, DstGroup: 4000})
	}
	s.StepWindow() // group 0: budget is 4 conditional, SPM fits 2
	if got := s.SPMUsed(); got > c.SPMBytes {
		t.Fatalf("SPM overcommitted: %d > %d", got, c.SPMBytes)
	}
	if s.Stats().ReadCond != 2 {
		t.Errorf("reads performed = %d, want 2 (SPM-limited)", s.Stats().ReadCond)
	}
	if s.QueueLen() != 2 {
		t.Errorf("queue length = %d, want 2", s.QueueLen())
	}
}

func TestAccessBudgetPerWindowRespected(t *testing.T) {
	c := cfg32() // 4 conditional + 1 random
	s := NewSim(c)
	for i := 0; i < 50; i++ {
		s.Submit(Request{Kind: CompressOp, SrcGroup: 0, DstGroup: -1})
	}
	s.StepWindow()
	st := s.Stats()
	total := st.Conditional + st.Random
	if total > int64(c.AccessesPerTRFC+c.RandomPerTRFC) {
		t.Errorf("window performed %d accesses, budget %d",
			total, c.AccessesPerTRFC+c.RandomPerTRFC)
	}
}

func TestLargerSPMReducesFallbacks(t *testing.T) {
	// The Fig. 12 mechanism: with a fixed workload, growing SPM
	// monotonically (weakly) reduces fallbacks.
	run := func(spmMB int) float64 {
		c := cfg32()
		c.SPMBytes = spmMB << 20
		c.QueueDepth = 256
		s := NewSim(c)
		rng := rand.New(rand.NewSource(1))
		treFI := c.Timings.TREFI
		id := int64(0)
		next := func() (Request, bool) {
			id++
			if id > 40000 {
				return Request{}, false
			}
			return Request{
				ID:       id,
				Kind:     OpKind(rng.Intn(2)),
				SrcGroup: rng.Intn(8192),
				DstGroup: rng.Intn(8192),
				Arrive:   dram.Ps(id) * treFI / 2, // 2 requests per window
			}, true
		}
		s.RunWindows(30000, next)
		return s.Stats().FallbackRate()
	}
	f1 := run(1)
	f8 := run(8)
	if f8 > f1 {
		t.Errorf("fallback rate grew with SPM: 1MB=%.3f 8MB=%.3f", f1, f8)
	}
	if f1 == 0 {
		t.Errorf("1MB SPM under overload should produce fallbacks")
	}
}

func TestMoreAccessesPerTRFCReducesFallbacks(t *testing.T) {
	run := func(acc int) float64 {
		c := cfg32()
		c.AccessesPerTRFC = acc
		c.SPMBytes = 8 << 20
		c.QueueDepth = 512
		s := NewSim(c)
		rng := rand.New(rand.NewSource(2))
		id := int64(0)
		next := func() (Request, bool) {
			id++
			if id > 30000 {
				return Request{}, false
			}
			return Request{
				ID:       id,
				Kind:     CompressOp,
				SrcGroup: rng.Intn(8192),
				DstGroup: rng.Intn(8192),
				Arrive:   dram.Ps(id) * c.Timings.TREFI * 2 / 3,
			}, true
		}
		s.RunWindows(50000, next)
		return s.Stats().FallbackRate()
	}
	f1 := run(1)
	f3 := run(3)
	if f3 > f1 {
		t.Errorf("fallback rate grew with access budget: 1=%.3f 3=%.3f", f1, f3)
	}
}

func TestConditionalFractionDominatesAtLowLoad(t *testing.T) {
	// §8: "the majority of accesses can be accommodated with
	// conditional accesses" at realistic promotion rates.
	c := cfg32()
	s := NewSim(c)
	rng := rand.New(rand.NewSource(3))
	id := int64(0)
	next := func() (Request, bool) {
		id++
		if id > 2000 {
			return Request{}, false
		}
		return Request{
			ID:       id,
			Kind:     CompressOp,
			SrcGroup: rng.Intn(8192),
			DstGroup: rng.Intn(8192),
			Arrive:   dram.Ps(id) * c.Timings.TREFI * 10, // light load
		}, true
	}
	s.RunWindows(40000, next)
	st := s.Stats()
	if st.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if frac := st.ConditionalFraction(); frac < 0.5 {
		t.Errorf("conditional fraction = %.2f, want > 0.5 at light load", frac)
	}
}

func TestStatsAccessorsEmpty(t *testing.T) {
	var st Stats
	if st.FallbackRate() != 0 || st.ConditionalFraction() != 0 || st.MeanLatencyMs() != 0 {
		t.Error("zero stats should report zeros")
	}
}

func TestRunWindowsArrivalOrdering(t *testing.T) {
	c := cfg32()
	s := NewSim(c)
	reqs := []Request{
		{ID: 1, Kind: CompressOp, SrcGroup: 0, DstGroup: -1, Arrive: 0},
		{ID: 2, Kind: CompressOp, SrcGroup: 1, DstGroup: -1, Arrive: c.Timings.TREFI},
	}
	i := 0
	next := func() (Request, bool) {
		if i >= len(reqs) {
			return Request{}, false
		}
		r := reqs[i]
		i++
		return r, true
	}
	s.RunWindows(5, next)
	if got := s.Stats().Submitted; got != 2 {
		t.Errorf("submitted = %d, want 2", got)
	}
	if got := s.Stats().Completed; got != 2 {
		t.Errorf("completed = %d, want 2", got)
	}
}

// TestSubmitPanicsOnBadGroup: a request naming a refresh group outside
// the device panics before it is counted, so Submitted = Completed +
// Fallbacks + in flight still holds and the nma_* rows do not move.
func TestSubmitPanicsOnBadGroup(t *testing.T) {
	rows := func() string {
		var b strings.Builder
		foldNMARows(&b, telemetry.SnapshotAll())
		return b.String()
	}
	before := rows()
	s := NewSim(cfg32())
	for _, r := range []Request{
		{SrcGroup: -1, DstGroup: 0},
		{SrcGroup: 0, DstGroup: 8192},
		{SrcGroup: 8192, DstGroup: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Submit(%+v) did not panic", r)
				}
			}()
			s.Submit(r)
		}()
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("rejected-by-panic requests were counted: %+v", st)
	}
	if after := rows(); after != before {
		t.Errorf("nma_* rows moved across panicking Submits:\nbefore:\n%safter:\n%s", before, after)
	}
}

// TestConservation: every submitted request either falls back or is
// eventually completed once enough windows pass; SPM ends empty.
func TestConservation(t *testing.T) {
	c := cfg32()
	c.QueueDepth = 128
	s := NewSim(c)
	rng := rand.New(rand.NewSource(9))
	var accepted int64
	for i := 0; i < 500; i++ {
		r := Request{
			ID:       int64(i),
			Kind:     OpKind(rng.Intn(2)),
			SrcGroup: rng.Intn(8192),
			DstGroup: rng.Intn(8192),
		}
		if s.Submit(r) {
			accepted++
		}
	}
	// Two full retention walks guarantee every group comes up twice.
	for i := 0; i < 2*8192; i++ {
		s.StepWindow()
	}
	st := s.Stats()
	if st.Completed != accepted {
		t.Errorf("completed %d of %d accepted", st.Completed, accepted)
	}
	if s.SPMUsed() != 0 {
		t.Errorf("SPM not empty at quiescence: %d", s.SPMUsed())
	}
	if s.QueueLen() != 0 {
		t.Errorf("queue not empty at quiescence: %d", s.QueueLen())
	}
	if st.Submitted != 500 {
		t.Errorf("submitted = %d, want 500", st.Submitted)
	}
	if st.Fallbacks != 500-accepted {
		t.Errorf("fallbacks = %d, want %d", st.Fallbacks, 500-accepted)
	}
}

func BenchmarkStepWindow(b *testing.B) {
	c := cfg32()
	s := NewSim(c)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.QueueLen() < c.QueueDepth {
			s.Submit(Request{
				Kind:     CompressOp,
				SrcGroup: rng.Intn(8192),
				DstGroup: rng.Intn(8192),
			})
		}
		s.StepWindow()
	}
}

func TestBusyWindowAndSlotUtilization(t *testing.T) {
	c := cfg32()
	s := NewSim(c)
	// Two requests with flexible destinations at group 0: window 0
	// reads both (cond budget 4), window 1 writes both.
	s.Submit(Request{Kind: CompressOp, SrcGroup: 0, DstGroup: -1})
	s.Submit(Request{Kind: CompressOp, SrcGroup: 0, DstGroup: -1})
	s.StepWindow()
	s.StepWindow()
	s.StepWindow() // idle
	st := s.Stats()
	if st.BusyWindows != 2 {
		t.Errorf("busy windows = %d, want 2", st.BusyWindows)
	}
	if got := st.BusyWindowFraction(); got < 0.6 || got > 0.7 {
		t.Errorf("busy fraction = %v, want 2/3", got)
	}
	slots := c.AccessesPerTRFC + c.RandomPerTRFC
	if got := st.SlotUtilization(slots); got <= 0 || got > 1 {
		t.Errorf("slot utilization = %v", got)
	}
	if (Stats{}).BusyWindowFraction() != 0 || (Stats{}).SlotUtilization(5) != 0 {
		t.Error("empty stats should report zero")
	}
}
