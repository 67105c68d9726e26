package nma

// Refresh-storm injection suite: storms must starve the side channel
// (RogueRFM's denial-of-service shape) while preserving the FF ≡
// stepped invariant — a fast-forwarded run over a storm schedule must
// publish bit-identical stats, metrics, and recordings.

import (
	"fmt"
	"testing"

	"xfm/internal/fault"
)

// TestStormFastForwardEquivalence extends the §6b equivalence property
// to storm schedules: skipped idle ranges must account storm windows
// (and their zeroed slot offers) exactly like stepped ones.
func TestStormFastForwardEquivalence(t *testing.T) {
	storms := []fault.StormSpec{
		{Period: 512, Len: 64},
		{Period: 777, Len: 123, Phase: 300},
		{Period: 64, Len: 64}, // permanent storm
	}
	for _, storm := range storms {
		for seed := int64(1); seed <= 4; seed++ {
			run := fmt.Sprintf("storm %+v seed %d", storm, seed)
			if st := requireFFEquivalent(t, run, seed, 120, &storm); st.StormWindows == 0 {
				t.Fatalf("%s: no storm windows counted", run)
			}
		}
	}
}

// TestStormStarvesSideChannel pins the starvation semantics: under a
// permanent storm no access slots are offered, so queued work ages
// without ever being served.
func TestStormStarvesSideChannel(t *testing.T) {
	c := cfg32()
	s := NewSim(c)
	s.SetSampler(nil)
	s.SetInjector(fault.NewInjector(fault.Plan{Seed: 1, Storm: fault.StormSpec{Period: 1, Len: 1}}))
	for i := 0; i < 8; i++ {
		if !s.Submit(Request{ID: int64(i), Kind: CompressOp, SrcGroup: i, DstGroup: -1, Arrive: 0}) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	for w := 0; w < 2000; w++ {
		s.StepWindow()
	}
	st := s.Stats()
	if st.Conditional+st.Random != 0 {
		t.Fatalf("permanent storm served %d accesses", st.Conditional+st.Random)
	}
	if st.StormWindows != 2000 || st.Windows != 2000 {
		t.Fatalf("storm windows = %d / %d", st.StormWindows, st.Windows)
	}
	if st.BusyWindows != 0 || st.Completed != 0 {
		t.Fatalf("storm windows carried work: busy=%d completed=%d", st.BusyWindows, st.Completed)
	}
	if s.QueueLen() != 8 {
		t.Fatalf("queue drained under permanent storm: %d", s.QueueLen())
	}
}
