package nma

// Refresh-storm injection suite: storms must starve the side channel
// (RogueRFM's denial-of-service shape) while preserving the FF ≡
// stepped invariant — a fast-forwarded run over a storm schedule must
// publish bit-identical stats, metrics, and recordings.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"xfm/internal/dram"
	"xfm/internal/fault"
	"xfm/internal/telemetry"
)

// stormRun mirrors engineRun with a storm-scheduling injector armed.
func stormRun(t *testing.T, seed int64, ff bool, storm fault.StormSpec) (Stats, telemetry.Snapshot, []byte) {
	t.Helper()
	telemetry.ResetAll()
	SetFastForward(ff)
	defer SetFastForward(true)

	smp := telemetry.NewSampler(1 << 14)
	smp.SetSimEvery(7)
	smp.Reset()
	smp.SetEnabled(true)

	c := cfg32()
	c.QueueDepth = 64
	s := NewSim(c)
	s.SetSampler(smp)
	s.SetInjector(fault.NewInjector(fault.Plan{Seed: seed, Storm: storm}))
	trefi := c.Timings.TREFI

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 120; i++ {
		switch rng.Intn(4) {
		case 0:
			n := 1 + rng.Intn(8)
			base := int(s.window % int64(s.groups))
			for j := 0; j < n; j++ {
				dst := rng.Intn(s.groups)
				if rng.Intn(2) == 0 {
					dst = -1
				}
				s.Submit(Request{
					ID:       int64(i*100 + j),
					Kind:     OpKind(rng.Intn(2)),
					SrcGroup: (base + rng.Intn(32)) % s.groups,
					DstGroup: dst,
					Arrive:   s.Now() - trefi,
				})
			}
		case 1:
			s.AdvanceTo(s.Now() + dram.Ps(rng.Intn(16))*trefi)
		case 2:
			s.AdvanceTo(s.Now() + dram.Ps(1024+rng.Intn(4096))*trefi)
		case 3:
			for j := rng.Intn(5); j > 0; j-- {
				s.StepWindow()
			}
		}
	}
	s.AdvanceTo(s.Now() + 2*c.Timings.Retention)

	var buf bytes.Buffer
	if err := smp.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return s.Stats(), telemetry.SnapshotAll(), buf.Bytes()
}

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
			stStep, snapStep, dumpStep := stormRun(t, seed, false, storm)
			stFF, snapFF, dumpFF := stormRun(t, seed, true, storm)
			if stStep != stFF {
				t.Fatalf("storm %+v seed %d: Stats diverge:\nstepped: %+v\nfastfwd: %+v", storm, seed, stStep, stFF)
			}
			if !reflect.DeepEqual(snapStep, snapFF) {
				t.Fatalf("storm %+v seed %d: metric snapshots diverge", storm, seed)
			}
			if !bytes.Equal(dumpStep, dumpFF) {
				a, err := telemetry.ReadDump(bytes.NewReader(dumpStep))
				if err != nil {
					t.Fatal(err)
				}
				b, err := telemetry.ReadDump(bytes.NewReader(dumpFF))
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range telemetry.DiffDumps(a, b) {
					t.Errorf("storm %+v seed %d: %s", storm, seed, d)
				}
				t.Fatalf("storm %+v seed %d: recordings diverge", storm, seed)
			}
			if stStep.StormWindows == 0 {
				t.Fatalf("storm %+v seed %d: no storm windows counted", storm, seed)
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
