package memsim

import (
	"testing"

	"xfm/internal/dram"
)

func spec(id int, name string, p Pattern, rate float64, base int64) StreamSpec {
	return StreamSpec{
		ID: id, Name: name, Pattern: p, RateGBps: rate,
		ReqBytes: 128, Base: base, Size: 1 << 30, Stride: 4096, Seed: int64(id),
	}
}

func TestValidate(t *testing.T) {
	sys := DefaultSystem()
	bad := spec(1, "x", Random, 1, 0)
	bad.RateGBps = 0
	if bad.Validate(sys.Mapping) == nil {
		t.Error("zero rate accepted")
	}
	bad = spec(1, "x", Random, 1, 0)
	bad.Base = sys.Mapping.TotalBytes()
	if bad.Validate(sys.Mapping) == nil {
		t.Error("out-of-range region accepted")
	}
	bad = spec(1, "x", Random, 1, 0)
	bad.WriteShare = 2
	if bad.Validate(sys.Mapping) == nil {
		t.Error("write share > 1 accepted")
	}
}

func TestSingleStreamAchievesOfferedRate(t *testing.T) {
	sys := DefaultSystem()
	res, err := sys.Run([]StreamSpec{spec(1, "seq", Sequential, 4, 0)}, 2*dram.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	got := res[0].AchievedGBps
	if got < 3.5 || got > 4.5 {
		t.Errorf("achieved %.2f GB/s, offered 4 (open loop should keep rate)", got)
	}
	if res[0].MeanLatencyNs <= 0 {
		t.Error("zero latency")
	}
}

func TestSequentialBeatsRandomRowHits(t *testing.T) {
	sys := DefaultSystem()
	res, err := sys.Run([]StreamSpec{
		spec(1, "seq", Sequential, 2, 0),
		spec(2, "rnd", Random, 2, 8<<30),
	}, dram.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].RowHitRate <= res[1].RowHitRate {
		t.Errorf("sequential row-hit rate %.2f not above random %.2f",
			res[0].RowHitRate, res[1].RowHitRate)
	}
}

func TestContentionInflatesLatency(t *testing.T) {
	sys := DefaultSystem()
	// A victim stream co-runs with three heavy antagonists.
	streams := []StreamSpec{
		spec(1, "victim", Random, 2, 0),
		spec(2, "ant-a", Sequential, 20, 4<<30),
		spec(3, "ant-b", Sequential, 20, 8<<30),
		spec(4, "ant-c", Random, 15, 12<<30),
	}
	slow, err := sys.SlowdownVsSolo(streams, dram.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if slow[0] <= 1.01 {
		t.Errorf("victim latency inflation = %.3f, want > 1.01 under heavy co-run", slow[0])
	}
}

func TestSwapBurstsInterfereMoreThanSmoothTraffic(t *testing.T) {
	// The Fig. 11 mechanism in simulation: page-granular SFM swap
	// bursts at the same average bandwidth hurt a victim at least as
	// much as smooth traffic.
	sys := DefaultSystem()
	victim := spec(1, "victim", Random, 4, 0)
	smooth := spec(2, "smooth", Sequential, 6, 8<<30)
	bursty := spec(3, "sfm", SwapBursts, 6, 8<<30)
	bursty.WriteShare = 0.5

	withSmooth, err := sys.Run([]StreamSpec{victim, smooth}, dram.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	withBursty, err := sys.Run([]StreamSpec{victim, bursty}, dram.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if withBursty[0].MeanLatencyNs < withSmooth[0].MeanLatencyNs*0.9 {
		t.Errorf("bursty swap traffic (%.1f ns) interferes much less than smooth (%.1f ns)",
			withBursty[0].MeanLatencyNs, withSmooth[0].MeanLatencyNs)
	}
}

func TestXFMRemovesSFMStreamEntirely(t *testing.T) {
	// Under XFM the SFM stream simply does not exist on the channels:
	// the victim's latency equals its solo latency.
	sys := DefaultSystem()
	victim := spec(1, "victim", Random, 4, 0)
	solo, err := sys.Run([]StreamSpec{victim}, dram.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// "XFM co-run" = same single stream; trivially equal, asserted to
	// document the modeling claim.
	xfmRun, err := sys.Run([]StreamSpec{victim}, dram.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if solo[0].MeanLatencyNs != xfmRun[0].MeanLatencyNs {
		t.Error("deterministic run differed")
	}
}

func TestDeterministicRuns(t *testing.T) {
	sys := DefaultSystem()
	streams := []StreamSpec{
		spec(1, "a", Random, 3, 0),
		spec(2, "b", SwapBursts, 2, 4<<30),
	}
	r1, err := sys.Run(streams, dram.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Run(streams, dram.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1 {
		if r1[i].Stats != r2[i].Stats {
			t.Fatalf("stream %d stats differ between identical runs", i)
		}
	}
}

func TestWriteShareProducesWrites(t *testing.T) {
	sys := DefaultSystem()
	s := spec(1, "w", Sequential, 2, 0)
	s.WriteShare = 1.0
	if _, err := sys.Run([]StreamSpec{s}, 100*dram.Microsecond); err != nil {
		t.Fatal(err)
	}
	// Run again and check controller-level accounting via results.
	res, _ := sys.Run([]StreamSpec{s}, 100*dram.Microsecond)
	if res[0].Stats.Bytes == 0 {
		t.Error("write-only stream moved no bytes")
	}
}

func TestPatternStrings(t *testing.T) {
	for p, want := range map[Pattern]string{
		Sequential: "sequential", Strided: "strided", Random: "random",
		SwapBursts: "swap-bursts", Pattern(9): "invalid",
	} {
		if p.String() != want {
			t.Errorf("%d = %q, want %q", p, p.String(), want)
		}
	}
}

func BenchmarkRunFourStreams(b *testing.B) {
	sys := DefaultSystem()
	streams := []StreamSpec{
		spec(1, "a", Sequential, 8, 0),
		spec(2, "b", Random, 5, 4<<30),
		spec(3, "c", Strided, 4, 8<<30),
		spec(4, "d", SwapBursts, 3, 12<<30),
	}
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(streams, 100*dram.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

// SlowdownVsSolo runs each stream alone and then all together, and
// returns each stream's latency inflation factor (co-run mean latency
// ÷ solo mean latency) — the simulation analogue of Fig. 11's runtime
// slowdowns for memory-bound workloads.
func (sys System) SlowdownVsSolo(specs []StreamSpec, dur dram.Ps) ([]float64, error) {
	co, err := sys.Run(specs, dur)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(specs))
	for i, s := range specs {
		solo, err := sys.Run([]StreamSpec{s}, dur)
		if err != nil {
			return nil, err
		}
		if solo[0].MeanLatencyNs > 0 {
			out[i] = co[i].MeanLatencyNs / solo[0].MeanLatencyNs
		} else {
			out[i] = 1
		}
	}
	return out, nil
}
