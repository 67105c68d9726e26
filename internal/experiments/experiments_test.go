package experiments

import (
	"strings"
	"testing"

	"xfm/internal/contention"
)

func TestAllExperimentsRegisteredAndRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite is slow")
	}
	exps := All()
	if len(exps) != 15 {
		t.Fatalf("experiments = %d, want 15", len(exps))
	}
	for _, e := range exps {
		tbl := e.Run()
		if tbl == nil || len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", e.ID)
			continue
		}
		out := tbl.String()
		if len(out) < 50 {
			t.Errorf("%s: suspiciously short output", e.ID)
		}
	}
}

func TestLookup(t *testing.T) {
	if _, err := Lookup("fig11"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig1Shape(t *testing.T) {
	r := Fig1()
	if len(r.Rows) < 4 {
		t.Fatal("too few rank points")
	}
	// CPU-SFM bandwidth grows with rank count; XFM stays at zero.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].CPUSFMChannelGBps <= r.Rows[i-1].CPUSFMChannelGBps {
			t.Error("CPU-SFM bandwidth not increasing with ranks")
		}
	}
	for _, row := range r.Rows {
		if row.XFMChannelGBps != 0 {
			t.Errorf("XFM consumes channel bandwidth at %d ranks", row.Ranks)
		}
		// Per-rank NMA demand must fit inside the refresh side channel.
		if row.PerRankNMADemandMBps > row.PerRankNMASupplyMBps {
			t.Errorf("%d ranks: NMA demand %.0f MB/s exceeds supply %.0f MB/s",
				row.Ranks, row.PerRankNMADemandMBps, row.PerRankNMASupplyMBps)
		}
	}
	// §4.3: 512 GB SFM over 8 DIMMs needs ≈426 MB/s per DIMM of NMA
	// bandwidth. Our 8-rank row carries 512 GB at 20% promotion.
	for _, row := range r.Rows {
		if row.Ranks == 8 {
			if row.PerRankNMADemandMBps < 300 || row.PerRankNMADemandMBps > 500 {
				t.Errorf("per-rank NMA demand = %.0f MB/s, §4.3 reports ≈426", row.PerRankNMADemandMBps)
			}
		}
	}
}

func TestFig6Derivation(t *testing.T) {
	r := Fig6()
	if r.Latency110ns < 105 || r.Latency110ns > 115 {
		t.Errorf("conditional read latency = %.1f ns, paper: ~110", r.Latency110ns)
	}
	for name, want := range map[string]int{"8Gb": 2, "16Gb": 3, "32Gb": 4} {
		if r.MaxAccesses[name] != want {
			t.Errorf("%s budget = %d, want %d", name, r.MaxAccesses[name], want)
		}
	}
}

func TestFig3Headlines(t *testing.T) {
	r := Fig3()
	if r.CostBreakEvenDRAM100 < 7 || r.CostBreakEvenDRAM100 > 10 {
		t.Errorf("cost break-even = %.1f years, paper: 8.5", r.CostBreakEvenDRAM100)
	}
	if r.EmissionBreakEvenPMem20 < 2 || r.EmissionBreakEvenPMem20 > 6 {
		t.Errorf("PMem emission break-even = %.1f years, paper: several", r.EmissionBreakEvenPMem20)
	}
	if r.DRAMEmissionBreaksEvenWithin5 {
		t.Error("SFM@20% emissions reached DRAM-DFM within 5 years; paper: never")
	}
	// Normalized SFM cost at year 0 must be below 1 (cheaper than
	// DRAM-DFM) for both promotion rates.
	p0 := r.Points[0]
	if p0.SFMCost20 >= 1 || p0.SFMCost100 >= 1 {
		t.Errorf("SFM not cheaper upfront: %.2f / %.2f", p0.SFMCost20, p0.SFMCost100)
	}
}

func TestFig8SavingsRetention(t *testing.T) {
	r := Fig8(true)
	if len(r.Rows) != 16 {
		t.Fatalf("corpora = %d, want 16", len(r.Rows))
	}
	// Shape: savings retention decreases with DIMM count and stays
	// high (paper: ~95% at 2 DIMMs, ~86% at 4).
	r2, r4 := r.MeanSavingsRetention[2], r.MeanSavingsRetention[4]
	if r2 < r4 {
		t.Errorf("2-DIMM retention %.3f below 4-DIMM %.3f", r2, r4)
	}
	if r2 < 0.85 || r2 > 1.02 {
		t.Errorf("2-DIMM savings retention = %.3f, paper ≈0.95", r2)
	}
	if r4 < 0.70 || r4 > 1.0 {
		t.Errorf("4-DIMM savings retention = %.3f, paper ≈0.86", r4)
	}
	// Every corpus: 1-DIMM ratio ≥ 4-DIMM ratio (fragmentation and
	// window shrinkage can only hurt).
	for _, row := range r.Rows {
		if row.Ratio[4] > row.Ratio[1]*1.02 {
			t.Errorf("%s: 4-DIMM ratio %.2f exceeds 1-DIMM %.2f", row.Corpus, row.Ratio[4], row.Ratio[1])
		}
	}
}

func TestFig11Headlines(t *testing.T) {
	r := Fig11()
	base := r.Results[contention.BaselineCPU]
	lock := r.Results[contention.HostLockoutNMA]
	x := r.Results[contention.XFM]
	if x.MaxSlowdown() > 1.005 {
		t.Errorf("XFM slows co-runners: %.3f", x.MaxSlowdown())
	}
	if !(lock.MaxSlowdown() > base.MaxSlowdown()) {
		t.Error("lockout should hurt SPEC more than baseline")
	}
	// Abstract: 5~27% combined improvement.
	overBase := r.CombinedImprovement(contention.BaselineCPU)
	overLock := r.CombinedImprovement(contention.HostLockoutNMA)
	for name, v := range map[string]float64{"baseline": overBase, "lockout": overLock} {
		if v < 0.02 || v > 0.30 {
			t.Errorf("combined improvement over %s = %.1f%%, paper band 5-27%%", name, v*100)
		}
	}
}

func TestFig11SimCrossCheck(t *testing.T) {
	r := Fig11Sim()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.BaselineInflation < row.XFMInflation-0.001 {
			t.Errorf("%s: baseline inflation %.3f below XFM %.3f",
				row.Name, row.BaselineInflation, row.XFMInflation)
		}
		// XFM removes the SFM stream entirely; remaining inflation is
		// only inter-workload contention, so it must be modest and the
		// baseline must add on top of it.
		if row.XFMInflation < 0.95 {
			t.Errorf("%s: XFM inflation %.3f implausibly below solo", row.Name, row.XFMInflation)
		}
	}
	anyWorse := false
	for _, row := range r.Rows {
		if row.BaselineInflation > row.XFMInflation*1.005 {
			anyWorse = true
		}
	}
	if !anyWorse {
		t.Error("SFM swap stream caused no measurable interference on any victim")
	}
}

func TestMixSweepBand(t *testing.T) {
	ms := MixSweep()
	if len(ms) < 20 {
		t.Fatalf("mix sweep produced %d points", len(ms))
	}
	lo, hi := GainBand(ms)
	// Abstract: 5~27% improvement. Our band must overlap that range
	// substantially and stay positive everywhere.
	if lo < 0 {
		t.Errorf("some mix regressed under XFM: %.3f", lo)
	}
	if hi < 0.15 || hi > 0.45 {
		t.Errorf("band top = %.1f%%, want tens of percent (abstract: 27%%)", hi*100)
	}
	if lo > 0.10 {
		t.Errorf("band bottom = %.1f%%, should reach single digits (abstract: 5%%)", lo*100)
	}
}

func TestSec32Headlines(t *testing.T) {
	r := Sec32()
	if r.MaxRuntimeIncrease < 0.02 || r.MaxRuntimeIncrease > 0.09 {
		t.Errorf("max runtime increase = %.3f, paper: up to 7.5%%", r.MaxRuntimeIncrease)
	}
	if r.AntagonistLoss < 0.04 {
		t.Errorf("antagonist loss = %.3f, paper: > 5%%", r.AntagonistLoss)
	}
}

// fig12Cell returns the grid point for (promotion, spmMB, accesses);
// ok is false when absent.
func fig12Cell(r *Fig12Result, promotion float64, spmMB, accesses int) (Fig12Cell, bool) {
	for _, c := range r.Cells {
		if c.PromotionRate == promotion && c.SPMBytes == spmMB<<20 && c.AccessesPerTRFC == accesses {
			return c, true
		}
	}
	return Fig12Cell{}, false
}

func TestFig12Headlines(t *testing.T) {
	if testing.Short() {
		t.Skip("Fig. 12 sweep is slow")
	}
	r := Fig12(true)
	if len(r.Cells) != 24 {
		t.Fatalf("cells = %d, want 24", len(r.Cells))
	}
	// Headline: 8 MB + 3 accesses eliminates fallbacks at both rates.
	for _, prom := range []float64{0.5, 1.0} {
		c, ok := fig12Cell(r, prom, 8, 3)
		if !ok {
			t.Fatal("missing 8MB/3acc cell")
		}
		if c.FallbackRate > 0.001 {
			t.Errorf("promotion %.0f%%: 8MB/3acc fallback rate = %.4f, want ≈0", prom*100, c.FallbackRate)
		}
	}
	// Monotonicity: fallbacks shrink (weakly) with SPM size at fixed
	// accesses, and with accesses at fixed SPM.
	for _, prom := range []float64{0.5, 1.0} {
		for _, acc := range []int{1, 2, 3} {
			prev := 2.0
			for _, spm := range []int{1, 2, 4, 8} {
				c, _ := fig12Cell(r, prom, spm, acc)
				if c.FallbackRate > prev+0.04 {
					t.Errorf("fallbacks grew with SPM at prom=%v acc=%d spm=%d", prom, acc, spm)
				}
				prev = c.FallbackRate
			}
		}
	}
	// Random-access share scales with promotion rate (§8).
	lo, _ := fig12Cell(r, 0.5, 8, 3)
	hi, _ := fig12Cell(r, 1.0, 8, 3)
	if hi.RandomFraction < lo.RandomFraction {
		t.Errorf("random share did not grow with promotion: %.3f vs %.3f",
			lo.RandomFraction, hi.RandomFraction)
	}
}

func TestEnergyHeadlines(t *testing.T) {
	r := EnergySaving(true)
	if r.MeanSaving < 0.06 || r.MeanSaving > 0.14 {
		t.Errorf("mean access-energy saving = %.3f, paper: 0.101", r.MeanSaving)
	}
	if r.DataMovementSaving < 0.68 || r.DataMovementSaving > 0.70 {
		t.Errorf("data movement saving = %.3f, paper: 0.69", r.DataMovementSaving)
	}
}

func TestCapacityHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity sweep is slow")
	}
	r := Capacity(true)
	if r.MaxCleanCapacityGB < 512 {
		t.Errorf("max fallback-free capacity = %.0f GB, paper: up to 1 TB", r.MaxCleanCapacityGB)
	}
	// The sweep must show a cliff: the largest capacity has fallbacks.
	last := r.Rows[len(r.Rows)-1]
	if last.FallbackRate == 0 {
		t.Errorf("no fallbacks even at %.0f GB; sweep should find the limit", last.CapacityGB)
	}
}

func TestAblationsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps are slow")
	}
	r := Ablations()
	if r.RandomOnlyFallback <= r.WithCondFallback {
		t.Errorf("random-only fallback %.3f not above conditional design %.3f",
			r.RandomOnlyFallback, r.WithCondFallback)
	}
	if r.AwareWriteCondShare <= r.UniformWriteCondShare {
		t.Errorf("aware placement conditional-write share %.3f not above uniform %.3f",
			r.AwareWriteCondShare, r.UniformWriteCondShare)
	}
}

func TestEmulatorComparison(t *testing.T) {
	r := Emulator()
	// Same workload, same swap decisions.
	if r.CPU.BackendStats.SwapOuts != r.XFM.BackendStats.SwapOuts {
		t.Errorf("swap-outs differ: %d vs %d",
			r.CPU.BackendStats.SwapOuts, r.XFM.BackendStats.SwapOuts)
	}
	if r.XFMOffloadRate <= 0.5 {
		t.Errorf("XFM offload rate = %.2f, want > 0.5", r.XFMOffloadRate)
	}
	if r.CPUCycleReduction <= 0 {
		t.Errorf("XFM did not reduce host cycles: %.3f", r.CPUCycleReduction)
	}
	// §2.1's validated promotion-rate band.
	for name, rate := range map[string]float64{"CPU": r.CPU.PromotionRate, "XFM": r.XFM.PromotionRate} {
		if rate < 0.30 || rate > 0.90 {
			t.Errorf("%s promotion rate = %.3f, want within [0.30, 0.90]", name, rate)
		}
	}
	out := r.Table().String()
	if !strings.Contains(out, "offload rate") {
		t.Error("table missing offload rate row")
	}
}
